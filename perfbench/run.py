#!/usr/bin/env python3
"""Build and run the POM repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the POM libraries from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later calls only rebuild what changed. Build output goes to
stderr. The pombench binary then runs one workload and reports each
metric's value by name; this script labels the values with the units
BENCHMARK.json declares, prints them, and prints as its last line the
JSON result.

--self-test checks that one seed always generates the same requests,
and that QoR and DSE point counts repeat exactly across two runs of one
seed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure (once) and build pombench; returns the binary path."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "pombench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build step failed: " + " ".join(step))
    return os.path.join(out, "pombench")


def label(values, declared):
    """Attach units to pombench's values and print them; returns metrics.

    A declared metric the workload does not exercise reads 0 and is
    marked; a value BENCHMARK.json does not declare is an error.
    """
    unknown = sorted(set(values) - {m["name"] for m in declared})
    if unknown:
        sys.exit("run.py: pombench reported undeclared metrics: " +
                 ", ".join(unknown))
    metrics = {}
    for m in declared:
        measured = m["name"] in values
        value = values.get(m["name"], 0.0)
        print("  %-30s %16.6f %-8s %s" % (
            m["name"], value, m["unit"],
            "" if measured else "(not measured on this workload)"))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if args.self_test:
        return subprocess.run([binary, "--self-test"],
                              timeout=RUN_TIMEOUT_S).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    # Per-run scratch (sockets, cache spills); trace files stay beside it.
    work = os.path.join(out, "runs")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work, os.getcwd())]
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("run.py: pombench exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode or not lines:
        print(run.stdout, end="")
        return run.returncode or 1
    print("\n".join(lines[:-1]))
    raw = json.loads(lines[-1])
    attempted, failed = raw["attempted"], raw["failed"]
    print("per-layer:" if args.trace else "end-to-end:")
    metrics = label(raw["values"],
                    bench["per_layer" if args.trace else "end_to_end"])
    print("  %-30s %16.6f %-8s (failed / attempted)" % (
        "failed_frac", failed / attempted if attempted else 0.0, "fraction"))
    print(json.dumps({"correct": raw["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
