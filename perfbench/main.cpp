/**
 * @file
 * pombench: the repository benchmark driver.
 *
 *   pombench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--work-dir <dir>]
 *   pombench --self-test
 *
 * Prints a summary, any failed request, and as its last line one JSON
 * object {"correct", "attempted", "failed", "values"}: each metric's
 * name and value. Names, units and directions are declared once, in
 * BENCHMARK.json, and run.py labels the values with them. With
 * --trace 0 the values are the end-to-end metrics; with --trace 1 the
 * run measures the same requests once untraced and once traced,
 * prints the per-layer self-time table, reports the per-layer metrics
 * (a layer a workload does not exercise is left out), and writes the
 * spans as trace-event JSON under --work-dir.
 */

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "lower/lower.h"
#include "pass/pipeline_cache.h"
#include "support/thread_pool.h"

using namespace pombench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "pombench: %s\nusage: pombench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n"
                 "       pombench --self-test\n",
                 why);
    return 2;
}

int
cpuCount()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

/** Round-trip-exact text of a double. */
std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::map<std::string, double>
endToEnd(const WorkloadResult &result)
{
    const Phase &phase = result.untraced;
    std::vector<double> latency, qor;
    double ok = 0, inSlo = 0;
    for (const Sample &s : phase.samples) {
        latency.push_back(s.latencyMs);
        if (s.qorCycles > 0)
            qor.push_back(static_cast<double>(s.qorCycles));
        ok += s.ok ? 1 : 0;
        inSlo += s.ok && s.latencyMs <= result.sloMs ? 1 : 0;
    }
    double n = static_cast<double>(phase.samples.size());
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return {
        {"compile_ms_p50", percentile(latency, 0.5)},
        {"compile_ms_p90", percentile(latency, 0.9)},
        {"compile_ms_geomean", geomean(latency)},
        {"compiles_per_s", phase.seconds > 0 ? ok / phase.seconds : 0.0},
        {"slo_met_frac", n > 0 ? inSlo / n : 0.0},
        {"qor_latency_geomean_cycles", geomean(qor)},
        {"setup_s", median(result.setupSeconds)},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0},
    };
}

/** Self-time table + share metrics from the traced phase's spans. */
void
selfTimes(const Tracer &tracer, std::map<std::string, double> &layers)
{
    auto times = tracer.layerTimes();
    double requestMs = tracer.requestMs();
    std::printf("per-layer self time (traced phase, %.1f ms inside "
                "requests):\n",
                requestMs);
    std::printf("  %-12s %8s %14s %14s\n", "layer", "spans", "self ms",
                "share of req");
    for (const auto &[layer, t] : times) {
        double share = requestMs > 0 ? t.inRequestMs / requestMs : 0.0;
        std::printf("  %-12s %8lld %14.3f %14.4f\n", layer.c_str(),
                    static_cast<long long>(t.spans), t.selfMs, share);
        if (layer == "dse" || layer == "emit" || layer == "service")
            layers[layer + ".self_share"] = share;
    }
}

int
selfTest()
{
    int failures = 0;
    auto check = [&](bool ok, const std::string &what) {
        std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
        failures += ok ? 0 : 1;
    };
    check(paperSweepKeys(7) == paperSweepKeys(7),
          "paper_sweep_cold: one seed, one request list");
    check(paperSweepKeys(7) != paperSweepKeys(8),
          "paper_sweep_cold: another seed reorders the list");
    check(editLoopKeys(7) == editLoopKeys(7),
          "edit_loop_warm: one seed, one request list");
    check(editLoopKeys(7) != editLoopKeys(8),
          "edit_loop_warm: another seed reorders the list");
    check(daemonKeys(7, 5) == daemonKeys(7, 5),
          "daemon_open_loop: one seed, one schedule");
    check(daemonKeys(7, 5) != daemonKeys(8, 5),
          "daemon_open_loop: another seed changes the schedule");
    for (const char *w : {"paper_sweep_cold", "edit_loop_warm"}) {
        try {
            auto first = replayPrefix(w, 7, 12, cpuCount());
            auto second = replayPrefix(w, 7, 12, cpuCount());
            check(first == second,
                  std::string(w) + ": qor_latency_geomean_cycles " +
                      number(first.first) + " and dse.points " +
                      std::to_string(first.second) + " repeat exactly (" +
                      number(second.first) + ", " +
                      std::to_string(second.second) + ")");
        } catch (const std::exception &e) {
            check(false, std::string(w) + ": " + e.what());
        }
    }
    std::printf("%d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    args.nproc = cpuCount();
    pom::support::setJobs(args.nproc);
    pom::pass::setPipelineCacheEnabled(true);
    pom::lower::registerLoweringPasses();
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--self-test")
            return selfTest();
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            args.workload = v;
        } else if (a == "--seed") {
            args.seed = std::strtoull(v.c_str(), &end, 10);
            haveSeed = *end == '\0' && !v.empty();
        } else if (a == "--seconds") {
            args.seconds = std::strtod(v.c_str(), &end);
            haveSeconds = *end == '\0' && args.seconds > 0;
        } else if (a == "--trace") {
            args.trace = v == "1";
            haveTrace = v == "0" || v == "1";
        } else if (a == "--work-dir") {
            args.workDir = v;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace)
        return usage("--seed, --seconds and --trace need valid values");

    WorkloadResult result;
    try {
        if (args.workload == "paper_sweep_cold")
            result = runPaperSweepCold(args);
        else if (args.workload == "edit_loop_warm")
            result = runEditLoopWarm(args);
        else if (args.workload == "daemon_open_loop")
            result = runDaemonOpenLoop(args);
        else
            return usage(("unknown workload '" + args.workload + "'").c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pombench: %s\n", e.what());
        return 1;
    }

    std::size_t attempted = 0, failed = 0;
    for (const Phase *phase : {&result.untraced, &result.traced}) {
        for (const Sample &s : phase->samples) {
            ++attempted;
            if (!s.ok) {
                ++failed;
                std::printf("FAIL %s: %s\n", s.key.c_str(), s.failure.c_str());
            }
        }
    }

    auto values = endToEnd(result);
    std::printf("%s seed=%llu: %zu requests in %.3f s measured, nproc=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                result.untraced.samples.size(), result.untraced.seconds,
                args.nproc);
    if (args.trace) {
        Tracer &tracer = globalTracer();
        selfTimes(tracer, result.layers);
        std::vector<double> untraced, traced;
        for (const Sample &s : result.untraced.samples)
            untraced.push_back(s.latencyMs);
        for (const Sample &s : result.traced.samples)
            traced.push_back(s.latencyMs);
        double base = percentile(untraced, 0.5);
        result.layers["trace.overhead_frac"] =
            base > 0 ? (percentile(traced, 0.5) - base) / base : 0.0;
        std::string path = (std::filesystem::path(args.workDir) /
                            ("trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json"))
                               .string();
        std::string error;
        if (!tracer.writeJson(path, error)) {
            std::fprintf(stderr, "pombench: %s\n", error.c_str());
            return 1;
        }
        std::printf("trace: %s\n", path.c_str());
        values = result.layers;
    }

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"values\": {",
                failed == 0 && attempted > 0 ? "true" : "false", attempted,
                failed);
    const char *sep = "";
    for (const auto &[name, value] : values) {
        std::printf("%s\"%s\": %s", sep, name.c_str(), number(value).c_str());
        sep = ", ";
    }
    std::printf("}}\n");
    return 0;
}
