/**
 * @file
 * The two in-process workloads: paper_sweep_cold (first compile of a
 * new kernel, every process-wide cache cleared before each request)
 * and edit_loop_warm (a long-lived session replaying designer edits
 * against caches primed during set-up).
 *
 * Both are closed loops with one client: a request is
 * workloads::makeByName -> dse::autoDSE -> emit::emitHlsC, and its
 * latency covers autoDSE + emit. Building the kernel and the
 * correctness checks run outside the request's latency.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "check/oracle.h"
#include "common.h"
#include "dse/dse.h"
#include "emit/hls_emitter.h"
#include "hls/estimator.h"
#include "pass/pipeline_cache.h"
#include "support/diagnostics.h"
#include "workloads/workloads.h"

namespace pombench {

namespace {

using pom::dse::StrategyKind;

/** Problem sizes of the small kernels in one paper_sweep_cold round. */
const std::int64_t kSweepSizes[] = {32, 64, 128, 192, 256, 512, 1024};
/** The DNNs run at the paper's Table V / Fig. 13 size. */
constexpr std::int64_t kDnnSize = 512;
/** Fig. 11 resource fractions. */
const double kFractions[] = {0.25, 0.5, 0.75, 1.0};
/** Sizes a designer moves between in edit_loop_warm. */
const std::int64_t kEditSizes[] = {64, 128, 256};
/** Verified requests interpret every design point: keep them small. */
constexpr std::int64_t kVerifySize = 8;
const StrategyKind kStrategies[] = {StrategyKind::Greedy, StrategyKind::Beam,
                                    StrategyKind::Anneal};
/**
 * Latency limits for slo_met_frac, placed in gaps of the latency
 * distribution: every small-kernel compile of the sweep stays well
 * under 2 s and every DNN compile well over it; the slowest verified
 * edit takes about 2.5 s on a loaded 4-CPU host.
 */
constexpr double kSweepSloMs = 2000.0;
constexpr double kEditSloMs = 5000.0;
/** Set-up repetitions; setup_s is their median. */
constexpr int kSetupReps = 3;

struct CompileRequest
{
    std::string kernel;
    std::int64_t size = 0;
    double fraction = 1.0;
    StrategyKind strategy = StrategyKind::Greedy;
    bool verify = false;

    std::string
    key() const
    {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s/%lld/%.2f/%s%s", kernel.c_str(),
                      static_cast<long long>(size), fraction,
                      pom::dse::strategyName(strategy),
                      verify ? "/verify" : "");
        return buf;
    }
};

/** Per-layer sums over one phase's requests. */
struct Totals
{
    double requests = 0, buildMs = 0;
    double searchMs = 0, points = 0, accepted = 0, explored = 0,
           frontier = 0;
    double emitMs = 0, hlsCBytes = 0;
    double checks = 0, estimateMs = 0;
    double probes = 0, estimateNodesMs = 0, lowerMs = 0, irOps = 0;
    double verified = 0, oracleMs = 0, oracleWork = 0, pointsVerified = 0;

    /** Layer metrics; a ratio with nothing behind it is left out. */
    void
    toLayers(std::map<std::string, double> &layers) const
    {
        auto ratio = [&](const char *name, double a, double b) {
            if (b > 0)
                layers[name] = a / b;
        };
        ratio("workloads.build_ms", buildMs, requests);
        ratio("dse.search_ms", searchMs, requests);
        ratio("dse.points", points, requests);
        ratio("dse.ms_per_point", searchMs, points);
        ratio("dse.accept_ratio", accepted, explored);
        ratio("dse.frontier_size", frontier, requests);
        ratio("emit.emit_ms", emitMs, requests);
        ratio("emit.hls_c_bytes", hlsCBytes, requests);
        ratio("hls.estimate_ms", estimateMs, checks);
        ratio("hls.estimate_nodes_ms", estimateNodesMs, probes);
        ratio("lower.lower_ms", lowerMs, probes);
        ratio("lower.ir_ops", irOps, probes);
        ratio("check.oracle_ms", oracleMs, verified);
        ratio("check.points_verified", pointsVerified, verified);
        ratio("ir.interp_steps_per_s", oracleWork, oracleMs / 1000.0);
    }
};

bool
sameReport(const pom::hls::SynthesisReport &a,
           const pom::hls::SynthesisReport &b)
{
    return a.latencyCycles == b.latencyCycles &&
           a.resources.dsp == b.resources.dsp &&
           a.resources.lut == b.resources.lut &&
           a.resources.ff == b.resources.ff &&
           a.resources.bramBits == b.resources.bramBits;
}

std::string
reportText(const pom::hls::SynthesisReport &r)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "latency=%llu dsp=%d lut=%d ff=%d bram_bits=%lld",
                  static_cast<unsigned long long>(r.latencyCycles),
                  r.resources.dsp, r.resources.lut, r.resources.ff,
                  static_cast<long long>(r.resources.bramBits));
    return buf;
}

/** One in-process compile session (the closed-loop client). */
class Session
{
  public:
    Session(Tracer &tracer, int jobs) : tracer_(tracer), jobs_(jobs) {}

    /**
     * Compile @p rq and run its correctness checks. With @p probes,
     * also time the uncached per-layer probe calls.
     */
    Sample
    compile(const CompileRequest &rq, std::int64_t id, bool probes)
    {
        Sample sample;
        sample.key = rq.key();
        pom::workloads::WorkloadPtr w;
        {
            Span span(tracer_, "workloads.makeByName", id);
            auto t = Clock::now();
            w = pom::workloads::makeByName(rq.kernel, rq.size);
            totals.buildMs += msSince(t);
        }
        pom::dse::DseOptions options;
        options.resourceFraction = rq.fraction;
        options.strategy = rq.strategy;
        options.verifyEachPoint = rq.verify;
        options.jobs = jobs_;
        pom::dse::DseResult res;
        std::string hlsC;
        auto t0 = Clock::now();
        try {
            Span request(tracer_, "request", id);
            {
                Span span(tracer_, "dse.autoDSE");
                auto t = Clock::now();
                res = pom::dse::autoDSE(w->func(), options);
                totals.searchMs += msSince(t);
            }
            {
                Span span(tracer_, "emit.emitHlsC");
                auto t = Clock::now();
                hlsC = pom::emit::emitHlsC(*res.design.func);
                totals.emitMs += msSince(t);
            }
        } catch (const std::exception &e) {
            sample.latencyMs = msSince(t0);
            fail(sample, "status", e.what());
            return sample;
        }
        sample.latencyMs = msSince(t0);
        sample.qorCycles = res.report.latencyCycles;

        totals.requests += 1;
        totals.points += res.pointsExplored;
        totals.frontier += static_cast<double>(res.frontier.size());
        totals.hlsCBytes += static_cast<double>(hlsC.size());
        for (const auto &entry : res.journal) {
            if (entry.kind != "point")
                continue;
            if (entry.verdict == "accepted")
                totals.accepted += 1;
            if (entry.verdict == "accepted" || entry.verdict == "rejected")
                totals.explored += 1;
        }

        // Correctness gate, outside the request's latency.
        pom::hls::EstimatorOptions eo;
        eo.device = pom::hls::Device::xc7z020().scaled(rq.fraction);
        if (!res.report.resources.fitsIn(eo.device)) {
            fail(sample, "budget",
                 reportText(res.report) + " exceeds fraction " +
                     std::to_string(rq.fraction));
        }
        pom::hls::SynthesisReport fresh;
        {
            Span span(tracer_, "hls.estimate", id);
            auto t = Clock::now();
            fresh = pom::hls::estimate(w->func(), res.design, eo);
            totals.estimateMs += msSince(t);
            totals.checks += 1;
        }
        if (!sameReport(fresh, res.report)) {
            fail(sample, "estimate",
                 "returned " + reportText(res.report) +
                     " but a fresh estimate gives " + reportText(fresh));
        }
        if (rq.verify) {
            Span span(tracer_, "check.checkLowered", id);
            auto t = Clock::now();
            pom::check::OracleResult oracle =
                pom::check::checkLowered(w->func(), res.design);
            totals.oracleMs += msSince(t);
            totals.oracleWork +=
                static_cast<double>(oracle.refWork + oracle.testWork);
            totals.verified += 1;
            totals.pointsVerified += res.pointsVerified;
            if (!oracle.equivalent)
                fail(sample, "oracle", oracle.message);
            else if (res.pointsVerified == 0)
                fail(sample, "oracle", "the DSE verified no design point");
        }
        if (probes)
            probe(rq, *w, res, eo, id);
        return sample;
    }

    Totals totals;

  private:
    /** Uncached per-layer probe calls on the request's kernel/design. */
    void
    probe(const CompileRequest &rq, pom::workloads::Workload &w,
          const pom::dse::DseResult &res,
          const pom::hls::EstimatorOptions &eo, std::int64_t id)
    {
        totals.probes += 1;
        {
            Span span(tracer_, "hls.estimateNodes", id);
            auto t = Clock::now();
            pom::hls::estimateNodes(w.func(), res.design, eo);
            totals.estimateNodesMs += msSince(t);
        }
        auto plain = pom::workloads::makeByName(rq.kernel, rq.size);
        {
            pom::pass::PipelineCacheDisableScope cold;
            Span span(tracer_, "lower.lower", id);
            auto t = Clock::now();
            pom::lower::lower(plain->func());
            totals.lowerMs += msSince(t);
        }
        std::size_t ops = 0;
        res.design.func->walk([&ops](const pom::ir::Operation &) { ++ops; });
        totals.irOps += static_cast<double>(ops);
    }

    Tracer &tracer_;
    int jobs_;
};

/**
 * Run the whole number of rounds whose summed request latency comes
 * closest to @p budgetS (at least one): a further round starts only
 * while more than half an average round of the budget is left. Whole
 * rounds keep the request mix, and with it every metric's composition,
 * independent of machine speed.
 */
template <typename RoundFn>
Phase
runRounds(Session &session, Tracer &tracer, RoundFn roundOf, double budgetS,
          bool coldEach, bool probes, CacheTally &caches)
{
    Phase phase;
    double busyMs = 0.0;
    std::int64_t id = 0;
    for (std::uint64_t round = 0;
         round == 0 || busyMs + 0.5 * busyMs / static_cast<double>(round) <
                           budgetS * 1000.0;
         ++round) {
        for (const CompileRequest &rq : roundOf(round)) {
            std::string leftWarm;
            if (coldEach) {
                Span span(tracer, "cache.reset");
                leftWarm = resetCaches();
            }
            CacheCounters before = readCaches();
            Sample sample = session.compile(rq, ++id, probes);
            caches.add(before, readCaches());
            if (!leftWarm.empty())
                fail(sample, "cold-reset", leftWarm);
            busyMs += sample.latencyMs;
            phase.samples.push_back(std::move(sample));
        }
    }
    phase.seconds = busyMs / 1000.0;
    return phase;
}

// ----- paper_sweep_cold ------------------------------------------------------

/** All 18 kernels: small ones at every sweep size, DNNs once each. */
std::vector<CompileRequest>
sweepRound(std::uint64_t seed, std::uint64_t round)
{
    std::vector<CompileRequest> list;
    for (const auto &name : pom::workloads::allNames()) {
        if (isDnn(name)) {
            list.push_back({name, kDnnSize, 1.0, StrategyKind::Greedy, false});
            continue;
        }
        for (std::int64_t size : kSweepSizes)
            list.push_back({name, size, 1.0, StrategyKind::Greedy, false});
    }
    Rng rng(mixSeed(seed, 1, round));
    shuffle(list, rng);
    return list;
}

// ----- edit_loop_warm --------------------------------------------------------

/**
 * One kernel's edit session: six cached compiles spread over the
 * fraction x strategy grid (each strategy twice, every fraction at
 * least once, sizes rotating), plus two verified compiles at the
 * budget extremes -- a quarter of all requests.
 */
std::vector<CompileRequest>
kernelEdits(std::size_t ki, const std::string &kernel)
{
    std::vector<CompileRequest> edits;
    for (std::size_t fi = 0; fi < 4; ++fi) {
        for (std::size_t si = 0; si < 3; ++si) {
            if ((ki + fi + si) % 2 != 0)
                continue;
            edits.push_back({kernel, kEditSizes[(ki + fi * 3 + si) % 3],
                             kFractions[fi], kStrategies[si], false});
        }
    }
    for (std::size_t i = 0; i < 2; ++i) {
        edits.push_back({kernel, kVerifySize, kFractions[i == 0 ? 0 : 3],
                         kStrategies[(ki + i) % 3], true});
    }
    return edits;
}

/** One pass: kernels in seeded order, each kernel's edits shuffled. */
std::vector<CompileRequest>
editPass(std::uint64_t seed, std::uint64_t pass)
{
    Rng rng(mixSeed(seed, 2, pass));
    std::vector<std::size_t> order;
    auto kernels = smallKernels();
    for (std::size_t i = 0; i < kernels.size(); ++i)
        order.push_back(i);
    shuffle(order, rng);
    std::vector<CompileRequest> list;
    for (std::size_t ki : order) {
        auto edits = kernelEdits(ki, kernels[ki]);
        shuffle(edits, rng);
        list.insert(list.end(), edits.begin(), edits.end());
    }
    return list;
}

/** Every cached (non-verified) edit: what set-up primes. */
std::vector<CompileRequest>
cachedEdits()
{
    std::vector<CompileRequest> out;
    auto kernels = smallKernels();
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        for (auto &rq : kernelEdits(ki, kernels[ki]))
            if (!rq.verify)
                out.push_back(rq);
    }
    return out;
}

std::vector<std::string>
keysOf(const std::vector<CompileRequest> &list)
{
    std::vector<std::string> keys;
    for (const auto &rq : list)
        keys.push_back(rq.key());
    return keys;
}

/** Untraced phase, then (trace mode) the traced phase + layer metrics. */
template <typename RoundFn>
void
measure(const Args &args, Session &session, Tracer &tracer, RoundFn roundOf,
        bool coldEach, WorkloadResult &result)
{
    CacheTally caches;
    result.untraced = runRounds(session, tracer, roundOf, args.seconds,
                                coldEach, false, caches);
    if (!args.trace)
        return;
    session.totals = Totals();
    caches = CacheTally();
    tracer.setEnabled(true);
    result.traced = runRounds(session, tracer, roundOf, args.seconds,
                              coldEach, true, caches);
    tracer.setEnabled(false);
    session.totals.toLayers(result.layers);
    caches.toLayers(result.layers);
}

} // namespace

WorkloadResult
runPaperSweepCold(const Args &args)
{
    Tracer &tracer = globalTracer();
    Session session(tracer, args.nproc);
    WorkloadResult result;
    result.sloMs = kSweepSloMs;
    // Set-up: warm the code paths (thread pool, pass registry, allocator)
    // with one throw-away compile per small kernel, then go cold.
    for (int rep = 0; rep < kSetupReps; ++rep) {
        auto t = Clock::now();
        for (const auto &name : smallKernels()) {
            compileUntimed(name, kSweepSizes[0], 1.0, StrategyKind::Greedy,
                           args.nproc);
        }
        resetCaches();
        result.setupSeconds.push_back(msSince(t) / 1000.0);
    }
    measure(
        args, session, tracer,
        [&](std::uint64_t round) { return sweepRound(args.seed, round); },
        /*coldEach=*/true, result);
    return result;
}

WorkloadResult
runEditLoopWarm(const Args &args)
{
    Tracer &tracer = globalTracer();
    Session session(tracer, args.nproc);
    WorkloadResult result;
    result.sloMs = kEditSloMs;
    // Set-up: clear, then prime the caches with every cached edit.
    for (int rep = 0; rep < kSetupReps; ++rep) {
        auto t = Clock::now();
        resetCaches();
        for (const auto &rq : cachedEdits()) {
            compileUntimed(rq.kernel, rq.size, rq.fraction, rq.strategy,
                           args.nproc);
        }
        result.setupSeconds.push_back(msSince(t) / 1000.0);
    }
    measure(
        args, session, tracer,
        [&](std::uint64_t pass) { return editPass(args.seed, pass); },
        /*coldEach=*/false, result);
    return result;
}

std::vector<std::string>
paperSweepKeys(std::uint64_t seed)
{
    return keysOf(sweepRound(seed, 0));
}

std::vector<std::string>
editLoopKeys(std::uint64_t seed)
{
    return keysOf(editPass(seed, 0));
}

std::pair<double, std::int64_t>
replayPrefix(const std::string &workload, std::uint64_t seed, int count,
             int jobs)
{
    std::vector<CompileRequest> list;
    for (const auto &rq : workload == "paper_sweep_cold"
                              ? sweepRound(seed, 0)
                              : editPass(seed, 0)) {
        if (!isDnn(rq.kernel) && static_cast<int>(list.size()) < count)
            list.push_back(rq);
    }
    Tracer tracer;
    Session session(tracer, jobs);
    resetCaches();
    std::vector<double> qor;
    std::int64_t id = 0;
    for (const auto &rq : list) {
        Sample s = session.compile(rq, ++id, false);
        if (!s.ok)
            pom::support::fatal(rq.key() + " failed: " + s.failure);
        qor.push_back(static_cast<double>(s.qorCycles));
    }
    resetCaches();
    return {geomean(qor), static_cast<std::int64_t>(session.totals.points)};
}

} // namespace pombench
