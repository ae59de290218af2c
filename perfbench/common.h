/**
 * @file
 * Shared pieces of the pombench driver: run arguments, the seeded
 * generator, the benchmark-owned span tracer, per-request samples,
 * percentile helpers and the process-wide cache probes.
 *
 * pombench treats POM as a library: every timed call goes through a
 * public entry point (workloads::makeByName, dse::autoDSE,
 * emit::emitHlsC, hls::estimate/estimateNodes, lower::lower,
 * check::checkLowered, service::Server/callDaemon), and cache
 * behaviour is read only through the caches' public counters.
 */

#ifndef POMBENCH_COMMON_H
#define POMBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "dse/strategy.h"

namespace pombench {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0);

/** Command-line arguments of one run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for sockets, spills and trace files. */
    std::string workDir = ".";
    /** CPUs this process may run on. */
    int nproc = 1;
};

/**
 * splitmix64: the request generator. Hand-rolled because the standard
 * distributions are implementation-defined, and one seed must give one
 * request list on every toolchain.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n);

  private:
    std::uint64_t state_;
};

/** Fisher-Yates shuffle driven by @p rng. */
template <typename T> void
shuffle(std::vector<T> &items, Rng &rng)
{
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.below(i)]);
}

/** Derive an independent stream for (seed, stream, index). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t index);

/**
 * Benchmark-owned span recorder. Spans are kept in memory while the
 * run executes and written as Chrome trace-event JSON at the end. When
 * disabled, opening a span costs one branch. It is separate from
 * pom::obs spans because enabling those also turns on the library's
 * own internal spans, which would change the code being measured.
 */
class Tracer
{
  public:
    /** Self time of one layer, summed over a run's spans. */
    struct LayerTime
    {
        std::int64_t spans = 0;
        double selfMs = 0.0;
        /** Self time spent inside "request" spans. */
        double inRequestMs = 0.0;
    };

    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    std::int64_t begin(const char *name, std::int64_t request);
    void end(std::int64_t index);

    /** Layer (span-name prefix up to the first '.') -> self time. */
    std::map<std::string, LayerTime> layerTimes() const;

    /** Total duration of the root "request" spans, in ms. */
    double requestMs() const;

    bool writeJson(const std::string &path, std::string &error) const;

  private:
    struct Record
    {
        std::string name;
        std::int64_t request = 0; ///< request id, 0 = outside requests
        std::int64_t parent = -1; ///< index of the enclosing span
        int thread = 0;
        double beginUs = 0.0;
        double endUs = 0.0;
    };

    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<Record> records_;
    Clock::time_point epoch_ = Clock::now();
};

/** The tracer the workloads record into. */
Tracer &globalTracer();

/** RAII span; a no-op when the tracer is disabled. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, std::int64_t request = 0)
        : tracer_(tracer),
          index_(tracer.enabled() ? tracer.begin(name, request) : -1)
    {
    }
    ~Span()
    {
        if (index_ >= 0)
            tracer_.end(index_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    std::int64_t index_;
};

/** One request of a measured phase. */
struct Sample
{
    std::string key;
    double latencyMs = 0.0;
    bool ok = true;
    /** "<check>: <detail>" for a failed request. */
    std::string failure;
    /** Latency of the selected design; 0 for requests without one. */
    std::uint64_t qorCycles = 0;
};

/** Mark @p sample failed by @p check (first failure wins). */
void fail(Sample &sample, const std::string &check,
          const std::string &detail);

/** One measured phase: its requests and its duration. */
struct Phase
{
    std::vector<Sample> samples;
    double seconds = 0.0;
};

/** What a workload hands back to main(). */
struct WorkloadResult
{
    /** End-to-end metrics come from this phase (tracing off). */
    Phase untraced;
    /** Trace mode only: the same requests again with spans on. */
    Phase traced;
    /** Duration of each set-up repetition. */
    std::vector<double> setupSeconds;
    /** The workload's fixed latency limit for slo_met_frac. */
    double sloMs = 0.0;
    /** Per-layer metrics measured by the traced phase. */
    std::map<std::string, double> layers;
};

// ----- statistics ----------------------------------------------------------

/** Nearest-rank percentile (q in (0, 1]) of @p values. */
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double geomean(const std::vector<double> &values);

// ----- process-wide caches -------------------------------------------------

/** Hit/miss/size readings of the three process-wide caches. */
struct CacheCounters
{
    std::uint64_t hits[3] = {0, 0, 0};
    std::uint64_t misses[3] = {0, 0, 0};
    std::size_t size[3] = {0, 0, 0};
};

CacheCounters readCaches();

/**
 * Clear the estimator, node-report and pipeline caches. Returns a
 * description of every cache still holding entries afterwards (empty
 * when all three are empty).
 */
std::string resetCaches();

/**
 * Cache reuse summed over a phase. clear() also zeroes a cache's
 * counters, so readings are taken around each request and summed.
 */
struct CacheTally
{
    std::uint64_t hits[3] = {0, 0, 0};
    std::uint64_t misses[3] = {0, 0, 0};
    /** Largest size seen at the end of a request. */
    std::size_t peak[3] = {0, 0, 0};

    void add(const CacheCounters &before, const CacheCounters &after);
    /** hit_rate and entries metrics of the three caches. */
    void toLayers(std::map<std::string, double> &layers) const;
};

// ----- workloads -----------------------------------------------------------

/** True for the two DNN kernels (vgg16, resnet18). */
bool isDnn(const std::string &kernel);

/** The 16 non-DNN paper kernels, in registry order. */
std::vector<std::string> smallKernels();

/** Compile + emit once, untimed: set-up warm-up and cache priming. */
void compileUntimed(const std::string &kernel, std::int64_t size,
                    double fraction, pom::dse::StrategyKind strategy,
                    int jobs);

WorkloadResult runPaperSweepCold(const Args &args);
WorkloadResult runEditLoopWarm(const Args &args);
WorkloadResult runDaemonOpenLoop(const Args &args);

/** Request keys a workload generates for @p seed (self-test). */
std::vector<std::string> paperSweepKeys(std::uint64_t seed);
std::vector<std::string> editLoopKeys(std::uint64_t seed);
std::vector<std::string> daemonKeys(std::uint64_t seed, double seconds);

/**
 * Run the first @p count requests of a workload's list in-process
 * with cold caches and return (geomean QoR cycles, total DSE points).
 */
std::pair<double, std::int64_t>
replayPrefix(const std::string &workload, std::uint64_t seed, int count,
             int jobs);

} // namespace pombench

#endif // POMBENCH_COMMON_H
