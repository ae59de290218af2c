/**
 * @file
 * daemon_open_loop: an in-process service::Server on a Unix socket,
 * warm-started from a cache spill written during set-up, driven by one
 * open-loop generator with seeded Poisson arrivals.
 *
 * The generator hands each request, at its due time, to a pool of
 * nproc client threads (so at most nproc connections are in flight);
 * a request's latency runs from its due time, so a stall also charges
 * the requests queued behind it. The mix is mostly cheap: compile
 * frames over the small kernels (warm in the spill) and opt frames
 * carrying lowered IR, plus one cold DNN compile at a seeded time,
 * which holds a daemon worker for seconds (head-of-line blocking).
 */

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include <unistd.h>

#include "common.h"
#include "dse/dse.h"
#include "hls/estimator_cache.h"
#include "hls/node_cache.h"
#include "ir/parser.h"
#include "pass/pass_manager.h"
#include "pass/pipeline_cache.h"
#include "service/client.h"
#include "service/server.h"
#include "support/diagnostics.h"
#include "support/version.h"
#include "workloads/workloads.h"

namespace pombench {

namespace {

namespace fs = std::filesystem;
using pom::service::Request;
using pom::service::Response;

/**
 * Offered load. On 4 CPUs (2 workers x 2 jobs) the daemon sustains
 * about 70 requests/s of this mix, and about half that while a DNN
 * compile holds one worker. 12/s keeps utilisation low enough that a
 * slower host lengthens service times without tipping the queue into
 * saturation, which would amplify host noise.
 */
constexpr double kRatePerS = 12.0;
/**
 * Latency limit for slo_met_frac: cheap requests stay far below it
 * unless a backlog builds; the DNN compile always misses it.
 */
constexpr double kDaemonSloMs = 1000.0;
/** Compile frames use this size; the DNN the paper's size. */
constexpr std::int64_t kCompileSize = 128;
constexpr std::int64_t kDnnSize = 512;
const double kCompileFractions[] = {0.25, 0.5, 1.0};
const char *const kPipelines[] = {"verify", "strip-hls,verify",
                                  "verify,count-ops"};
/** Client retries of a "busy" answer before the request fails. */
constexpr int kBusyRetries = 25;
constexpr int kSetupReps = 3;

struct DaemonRequest
{
    bool opt = false;
    std::string kernel;
    std::int64_t size = 0;
    double fraction = 1.0;
    std::string pipeline;
    /** Due time from the start of the phase. */
    double dueMs = 0.0;

    std::string
    key() const
    {
        char buf[160];
        if (opt) {
            std::snprintf(buf, sizeof(buf), "opt/%s/%s", kernel.c_str(),
                          pipeline.c_str());
        } else {
            std::snprintf(buf, sizeof(buf), "compile/%s/%lld/%.2f",
                          kernel.c_str(), static_cast<long long>(size),
                          fraction);
        }
        return buf;
    }
};

/**
 * The cheap mix: per small kernel, three compile frames and one opt
 * frame. Compile frames are the majority so that the median request
 * is a compile, not the boundary between two request classes.
 */
std::vector<DaemonRequest>
mixBlock()
{
    std::vector<DaemonRequest> block;
    auto kernels = smallKernels();
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        for (double f : kCompileFractions)
            block.push_back({false, kernels[ki], kCompileSize, f, ""});
        block.push_back(
            {true, kernels[ki], kCompileSize, 1.0, kPipelines[ki % 3]});
    }
    return block;
}

/**
 * Poisson arrivals at about kRatePerS over @p seconds. The count is
 * fixed to whole seeded permutations of the mix, so every run holds
 * the same requests; given their count, Poisson arrival times are
 * uniform order statistics. One DNN compile lands at a seeded time in
 * the first third of the run.
 */
std::vector<DaemonRequest>
schedule(std::uint64_t seed, double seconds)
{
    Rng rng(mixSeed(seed, 3, 0));
    const std::size_t blockSize = mixBlock().size();
    auto blocks = static_cast<std::size_t>(std::max(
        1.0, std::round(kRatePerS * seconds / static_cast<double>(blockSize))));
    std::vector<DaemonRequest> out;
    for (std::size_t b = 0; b < blocks; ++b) {
        auto block = mixBlock();
        shuffle(block, rng);
        out.insert(out.end(), block.begin(), block.end());
    }
    std::vector<double> due;
    for (std::size_t i = 0; i < out.size(); ++i)
        due.push_back(rng.uniform() * seconds * 1000.0);
    std::sort(due.begin(), due.end());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i].dueMs = due[i];
    DaemonRequest dnn{false, "vgg16", kDnnSize, 1.0, ""};
    dnn.dueMs = (0.1 + 0.2 * rng.uniform()) * seconds * 1000.0;
    auto at = std::find_if(out.begin(), out.end(), [&](const auto &r) {
        return r.dueMs > dnn.dueMs;
    });
    out.insert(at, dnn);
    return out;
}

/** Lowered IR text of each small kernel (the opt frames' payload). */
std::map<std::string, std::string>
lowerIrTexts()
{
    std::map<std::string, std::string> texts;
    for (const auto &name : smallKernels()) {
        auto w = pom::workloads::makeByName(name, kCompileSize);
        texts[name] = pom::lower::lower(w->func()).func->str();
    }
    return texts;
}

std::string
runPipeline(const std::string &ir, const std::string &pipeline)
{
    pom::pass::PipelineState state;
    state.func = pom::ir::parseIr(ir);
    pom::pass::PassManager manager;
    manager.addPipeline(pipeline);
    manager.run(state);
    return state.func ? state.func->str() : "";
}

/** A started daemon with its accept loop on a thread. */
class RunningServer
{
  public:
    RunningServer(pom::service::ServerOptions options, std::string &error)
        : server_(std::make_unique<pom::service::Server>(std::move(options)))
    {
        if (!server_->start(error)) {
            server_.reset();
            return;
        }
        thread_ = std::thread([this] { server_->run(); });
    }
    ~RunningServer() { stop(); }
    RunningServer(const RunningServer &) = delete;
    RunningServer &operator=(const RunningServer &) = delete;

    bool started() const { return server_ != nullptr; }

    /** Stop accepting, join, and save the spill (Server's destructor). */
    void
    stop()
    {
        if (!server_)
            return;
        server_->stop();
        if (thread_.joinable())
            thread_.join();
        server_.reset();
    }

  private:
    std::unique_ptr<pom::service::Server> server_;
    std::thread thread_;
};

struct Config
{
    int workers = 1;
    int jobs = 1;
};

/**
 * One set-up repetition: prime the cheap mix in-process, spill the
 * three caches under @p dir, clear them, and start a daemon that
 * warm-loads the spill.
 */
std::unique_ptr<RunningServer>
setUp(const fs::path &dir, const Config &config,
      const std::map<std::string, std::string> &irTexts)
{
    resetCaches();
    for (const DaemonRequest &rq : mixBlock()) {
        if (rq.opt) {
            runPipeline(irTexts.at(rq.kernel), rq.pipeline);
        } else {
            compileUntimed(rq.kernel, rq.size, rq.fraction,
                           pom::dse::StrategyKind::Greedy, config.jobs);
        }
    }
    fs::create_directories(dir);
    std::string error;
    pom::hls::SpillStats stats;
    pom::support::CacheSpillStats pstats;
    if (!pom::hls::EstimatorCache::global().saveDir((dir / "cache").string(),
                                                    stats, error) ||
        !pom::hls::NodeReportCache::global().saveDir(
            (dir / "cache").string(), stats, error) ||
        !pom::pass::PipelineCache::global().saveDir(
            (dir / "pipeline").string(), pstats, error)) {
        pom::support::fatal("cannot write the cache spill: " + error);
    }
    resetCaches();
    pom::service::ServerOptions options;
    options.socketPath = (dir / "pomd.sock").string();
    options.cacheDir = (dir / "cache").string();
    options.pipelineCacheDir = (dir / "pipeline").string();
    options.workers = config.workers;
    auto server = std::make_unique<RunningServer>(options, error);
    if (!server->started())
        pom::support::fatal("cannot start the daemon: " + error);
    return server;
}

/** What one client saw for one request. */
struct Outcome
{
    double latencyMs = 0.0;
    double execMs = 0.0;
    double lagMs = 0.0;
    int retries = 0;
    bool ok = false;
    std::string error;
    std::uint64_t latencyCycles = 0;
    std::int64_t dsp = 0;
    std::size_t irHash = 0;
};

/** Drive @p sched against the daemon at @p socket; fills @p outcomes. */
double
runOpenLoop(const std::vector<DaemonRequest> &sched,
            const std::map<std::string, std::string> &irTexts,
            const std::string &socket, const Config &config, int conns,
            Tracer &tracer, std::vector<Outcome> &outcomes)
{
    outcomes.assign(sched.size(), Outcome());
    std::mutex mutex;
    std::condition_variable ready_cv;
    std::deque<std::size_t> ready;
    bool closed = false;
    auto start = Clock::now() + std::chrono::milliseconds(5);
    auto dueOf = [&](std::size_t i) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               sched[i].dueMs));
    };
    std::vector<Clock::time_point> doneAt(sched.size(), start);

    auto serve = [&](std::size_t i) {
        const DaemonRequest &rq = sched[i];
        Outcome &out = outcomes[i];
        Request request;
        request.version = pom::support::kVersionString;
        if (rq.opt) {
            request.method = "opt";
            request.ir = irTexts.at(rq.kernel);
            request.pipeline = rq.pipeline;
        } else {
            request.method = "compile";
            request.workload = rq.kernel;
            request.size = rq.size;
            request.resourceFraction = rq.fraction;
            request.emit = true;
            request.jobs = config.jobs;
        }
        Span span(tracer, "request", static_cast<std::int64_t>(i) + 1);
        Response response;
        for (;;) {
            response = Response();
            std::string error;
            bool called;
            {
                Span call(tracer, "service.callDaemon");
                called = pom::service::callDaemon(socket, request, response,
                                                  error, 0);
            }
            if (!called && response.status == "busy" &&
                out.retries < kBusyRetries) {
                ++out.retries;
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    response.retryAfterMs > 0 ? response.retryAfterMs
                                              : 100));
                continue;
            }
            if (!called)
                out.error = error;
            else if (response.status != "ok")
                out.error = "status " + response.status + ": " +
                            response.error;
            out.ok = called && response.status == "ok";
            break;
        }
        doneAt[i] = Clock::now();
        out.latencyMs = std::chrono::duration<double, std::milli>(
                            doneAt[i] - dueOf(i))
                            .count();
        out.execMs = response.seconds * 1000.0;
        out.latencyCycles = response.latencyCycles;
        out.dsp = response.dsp;
        out.irHash = std::hash<std::string>()(response.irOut);
    };

    std::vector<std::thread> clients;
    for (int c = 0; c < conns; ++c) {
        clients.emplace_back([&] {
            for (;;) {
                std::size_t i;
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    ready_cv.wait(lock,
                                  [&] { return !ready.empty() || closed; });
                    if (ready.empty())
                        return;
                    i = ready.front();
                    ready.pop_front();
                }
                try {
                    serve(i);
                } catch (const std::exception &e) {
                    outcomes[i].ok = false;
                    outcomes[i].error = e.what();
                }
            }
        });
    }
    for (std::size_t i = 0; i < sched.size(); ++i) {
        std::this_thread::sleep_until(dueOf(i));
        outcomes[i].lagMs = msSince(dueOf(i));
        {
            std::lock_guard<std::mutex> lock(mutex);
            ready.push_back(i);
        }
        ready_cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        closed = true;
    }
    ready_cv.notify_all();
    for (auto &t : clients)
        t.join();
    auto last = *std::max_element(doneAt.begin(), doneAt.end());
    return std::chrono::duration<double>(last - start).count();
}

/**
 * In-process answers the daemon's responses are checked against, one
 * per request key. Each is computed once per run, outside the timed
 * window, from empty caches: the daemon shares this process's caches,
 * so a warm reference would read back whatever the daemon stored.
 */
struct Reference
{
    std::map<std::string, std::pair<std::uint64_t, std::int64_t>> compiled;
    std::map<std::string, std::size_t> optimized;
};

/**
 * Correctness gate, outside the timed window: each compile response
 * must match a cold in-process autoDSE of the same request, each opt
 * response a cold in-process run of the same pipeline.
 */
Phase
checkOutcomes(const std::vector<DaemonRequest> &sched,
              const std::vector<Outcome> &outcomes,
              const std::map<std::string, std::string> &irTexts,
              const Config &config, double seconds, Reference &ref)
{
    Phase phase;
    phase.seconds = seconds;
    auto &compiled = ref.compiled;
    auto &optimized = ref.optimized;
    for (std::size_t i = 0; i < sched.size(); ++i) {
        const DaemonRequest &rq = sched[i];
        const Outcome &out = outcomes[i];
        Sample sample;
        sample.key = rq.key();
        sample.latencyMs = out.latencyMs;
        if (!out.ok) {
            fail(sample, "status", out.error);
            phase.samples.push_back(sample);
            continue;
        }
        if (rq.opt) {
            auto it = optimized.find(sample.key);
            if (it == optimized.end()) {
                resetCaches();
                it = optimized
                         .emplace(sample.key,
                                  std::hash<std::string>()(runPipeline(
                                      irTexts.at(rq.kernel), rq.pipeline)))
                         .first;
            }
            if (it->second != out.irHash)
                fail(sample, "daemon-parity", "opt output differs from an "
                                              "in-process pipeline run");
        } else {
            sample.qorCycles = out.latencyCycles;
            auto it = compiled.find(sample.key);
            if (it == compiled.end()) {
                resetCaches();
                pom::dse::DseOptions options;
                options.resourceFraction = rq.fraction;
                options.jobs = config.jobs;
                auto w = pom::workloads::makeByName(rq.kernel, rq.size);
                auto res = pom::dse::autoDSE(w->func(), options);
                it = compiled
                         .emplace(sample.key,
                                  std::make_pair(res.report.latencyCycles,
                                                 static_cast<std::int64_t>(
                                                     res.report.resources.dsp)))
                         .first;
            }
            if (it->second.first != out.latencyCycles ||
                it->second.second != out.dsp) {
                fail(sample, "daemon-parity",
                     "daemon latency=" + std::to_string(out.latencyCycles) +
                         " dsp=" + std::to_string(out.dsp) +
                         ", in-process latency=" +
                         std::to_string(it->second.first) +
                         " dsp=" + std::to_string(it->second.second));
            }
        }
        phase.samples.push_back(sample);
    }
    return phase;
}

} // namespace

WorkloadResult
runDaemonOpenLoop(const Args &args)
{
    Tracer &tracer = globalTracer();
    Config config;
    config.workers = std::max(1, args.nproc / 2);
    // The server refuses a request whose jobs exceed its workers, and
    // workers x jobs must not oversubscribe the CPUs.
    config.jobs =
        std::max(1, std::min(config.workers, args.nproc / config.workers));
    WorkloadResult result;
    result.sloMs = kDaemonSloMs;
    const fs::path root =
        fs::path(args.workDir) / ("daemon-" + std::to_string(::getpid()));
    const auto sched = schedule(args.seed, args.seconds);

    std::map<std::string, std::string> irTexts;
    std::unique_ptr<RunningServer> server;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (server)
            server->stop();
        auto t = Clock::now();
        irTexts = lowerIrTexts();
        server = setUp(root / ("setup" + std::to_string(rep)), config,
                       irTexts);
        result.setupSeconds.push_back(msSince(t) / 1000.0);
    }
    const fs::path live = root / ("setup" + std::to_string(kSetupReps - 1));
    std::vector<Outcome> outcomes;
    double seconds = runOpenLoop(sched, irTexts,
                                 (live / "pomd.sock").string(), config,
                                 args.nproc, tracer, outcomes);
    server->stop();
    Reference ref;
    result.untraced =
        checkOutcomes(sched, outcomes, irTexts, config, seconds, ref);

    if (args.trace) {
        // A fresh daemon, so the traced phase starts from the same
        // warm-loaded state as the untraced one.
        const fs::path dir = root / "traced";
        server = setUp(dir, config, irTexts);
        tracer.setEnabled(true);
        CacheCounters before = readCaches();
        seconds = runOpenLoop(sched, irTexts, (dir / "pomd.sock").string(),
                              config, args.nproc, tracer, outcomes);
        CacheCounters after = readCaches();
        tracer.setEnabled(false);
        server->stop();

        // Only compile responses carry the server's toolchain seconds,
        // so queue/exec split over compile frames; pass.opt_ms times
        // each opt frame's pipeline in-process on the daemon's warm
        // pipeline cache (before the gate below clears it).
        std::vector<double> queue, exec, lag, optMs;
        double busy = 0, retries = 0;
        for (std::size_t i = 0; i < sched.size(); ++i) {
            const Outcome &out = outcomes[i];
            lag.push_back(out.lagMs);
            busy += out.retries > 0 ? 1 : 0;
            retries += out.retries;
            if (!sched[i].opt) {
                queue.push_back(out.latencyMs - out.execMs);
                exec.push_back(out.execMs);
                continue;
            }
            auto t = Clock::now();
            runPipeline(irTexts.at(sched[i].kernel), sched[i].pipeline);
            optMs.push_back(msSince(t));
        }
        auto &layers = result.layers;
        layers["service.queue_ms_p50"] = percentile(queue, 0.5);
        layers["service.queue_ms_p90"] = percentile(queue, 0.9);
        layers["service.exec_ms_p50"] = percentile(exec, 0.5);
        layers["service.exec_ms_p90"] = percentile(exec, 0.9);
        layers["service.busy_frac"] =
            busy / static_cast<double>(sched.size());
        layers["service.retries"] = retries;
        layers["pass.opt_ms"] = median(optMs);
        layers["loadgen.lag_ms_p90"] = percentile(lag, 0.9);
        CacheTally caches;
        caches.add(before, after);
        caches.toLayers(layers);
        result.traced =
            checkOutcomes(sched, outcomes, irTexts, config, seconds, ref);

        // Spill warm-load probes on the traced daemon's final spill.
        std::string error;
        pom::hls::SpillStats stats;
        pom::support::CacheSpillStats pstats;
        resetCaches();
        auto t = Clock::now();
        bool loaded = pom::hls::EstimatorCache::global().loadDir(
                          (dir / "cache").string(), stats, error) &&
                      pom::hls::NodeReportCache::global().loadDir(
                          (dir / "cache").string(), stats, error);
        layers["hls.spill_load_ms"] = msSince(t);
        t = Clock::now();
        loaded = loaded && pom::pass::PipelineCache::global().loadDir(
                               (dir / "pipeline").string(), pstats, error);
        layers["pass.spill_load_ms"] = msSince(t);
        if (!loaded)
            pom::support::fatal("cannot reload the cache spill: " + error);
        resetCaches();
    }
    server.reset();
    std::error_code ec;
    fs::remove_all(root, ec);
    return result;
}

std::vector<std::string>
daemonKeys(std::uint64_t seed, double seconds)
{
    std::vector<std::string> keys;
    for (const auto &rq : schedule(seed, seconds)) {
        char due[32];
        std::snprintf(due, sizeof(due), "@%.3f", rq.dueMs);
        keys.push_back(rq.key() + due);
    }
    return keys;
}

} // namespace pombench
