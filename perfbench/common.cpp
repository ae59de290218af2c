#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "dse/dse.h"
#include "emit/hls_emitter.h"
#include "hls/estimator_cache.h"
#include "hls/node_cache.h"
#include "obs/obs.h"
#include "pass/pipeline_cache.h"
#include "workloads/workloads.h"

namespace pombench {

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    return n == 0 ? 0 : next() % n;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    Rng rng(Rng(seed).next() ^ (stream << 32) ^ index);
    return rng.next();
}

// ----- tracer --------------------------------------------------------------

namespace {

thread_local std::vector<std::int64_t> t_stack;

int
threadNumber()
{
    static std::atomic<int> next{0};
    thread_local int id = next.fetch_add(1) + 1;
    return id;
}

std::string
layerOf(const std::string &name)
{
    auto dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

} // namespace

Tracer &
globalTracer()
{
    static Tracer tracer;
    return tracer;
}

std::int64_t
Tracer::begin(const char *name, std::int64_t request)
{
    Record rec;
    rec.name = name;
    rec.request = request;
    rec.parent = t_stack.empty() ? -1 : t_stack.back();
    rec.thread = threadNumber();
    rec.beginUs = std::chrono::duration<double, std::micro>(
                      Clock::now() - epoch_)
                      .count();
    std::lock_guard<std::mutex> lock(mutex_);
    if (rec.request == 0 && rec.parent >= 0)
        rec.request = records_[rec.parent].request;
    records_.push_back(std::move(rec));
    std::int64_t index = static_cast<std::int64_t>(records_.size()) - 1;
    t_stack.push_back(index);
    return index;
}

void
Tracer::end(std::int64_t index)
{
    double now = std::chrono::duration<double, std::micro>(Clock::now() -
                                                          epoch_)
                     .count();
    if (!t_stack.empty() && t_stack.back() == index)
        t_stack.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    records_[index].endUs = now;
}

std::map<std::string, Tracer::LayerTime>
Tracer::layerTimes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Children always nest on their parent's thread, so a span's self
    // time is its duration minus the summed durations of its children.
    std::vector<double> childUs(records_.size(), 0.0);
    for (const auto &rec : records_) {
        if (rec.parent >= 0)
            childUs[rec.parent] += rec.endUs - rec.beginUs;
    }
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &rec = records_[i];
        double selfMs = (rec.endUs - rec.beginUs - childUs[i]) / 1e3;
        bool inRequest = false;
        for (std::int64_t p = static_cast<std::int64_t>(i); p >= 0;
             p = records_[p].parent) {
            if (records_[p].name == "request")
                inRequest = true;
        }
        LayerTime &lt = out[layerOf(rec.name)];
        ++lt.spans;
        lt.selfMs += selfMs;
        if (inRequest)
            lt.inRequestMs += selfMs;
    }
    return out;
}

double
Tracer::requestMs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double total = 0.0;
    for (const auto &rec : records_) {
        if (rec.name == "request")
            total += (rec.endUs - rec.beginUs) / 1e3;
    }
    return total;
}

bool
Tracer::writeJson(const std::string &path, std::string &error) const
{
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const Record &rec = records_[i];
            if (i > 0)
                os << ",";
            char times[96];
            std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                          rec.beginUs, rec.endUs - rec.beginUs);
            os << "{\"name\":\"" << pom::obs::jsonEscape(rec.name)
               << "\",\"cat\":\"" << pom::obs::jsonEscape(layerOf(rec.name))
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << rec.thread << ","
               << times << ",\"args\":{\"request\":" << rec.request
               << ",\"span\":" << i << ",\"parent\":" << rec.parent
               << "}}";
        }
    }
    os << "]}\n";
    if (!pom::obs::writeFile(path, os.str())) {
        error = "cannot write " + path;
        return false;
    }
    return true;
}

// ----- samples and statistics ------------------------------------------------

void
fail(Sample &sample, const std::string &check, const std::string &detail)
{
    if (!sample.ok)
        return;
    sample.ok = false;
    sample.failure = check + ": " + detail;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(std::max(v, 1e-9));
    return std::exp(logSum / static_cast<double>(values.size()));
}

// ----- caches ----------------------------------------------------------------

namespace {

/** Cache names in CacheCounters order, as used in metric names. */
const char *const kCacheNames[3] = {"hls.estimator_cache",
                                    "hls.node_cache",
                                    "pass.pipeline_cache"};

} // namespace

CacheCounters
readCaches()
{
    auto &est = pom::hls::EstimatorCache::global();
    auto &nodes = pom::hls::NodeReportCache::global();
    auto &pipe = pom::pass::PipelineCache::global();
    CacheCounters c;
    c.hits[0] = est.hits();
    c.misses[0] = est.misses();
    c.size[0] = est.size();
    c.hits[1] = nodes.hits();
    c.misses[1] = nodes.misses();
    c.size[1] = nodes.size();
    c.hits[2] = pipe.hits();
    c.misses[2] = pipe.misses();
    c.size[2] = pipe.size();
    return c;
}

std::string
resetCaches()
{
    pom::hls::EstimatorCache::global().clear();
    pom::hls::NodeReportCache::global().clear();
    pom::pass::PipelineCache::global().clear();
    CacheCounters after = readCaches();
    std::string left;
    for (int i = 0; i < 3; ++i) {
        if (after.size[i] != 0) {
            left += std::string(left.empty() ? "" : ", ") + kCacheNames[i] +
                    " holds " + std::to_string(after.size[i]) +
                    " entries after clear()";
        }
    }
    return left;
}

void
CacheTally::add(const CacheCounters &before, const CacheCounters &after)
{
    for (int i = 0; i < 3; ++i) {
        hits[i] += after.hits[i] - before.hits[i];
        misses[i] += after.misses[i] - before.misses[i];
        peak[i] = std::max(peak[i], after.size[i]);
    }
}

void
CacheTally::toLayers(std::map<std::string, double> &layers) const
{
    for (int i = 0; i < 3; ++i) {
        double lookups = static_cast<double>(hits[i] + misses[i]);
        std::string name = kCacheNames[i];
        layers[name + ".hit_rate"] =
            lookups > 0 ? static_cast<double>(hits[i]) / lookups : 0.0;
        layers[name + ".entries"] = static_cast<double>(peak[i]);
    }
}

bool
isDnn(const std::string &kernel)
{
    return kernel == "vgg16" || kernel == "resnet18";
}

std::vector<std::string>
smallKernels()
{
    std::vector<std::string> out;
    for (const auto &name : pom::workloads::allNames())
        if (!isDnn(name))
            out.push_back(name);
    return out;
}

void
compileUntimed(const std::string &kernel, std::int64_t size, double fraction,
               pom::dse::StrategyKind strategy, int jobs)
{
    pom::dse::DseOptions options;
    options.resourceFraction = fraction;
    options.strategy = strategy;
    options.jobs = jobs;
    auto w = pom::workloads::makeByName(kernel, size);
    auto res = pom::dse::autoDSE(w->func(), options);
    pom::emit::emitHlsC(*res.design.func);
}

} // namespace pombench
