/**
 * @file
 * Metrics registry implementation (see metrics.hh).
 */

#include "obs/metrics.hh"

#include <algorithm>
#include <sstream>

#include <sys/resource.h>

#include "common/logging.hh"
#include "core/result.hh"
#include "core/telemetry.hh"

namespace nb::obs
{

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Codegen: return "codegen";
      case Phase::Assemble: return "assemble";
      case Phase::Decode: return "decode";
      case Phase::Execute: return "execute";
      case Phase::Aggregate: return "aggregate";
    }
    return "?";
}

// --------------------------------------------------------- histogram --

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1)
{
    NB_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()),
              "histogram boundaries must be sorted");
}

void
Histogram::observe(double v)
{
    // Linear scan: boundary lists are short (the phase histograms use
    // seven decades) and the branch pattern is predictable.
    std::size_t bucket = 0;
    while (bucket < bounds_.size() && v > bounds_[bucket])
        ++bucket;
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
}

std::vector<std::uint64_t>
Histogram::counts() const
{
    std::vector<std::uint64_t> out(counts_.size());
    for (std::size_t i = 0; i < counts_.size(); ++i)
        out[i] = counts_[i].load(std::memory_order_relaxed);
    return out;
}

std::uint64_t
Histogram::totalCount() const
{
    std::uint64_t total = 0;
    for (const auto &c : counts_)
        total += c.load(std::memory_order_relaxed);
    return total;
}

double
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

std::uint64_t
HistogramSnapshot::totalCount() const
{
    std::uint64_t total = 0;
    for (std::uint64_t c : counts)
        total += c;
    return total;
}

// ---------------------------------------------------------- registry --

namespace
{

/** Find-or-insert into a name->instrument vector (small, registered
 *  once; linear scan keeps iteration deterministic for snapshots). */
template <typename T, typename Make>
T &
findOrInsert(std::vector<std::pair<std::string, std::unique_ptr<T>>> &v,
             const std::string &name, Make make)
{
    for (auto &[n, inst] : v) {
        if (n == name)
            return *inst;
    }
    v.emplace_back(name, make());
    return *v.back().second;
}

} // namespace

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return findOrInsert(counters_, name,
                        [] { return std::make_unique<Counter>(); });
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return findOrInsert(gauges_, name,
                        [] { return std::make_unique<Gauge>(); });
}

Histogram &
Registry::histogram(const std::string &name, std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return findOrInsert(histograms_, name, [&] {
        return std::unique_ptr<Histogram>(
            new Histogram(std::move(bounds)));
    });
}

RegistrySnapshot
Registry::snapshot() const
{
    RegistrySnapshot snap;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, c] : counters_)
        snap.counters.emplace_back(name, c->value());
    for (const auto &[name, g] : gauges_)
        snap.gauges.emplace_back(name, g->value());
    for (const auto &[name, h] : histograms_) {
        HistogramSnapshot hs;
        hs.name = name;
        hs.bounds = h->bounds();
        hs.counts = h->counts();
        hs.sum = h->sum();
        snap.histograms.push_back(std::move(hs));
    }
    auto byName = [](const auto &a, const auto &b) {
        return a.first < b.first;
    };
    std::sort(snap.counters.begin(), snap.counters.end(), byName);
    std::sort(snap.gauges.begin(), snap.gauges.end(), byName);
    std::sort(snap.histograms.begin(), snap.histograms.end(),
              [](const auto &a, const auto &b) { return a.name < b.name; });
    return snap;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, c] : counters_)
        c->value_.store(0, std::memory_order_relaxed);
    for (auto &[name, g] : gauges_)
        g->value_.store(0.0, std::memory_order_relaxed);
    for (auto &[name, h] : histograms_) {
        for (auto &bucket : h->counts_)
            bucket.store(0, std::memory_order_relaxed);
        h->sum_.store(0.0, std::memory_order_relaxed);
    }
}

Registry &
Registry::process()
{
    static Registry registry;
    return registry;
}

// ------------------------------------------------------ serialization --

std::string
RegistrySnapshot::toJson() const
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"counters\": {";
    for (std::size_t i = 0; i < counters.size(); ++i) {
        os << (i ? ", " : "") << "\""
           << core::jsonEscape(counters[i].first)
           << "\": " << counters[i].second;
    }
    os << "},\n";
    os << "  \"gauges\": {";
    for (std::size_t i = 0; i < gauges.size(); ++i) {
        os << (i ? ", " : "") << "\"" << core::jsonEscape(gauges[i].first)
           << "\": " << core::exactDouble(gauges[i].second);
    }
    os << "},\n";
    os << "  \"histograms\": [";
    for (std::size_t i = 0; i < histograms.size(); ++i) {
        const HistogramSnapshot &h = histograms[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"name\": \"" << core::jsonEscape(h.name)
           << "\", \"bounds\": [";
        for (std::size_t b = 0; b < h.bounds.size(); ++b)
            os << (b ? ", " : "") << core::exactDouble(h.bounds[b]);
        os << "], \"counts\": [";
        for (std::size_t b = 0; b < h.counts.size(); ++b)
            os << (b ? ", " : "") << h.counts[b];
        os << "], \"sum\": " << core::exactDouble(h.sum) << "}";
    }
    os << (histograms.empty() ? "]\n" : "\n  ]\n");
    os << "}\n";
    return os.str();
}

std::string
RegistrySnapshot::toCsv() const
{
    std::ostringstream os;
    os << "# metrics registry\n";
    os << "key,value\n";
    for (const auto &[name, value] : counters)
        os << core::csvEscape("counter." + name) << "," << value << "\n";
    for (const auto &[name, value] : gauges)
        os << core::csvEscape("gauge." + name) << ","
           << core::exactDouble(value) << "\n";
    for (const HistogramSnapshot &h : histograms) {
        for (std::size_t b = 0; b < h.bounds.size(); ++b) {
            os << core::csvEscape("hist." + h.name + ".bound_" +
                                  std::to_string(b))
               << "," << core::exactDouble(h.bounds[b]) << "\n";
        }
        for (std::size_t b = 0; b < h.counts.size(); ++b) {
            os << core::csvEscape("hist." + h.name + ".count_" +
                                  std::to_string(b))
               << "," << h.counts[b] << "\n";
        }
        os << core::csvEscape("hist." + h.name + ".sum") << ","
           << core::exactDouble(h.sum) << "\n";
    }
    return os.str();
}

std::string
RegistrySnapshot::format() const
{
    std::ostringstream os;
    os << "metrics registry:\n";
    for (const auto &[name, value] : counters)
        os << "  " << name << ": " << value << "\n";
    for (const auto &[name, value] : gauges)
        os << "  " << name << ": " << core::exactDouble(value) << "\n";
    for (const HistogramSnapshot &h : histograms) {
        std::uint64_t n = h.totalCount();
        os << "  " << h.name << ": " << n << " samples";
        if (n != 0) {
            os << ", mean " << core::exactDouble(h.sum /
                                                 static_cast<double>(n));
        }
        os << "\n";
    }
    return os.str();
}

// ------------------------------------------------------------- views --

void
publishEngineTelemetry(const EngineTelemetry &telemetry,
                       Registry &registry)
{
    auto set = [&](const char *name, std::uint64_t value) {
        registry.gauge(name).set(static_cast<double>(value));
    };
    set("engine.pool_size", telemetry.poolSize);
    set("engine.machines_constructed", telemetry.machinesConstructed);
    set("engine.pool_hits", telemetry.poolHits);
    set("engine.program_cache.hits", telemetry.program.hits);
    set("engine.program_cache.misses", telemetry.program.misses);
    set("engine.program_cache.evictions", telemetry.program.evictions);
    set("engine.assemble_cache.hits", telemetry.assemble.hits);
    set("engine.assemble_cache.misses", telemetry.assemble.misses);
    set("engine.assemble_cache.evictions",
        telemetry.assemble.evictions);
    set("engine.lint_cache.hits", telemetry.lint.hits);
    set("engine.lint_cache.misses", telemetry.lint.misses);
    set("engine.lint_cache.evictions", telemetry.lint.evictions);
    // Peak resident set of the whole process so far (Linux reports
    // ru_maxrss in KiB).
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    registry.gauge("process.peak_rss_mb")
        .set(static_cast<double>(usage.ru_maxrss) / 1024.0);
}

const std::vector<double> &
phaseHistogramBounds()
{
    // Decade-spaced 1µs .. 1s, in nanoseconds: phase durations span
    // microseconds (aggregate) to near-seconds (big executes).
    static const std::vector<double> bounds = {1e3, 1e4, 1e5, 1e6,
                                               1e7, 1e8, 1e9};
    return bounds;
}

} // namespace nb::obs
