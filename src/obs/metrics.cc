/**
 * @file
 * Metrics registry implementation (see metrics.hh).
 */

#include "obs/metrics.hh"

#include <algorithm>
#include <optional>
#include <sstream>

#include <sys/resource.h>

#include "common/logging.hh"
#include "core/json.hh"
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

unsigned
phaseIndexFromName(const std::string &name)
{
    for (unsigned i = 0; i < kNumPhases; ++i) {
        if (name == phaseName(static_cast<Phase>(i)))
            return i;
    }
    return kNumPhases;
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

RegistrySnapshot
RegistrySnapshot::fromJson(const std::string &text)
{
    RegistrySnapshot snap;
    core::JsonCursor cur(text);
    cur.expect('{');
    if (!cur.tryConsume('}')) {
        do {
            std::string key = cur.parseString();
            cur.expect(':');
            if (key == "counters") {
                cur.expect('{');
                if (!cur.tryConsume('}')) {
                    do {
                        std::string name = cur.parseString();
                        cur.expect(':');
                        snap.counters.emplace_back(
                            name, static_cast<std::uint64_t>(
                                      cur.parseNumber()));
                    } while (cur.tryConsume(','));
                    cur.expect('}');
                }
            } else if (key == "gauges") {
                cur.expect('{');
                if (!cur.tryConsume('}')) {
                    do {
                        std::string name = cur.parseString();
                        cur.expect(':');
                        snap.gauges.emplace_back(name,
                                                 cur.parseNumber());
                    } while (cur.tryConsume(','));
                    cur.expect('}');
                }
            } else if (key == "histograms") {
                cur.expect('[');
                if (!cur.tryConsume(']')) {
                    do {
                        HistogramSnapshot h;
                        cur.expect('{');
                        do {
                            std::string field = cur.parseString();
                            cur.expect(':');
                            if (field == "name") {
                                h.name = cur.parseString();
                            } else if (field == "bounds") {
                                cur.expect('[');
                                if (!cur.tryConsume(']')) {
                                    do {
                                        h.bounds.push_back(
                                            cur.parseNumber());
                                    } while (cur.tryConsume(','));
                                    cur.expect(']');
                                }
                            } else if (field == "counts") {
                                cur.expect('[');
                                if (!cur.tryConsume(']')) {
                                    do {
                                        h.counts.push_back(
                                            static_cast<std::uint64_t>(
                                                cur.parseNumber()));
                                    } while (cur.tryConsume(','));
                                    cur.expect(']');
                                }
                            } else if (field == "sum") {
                                h.sum = cur.parseNumber();
                            } else {
                                cur.skipValue();
                            }
                        } while (cur.tryConsume(','));
                        cur.expect('}');
                        snap.histograms.push_back(std::move(h));
                    } while (cur.tryConsume(','));
                    cur.expect(']');
                }
            } else {
                cur.skipValue();
            }
        } while (cur.tryConsume(','));
        cur.expect('}');
    }
    cur.expectEnd();
    return snap;
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

RegistrySnapshot
RegistrySnapshot::fromCsv(const std::string &text)
{
    RegistrySnapshot snap;
    // name -> index into snap.histograms (rows of one histogram are
    // contiguous in our own output, but don't rely on it).
    auto histogramFor = [&](const std::string &name) -> HistogramSnapshot & {
        for (auto &h : snap.histograms) {
            if (h.name == name)
                return h;
        }
        snap.histograms.emplace_back();
        snap.histograms.back().name = name;
        return snap.histograms.back();
    };
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#' || line == "key,value")
            continue;
        auto fields = core::splitCsvRecord(line);
        if (fields.size() != 2)
            fatal("registry CSV: expected key,value row, got '", line,
                  "'");
        const std::string key = core::csvUnescape(fields[0]);
        const std::string &value = fields[1];
        if (key.starts_with("counter.")) {
            snap.counters.emplace_back(key.substr(8),
                                       std::stoull(value));
        } else if (key.starts_with("gauge.")) {
            snap.gauges.emplace_back(key.substr(6), std::stod(value));
        } else if (key.starts_with("hist.")) {
            std::size_t dot = key.rfind('.');
            if (dot == std::string::npos || dot <= 5)
                fatal("registry CSV: bad histogram key '", key, "'");
            std::string name = key.substr(5, dot - 5);
            std::string field = key.substr(dot + 1);
            HistogramSnapshot &h = histogramFor(name);
            auto indexed = [&](const char *prefix)
                -> std::optional<std::size_t> {
                std::string p(prefix);
                if (!field.starts_with(p))
                    return std::nullopt;
                return static_cast<std::size_t>(
                    std::stoull(field.substr(p.size())));
            };
            if (field == "sum") {
                h.sum = std::stod(value);
            } else if (auto b = indexed("bound_")) {
                if (h.bounds.size() <= *b)
                    h.bounds.resize(*b + 1);
                h.bounds[*b] = std::stod(value);
            } else if (auto c = indexed("count_")) {
                if (h.counts.size() <= *c)
                    h.counts.resize(*c + 1);
                h.counts[*c] = std::stoull(value);
            } else {
                fatal("registry CSV: bad histogram field '", key, "'");
            }
        } else {
            fatal("registry CSV: unknown key '", key, "'");
        }
    }
    return snap;
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
