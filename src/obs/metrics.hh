/**
 * @file
 * Process-wide metrics registry for the engine layer.
 *
 * The library's runtime visibility used to end at EngineTelemetry's
 * six cache counters. This registry generalizes that: named counters
 * (monotonic), gauges (last-seen values), and fixed-boundary
 * histograms, registered once and updated lock-free afterwards --
 * instrument handles are plain atomics, so the hot paths (the Runner's
 * per-phase timing, the campaign workers) pay one relaxed atomic op
 * per update and never touch the registry mutex after registration.
 *
 * A snapshot() freezes everything into a RegistrySnapshot that
 * serializes to JSON (round-trippable via fromJson) and CSV in the
 * BenchmarkResult "key,value" dialect (round-trippable via fromCsv);
 * both round-trips are exact (integers verbatim, doubles via
 * core::exactDouble). EngineTelemetry is absorbed as a view:
 * publishEngineTelemetry() mirrors a telemetry snapshot into gauges,
 * so one registry dump covers the caches, the pool, and the per-phase
 * runner timing the Runner records (see Phase below).
 */

#ifndef NB_OBS_METRICS_HH
#define NB_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace nb
{
struct EngineTelemetry;
} // namespace nb

namespace nb::obs
{

/**
 * The phases of one Runner::run() / runSpecOnRunner() call, in
 * pipeline order. Assemble happens in the session layer
 * (runSpecOnRunner memoizes the parse and credits the runner); the
 * other four are timed inside Runner::run itself. Codegen and Decode
 * run once per (round, unroll-version) per run, whatever the
 * measurement count.
 */
enum class Phase : std::uint8_t
{
    Codegen,   ///< building the measurement-code segments
    Assemble,  ///< parsing asm text (session layer, memoized)
    Decode,    ///< sim::Program::decode of the generated segments
    Execute,   ///< warm-up + measurement executions on the machine
    Aggregate, ///< applyAggregate over the raw measurement vectors
};

/** Number of Phase enumerators (array sizing). */
inline constexpr unsigned kNumPhases = 5;

/** Human-readable phase name ("codegen", "assemble", ...). */
const char *phaseName(Phase phase);

/** Inverse of phaseName(); nullopt-free: returns kNumPhases for
 *  unknown names (callers range-check). */
unsigned phaseIndexFromName(const std::string &name);

/** Wall-clock nanoseconds per phase; a value type that campaign
 *  reports aggregate and serialize (integral, so round-trips are
 *  exact). */
struct PhaseTimes
{
    std::array<std::uint64_t, kNumPhases> ns{};

    std::uint64_t &operator[](Phase p)
    {
        return ns[static_cast<unsigned>(p)];
    }
    std::uint64_t operator[](Phase p) const
    {
        return ns[static_cast<unsigned>(p)];
    }

    PhaseTimes &operator+=(const PhaseTimes &other)
    {
        for (unsigned i = 0; i < kNumPhases; ++i)
            ns[i] += other.ns[i];
        return *this;
    }

    std::uint64_t totalNs() const
    {
        std::uint64_t total = 0;
        for (std::uint64_t v : ns)
            total += v;
        return total;
    }

    bool operator==(const PhaseTimes &) const = default;
};

/** A monotonic counter. Handles stay valid for the registry's
 *  lifetime; add() is one relaxed atomic. */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    std::atomic<std::uint64_t> value_{0};
};

/** A last-seen value. set()/value() are single relaxed atomics. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    std::atomic<double> value_{0.0};
};

/**
 * A histogram with fixed bucket boundaries (set at registration,
 * immutable after). observe(v) lands in the first bucket whose upper
 * bound is >= v; values above the last boundary land in the implicit
 * overflow bucket, so counts() has bounds().size() + 1 entries. The
 * running sum makes averages recoverable from a snapshot.
 */
class Histogram
{
  public:
    void observe(double v);

    const std::vector<double> &bounds() const { return bounds_; }
    /** Per-bucket counts (bounds().size() + 1 entries). */
    std::vector<std::uint64_t> counts() const;
    std::uint64_t totalCount() const;
    double sum() const;

  private:
    friend class Registry;
    explicit Histogram(std::vector<double> bounds);

    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> counts_;
    std::atomic<double> sum_{0.0};
};

/** One frozen histogram (RegistrySnapshot). */
struct HistogramSnapshot
{
    std::string name;
    std::vector<double> bounds;
    /** bounds.size() + 1 entries; the last is the overflow bucket. */
    std::vector<std::uint64_t> counts;
    double sum = 0.0;

    std::uint64_t totalCount() const;

    bool operator==(const HistogramSnapshot &) const = default;
};

/**
 * Everything a Registry held at one instant, sorted by instrument
 * name (snapshots of the same state compare equal regardless of
 * registration order).
 */
struct RegistrySnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistogramSnapshot> histograms;

    bool operator==(const RegistrySnapshot &) const = default;

    /** Serialize to a self-contained JSON object; fromJson inverse
     *  (exact: integers verbatim, doubles via core::exactDouble). */
    std::string toJson() const;
    static RegistrySnapshot fromJson(const std::string &text);

    /** Serialize to CSV ("key,value" rows, the BenchmarkResult
     *  dialect); fromCsv inverse (exact). */
    std::string toCsv() const;
    static RegistrySnapshot fromCsv(const std::string &text);

    /** Human-readable multi-line summary (the CLI -stats dump). */
    std::string format() const;
};

/**
 * A named-instrument registry. counter()/gauge()/histogram() register
 * on first use and return a stable reference; subsequent calls with
 * the same name return the same instrument (a histogram's boundaries
 * come from the first registration). Registration takes the registry
 * mutex; updates through the returned handles never do.
 *
 * Most code uses the process-wide instance (process()); tests build
 * private registries.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name,
                         std::vector<double> bounds);

    /** Freeze every instrument into a serializable snapshot. */
    RegistrySnapshot snapshot() const;

    /** Zero every instrument (handles stay valid; histograms keep
     *  their boundaries). Benches use this to open a clean window. */
    void reset();

    /** The process-wide registry. */
    static Registry &process();

  private:
    template <typename T>
    using Instruments =
        std::vector<std::pair<std::string, std::unique_ptr<T>>>;

    mutable std::mutex mutex_;
    Instruments<Counter> counters_;
    Instruments<Gauge> gauges_;
    Instruments<Histogram> histograms_;
};

/**
 * Mirror an EngineTelemetry snapshot into @p registry as gauges named
 * "engine.pool_size", "engine.program_cache.misses", ... -- the
 * telemetry struct stays the typed API; the registry absorbs it as a
 * view so one dump covers everything. Also sets the
 * "process.peak_rss_mb" gauge (getrusage ru_maxrss), so the same dump
 * shows what the run cost in memory.
 */
void publishEngineTelemetry(const EngineTelemetry &telemetry,
                            Registry &registry);

/** The bucket boundaries (nanoseconds, decade-spaced 1µs..1s) of the
 *  per-phase runner-timing histograms "runner.phase.<name>". */
const std::vector<double> &phaseHistogramBounds();

} // namespace nb::obs

#endif // NB_OBS_METRICS_HH
