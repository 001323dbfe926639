/**
 * @file
 * Unified cache telemetry for the engine layer.
 *
 * Every cache of the engine layer is an nb::Memo (core/memo.hh) and
 * reports an nb::CacheStats: the session-layer assembly memo and the
 * lint memo. Engine::telemetry() snapshots them -- plus the machine
 * pool counters and the measurement-program decode count -- into one
 * EngineTelemetry that serializes to JSON and CSV (the BenchmarkResult
 * dialect).
 */

#ifndef NB_CORE_TELEMETRY_HH
#define NB_CORE_TELEMETRY_HH

#include <cstdint>
#include <string>

namespace nb
{

/** Hit/miss counters of one cache. A "miss" is a lookup that had to
 *  build/parse/analyze the entry; a "hit" was served from the cache.
 *  Bounded caches also count evicted entries: the clear-when-full
 *  policy drops the whole map, so a nonzero eviction count explains
 *  what would otherwise read as an inexplicable miss storm. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    bool operator==(const CacheStats &) const = default;
};

/**
 * One snapshot of every cache and pool counter the engine layer
 * maintains (Engine::telemetry()). The pool counters are per-engine;
 * the assembly and lint memos are process-wide singletons, so their
 * numbers aggregate over every engine in the process.
 */
struct EngineTelemetry
{
    /** Machines currently pooled (Engine::poolSize()). */
    std::uint64_t poolSize = 0;
    /** Machines constructed over the engine's lifetime. */
    std::uint64_t machinesConstructed = 0;
    /** session() calls served from the pool. */
    std::uint64_t poolHits = 0;
    /** Measurement programs decoded by the engine's runners, in the
     *  cache shape for continuity: misses counts decodes; hits and
     *  evictions are always 0, because a decoded program lives only as
     *  long as the Runner::run that built it. */
    CacheStats program;
    /** Process-wide assembly memo (parses are misses). */
    CacheStats assemble;
    /** Process-wide lint memo (analyses are misses). */
    CacheStats lint;

    /** Serialize to a self-contained JSON object. */
    std::string toJson() const;

    /** Serialize to CSV ("key,value" rows, the BenchmarkResult
     *  dialect). */
    std::string toCsv() const;
};

} // namespace nb

#endif // NB_CORE_TELEMETRY_HH
