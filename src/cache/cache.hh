/**
 * @file
 * A single set-associative cache (one level, or one L3 slice).
 *
 * The cache owns the tag array and, per set, one WayMask of valid ways
 * (bit w is way w, so the associativity is at most 64). That mask is the
 * only record of validity: lookups scan just its set bits, occupancy is
 * its popcount, and it is what every replacement call receives, already
 * including the way a fill inserted. Replacement decisions are delegated
 * to the cache's one Replacement engine, built from the configured
 * policy name, or from a DuelingConfig for an L3 that mixes leader and
 * follower sets (§VI-B3).
 *
 * Each access scans the set once. lookup() updates the hit state and
 * changes nothing on a miss; after a miss, fill() inserts the line
 * without scanning again (it picks the victim, counts the miss, eviction
 * and writeback, and returns the evicted line). probe() is for the
 * callers that must not touch replacement state.
 *
 * Sets are epoch-stamped. flushAll() (WBINVD) only advances the cache's
 * epoch; a set whose stamp is older reads as empty, and its valid mask
 * and replacement state are reset when it is next filled. A new cache
 * starts with every set stale, so a set's lines and replacement state
 * are first written on its first fill, and an untouched set never
 * becomes resident.
 */

#ifndef NB_CACHE_CACHE_HH
#define NB_CACHE_CACHE_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/policy.hh"
#include "common/types.hh"

namespace nb::cache
{

/** Geometry and policy of one cache. */
struct CacheConfig
{
    std::string name = "cache";
    Addr sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    Addr lineSize = kCacheLineSize;
    /** Replacement policy name (see Replacement); ignored if dueling is
     *  configured. */
    std::string policy = "LRU";
    /** Adaptive QLRU by set dueling (empty = fixed policy). */
    DuelingConfig dueling;
    /** L3 slice this cache is, for the dueling leader ranges. */
    unsigned slice = 0;

    unsigned numSets() const
    {
        return static_cast<unsigned>(sizeBytes / (lineSize * assoc));
    }
};

/** Hit/miss statistics. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t invalidations = 0;

    std::uint64_t accesses() const { return hits + misses; }

    bool operator==(const CacheStats &) const = default;
};

/** One set-associative cache. */
class Cache
{
  public:
    /**
     * @param rng Draws of the RANDOM and MRpx policies.
     * @param duel PSEL counter of a dueling cache; unused otherwise.
     * @throws nb::FatalError if the associativity is outside
     *         [1, kMaxAssoc] or the policy name is unknown.
     * @throws nb::PanicError for PLRU with a non-power-of-two
     *         associativity (see Replacement).
     */
    explicit Cache(const CacheConfig &config, Rng *rng = nullptr,
                   DuelState *duel = nullptr);

    const std::string &name() const { return config_.name; }
    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return config_.assoc; }
    Addr lineSize() const { return config_.lineSize; }

    /** Set index for an address. */
    unsigned setIndex(Addr addr) const;
    /** Tag for an address. */
    Addr tagOf(Addr addr) const;
    /** Reconstruct a line-aligned address from set and tag. */
    Addr addrOf(unsigned set, Addr tag) const;

    /** Hit check without touching any state. */
    bool probe(Addr addr) const;

    /**
     * Hit-only access: on a hit, marks the line dirty if @p write and
     * updates the hit count and the replacement state; on a miss,
     * changes nothing. Returns whether it hit.
     */
    bool lookup(Addr addr, bool write);

    /**
     * Insert a line the cache does not hold, replacing a victim if the
     * set is full. Only valid right after lookup() or probe() of the
     * same line missed; it does not scan the set (Debug builds assert
     * the line is absent).
     *
     * @param addr Byte address (any offset within the line).
     * @param write Marks the line dirty.
     * @return The line-aligned address of the evicted line, if any.
     */
    std::optional<Addr> fill(Addr addr, bool write);

    /** Invalidate one line if present; returns true if it was present. */
    bool invalidate(Addr addr);

    /** Invalidate everything (WBINVD); O(1), see the file comment. */
    void flushAll() { ++epoch_; }

    /** True if the given set is completely valid. */
    bool setFull(unsigned set) const;

    /** Number of valid lines in a set. */
    unsigned setOccupancy(unsigned set) const;

    /** Replacement state of a set, rendered for tests (see
     *  Replacement::state()); empty for a stale set. */
    std::string policyState(unsigned set) const
    {
        return stale(set) ? std::string() : replacement_.state(set);
    }

    const CacheStats &stats() const { return stats_; }
    void clearStats() { stats_ = CacheStats{}; }

  private:
    struct Line
    {
        Addr tag;
        bool dirty;
    };

    /** Per-set head: the epoch the set was last made current in (stamps
     *  start at 0, so a new cache is all stale) and its valid ways. */
    struct SetState
    {
        std::uint64_t epoch = 0;
        WayMask valid = 0;
    };

    bool stale(unsigned set) const { return sets_[set].epoch != epoch_; }
    /** Valid ways of a set; none if it is stale. */
    WayMask validWays(unsigned set) const
    {
        return stale(set) ? 0 : sets_[set].valid;
    }
    /** Make a stale set current and empty, resetting its replacement
     *  state (the out-of-line slow path of fill()). */
    void refresh(unsigned set);
    int findWay(unsigned set, Addr tag) const;
    Line *setLines(unsigned set) const
    {
        return &lines_[static_cast<std::size_t>(set) * config_.assoc];
    }

    CacheConfig config_;
    unsigned numSets_;
    unsigned offsetBits_;
    unsigned indexBits_;
    /** lines_[set * assoc + way]. Left uninitialized: a line is only
     *  read while its valid bit is set, and a fill writes it first, so
     *  a large cache keeps only its touched sets resident. */
    std::unique_ptr<Line[]> lines_;
    std::vector<SetState> sets_;
    Replacement replacement_;
    std::uint64_t epoch_ = 1;
    CacheStats stats_;
};

} // namespace nb::cache

#endif // NB_CACHE_CACHE_HH
