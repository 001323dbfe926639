/**
 * @file
 * A single set-associative cache (one level, or one L3 slice).
 *
 * The cache owns the tag array and valid bits; replacement decisions are
 * delegated to a per-set SetPolicy instance produced by a factory, which
 * lets the L3 mix leader and follower sets for set dueling (§VI-B3).
 *
 * Sets are epoch-stamped. flushAll() (WBINVD) only advances the cache's
 * epoch; a set whose stamp is older reads as empty and is reset when it
 * is next filled. A new cache starts with every set stale, so a set's
 * policy and valid-bit row are built, and its lines zeroed, on its
 * first fill, not up front.
 */

#ifndef NB_CACHE_CACHE_HH
#define NB_CACHE_CACHE_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/policy.hh"
#include "common/types.hh"

namespace nb::cache
{

/** Constructs the replacement policy for a given set index. */
using PolicyFactory =
    std::function<std::unique_ptr<SetPolicy>(unsigned set)>;

/** Geometry and policy of one cache. */
struct CacheConfig
{
    std::string name = "cache";
    Addr sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    Addr lineSize = kCacheLineSize;
    PolicyFactory policyFactory;

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
};

/** Result of an access to one cache. */
struct LineAccessResult
{
    bool hit = false;
    unsigned set = 0;
    unsigned way = 0;
    /** Address of a line evicted to make room (fills only). */
    std::optional<Addr> evicted;
    /** The evicted line was dirty (needs writeback). */
    bool evictedDirty = false;
};

/** One set-associative cache. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

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
     * Access a line: on a hit, updates the replacement state; on a miss,
     * fills the line (replacing a victim if the set is full).
     *
     * @param addr Byte address (any offset within the line).
     * @param write Marks the line dirty.
     */
    LineAccessResult access(Addr addr, bool write);

    /**
     * Access that does NOT allocate on a miss (used for probes that model
     * uncached traffic).
     */
    LineAccessResult accessNoAlloc(Addr addr, bool write);

    /** Invalidate one line if present; returns true if it was present. */
    bool invalidate(Addr addr);

    /** Invalidate everything (WBINVD); O(1), see the file comment. */
    void flushAll() { ++epoch_; }

    /** True if the given set is completely valid. */
    bool setFull(unsigned set) const;

    /** Number of valid lines in a set. */
    unsigned setOccupancy(unsigned set) const;

    const CacheStats &stats() const { return stats_; }
    void clearStats() { stats_ = CacheStats{}; }

  private:
    struct Line
    {
        Addr tag;
        bool valid;
        bool dirty;
    };

    bool stale(unsigned set) const { return setEpoch_[set] != epoch_; }
    /** Make a stale set current and empty, building it on first use
     *  (the out-of-line slow path of access()). */
    void refresh(unsigned set);
    std::unique_ptr<SetPolicy> makeSetPolicy(unsigned set) const;
    int findWay(unsigned set, Addr tag) const;

    CacheConfig config_;
    unsigned numSets_;
    unsigned offsetBits_;
    unsigned indexBits_;
    /** lines_[set * assoc + way]. Left uninitialized: a set's lines are
     *  only read once refresh() has zeroed them, so a large cache
     *  keeps only its touched sets resident. */
    std::unique_ptr<Line[]> lines_;
    /** validBits_[set][way]; the view handed to policies. Empty, like
     *  policies_[set], until the set is first filled. */
    std::vector<std::vector<bool>> validBits_;
    std::vector<std::unique_ptr<SetPolicy>> policies_;
    /** Epoch each set was last made current in; stamps start at 0. */
    std::vector<std::uint64_t> setEpoch_;
    std::uint64_t epoch_ = 1;
    CacheStats stats_;
};

} // namespace nb::cache

#endif // NB_CACHE_CACHE_HH
