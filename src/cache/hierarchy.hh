/**
 * @file
 * Three-level cache hierarchy with a sliced last-level cache.
 *
 * Models the structure the paper's cache case study targets (§VI-A):
 * per-core L1D and L2, and an inclusive L3 divided into slices managed by
 * C-Boxes, with an XOR-parity hash of the physical address selecting the
 * slice. Each C-Box exposes uncore performance counters (lookups/hits/
 * misses). Hardware prefetchers (L2 streamer, L2 adjacent-line, DCU
 * next-line) can be disabled through a model-specific register, mirroring
 * MSR 0x1A4 on Intel CPUs (§IV-A2).
 */

#ifndef NB_CACHE_HIERARCHY_HH
#define NB_CACHE_HIERARCHY_HH

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "cache/dueling.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace nb::cache
{

/** Geometry and policy of one cache level. */
struct LevelConfig
{
    Addr sizeBytes = 0;
    unsigned assoc = 0;
    /** Policy name (see makePolicy); ignored if dueling is configured. */
    std::string policy = "LRU";
};

/** Configuration of the whole hierarchy. */
struct HierarchyConfig
{
    LevelConfig l1;
    LevelConfig l2;
    LevelConfig l3;
    /** Number of L3 slices; l3.sizeBytes is the total across slices. */
    unsigned l3Slices = 1;
    /**
     * XOR-parity masks for the undocumented slice hash (§VI-A): slice-
     * select bit i = parity(paddr & sliceHashMasks[i]). Must provide
     * log2(l3Slices) masks; empty selects a default.
     */
    std::vector<Addr> sliceHashMasks;
    /** Adaptive L3 replacement (empty = fixed l3.policy). */
    DuelingConfig l3Dueling;

    Cycles l1Latency = 4;
    Cycles l2Latency = 12;
    Cycles l3Latency = 42;
    Cycles memLatency = 200;

    /**
     * Whether the prefetcher-control MSR is implemented. The paper could
     * not disable prefetchers on AMD CPUs (§VI-D), which excluded them
     * from the cache case study; modelled by this flag.
     */
    bool prefetcherDisableSupported = true;
    /** Initial prefetcher-control value (0 = all enabled). */
    std::uint64_t prefetcherControlInit = 0;
};

/** Where an access was satisfied. */
enum class HitLevel : std::uint8_t
{
    L1,
    L2,
    L3,
    Memory,
};

/** Kind of memory access. */
enum class AccessType : std::uint8_t
{
    Load,
    Store,
    PrefetchT0,  ///< software prefetch into L1
    PrefetchNTA, ///< software prefetch, non-temporal
};

/** Outcome of a demand access. */
struct AccessResult
{
    HitLevel level = HitLevel::Memory;
    Cycles latency = 0;
    /** L3 slice consulted; only meaningful if the request reached L3. */
    unsigned slice = 0;
    bool reachedL3 = false;
};

/** Per-C-Box (per-slice) uncore counters (§II-B). */
struct CboxStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

/** Prefetcher-control MSR bits (mirrors Intel MSR 0x1A4). */
namespace pf
{
inline constexpr std::uint64_t kDisableL2Streamer = 1ULL << 0;
inline constexpr std::uint64_t kDisableL2Adjacent = 1ULL << 1;
inline constexpr std::uint64_t kDisableDcu = 1ULL << 2;
inline constexpr std::uint64_t kDisableDcuIp = 1ULL << 3;
inline constexpr std::uint64_t kDisableAll = 0xF;
} // namespace pf

/** The modelled memory hierarchy of one core + shared L3. */
class Hierarchy
{
  public:
    Hierarchy(const HierarchyConfig &config, Rng *rng);

    /** Perform a demand access (or software prefetch). */
    AccessResult access(Addr paddr, AccessType type);

    /** Flush and invalidate all caches (WBINVD, §VI-C). */
    void wbinvd();

    /**
     * Back to the just-constructed state: wbinvd() (O(1) per cache),
     * zeroed cache and C-Box statistics and the initial PSEL. The
     * prefetcher control is MSR state and stays; Machine::reset()
     * restores it from the machine's reset point.
     */
    void reset();

    /** Invalidate one line everywhere (CLFLUSH). */
    void clflush(Addr paddr);

    /** Slice selected by the (undocumented) hash for an address. */
    unsigned sliceOf(Addr paddr) const;

    /** Prefetcher-control MSR access. */
    std::uint64_t prefetcherControl() const { return pfControl_; }
    void setPrefetcherControl(std::uint64_t value);
    bool prefetcherDisableSupported() const
    {
        return config_.prefetcherDisableSupported;
    }

    Cache &l1() { return *l1_; }
    Cache &l2() { return *l2_; }
    Cache &l3Slice(unsigned i) { return *l3_[i]; }
    const Cache &l1() const { return *l1_; }
    const Cache &l2() const { return *l2_; }
    const Cache &l3Slice(unsigned i) const { return *l3_[i]; }
    unsigned numSlices() const { return static_cast<unsigned>(l3_.size()); }

    const CboxStats &cboxStats(unsigned slice) const
    {
        return cboxStats_[slice];
    }
    void clearStats();

    DuelState &duelState() { return duel_; }
    const HierarchyConfig &config() const { return config_; }

  private:
    /** Fill path on an L3 miss, back-invalidating the L3 victim. */
    void fillL3(Addr paddr, bool write, unsigned slice);
    /** Prefetch-side L3 step: a C-Box-counted lookup, filled on a miss. */
    void lookupOrFillL3(Addr paddr);
    void fillL2(Addr paddr, bool write);
    void fillL1(Addr paddr, bool write);

    /** Prefetch a line into L2 (+L3 for inclusion); no demand counters. */
    void prefetchIntoL2(Addr paddr);
    /** Prefetch a line into L1/L2/L3. */
    void prefetchIntoL1(Addr paddr);

    /** Hardware-prefetcher hooks, called on demand accesses. */
    void runL1Prefetchers(Addr paddr, bool l1_miss);
    void runL2Prefetchers(Addr paddr);

    /** Handle the back-invalidation required by L3 inclusivity. */
    void backInvalidate(Addr evicted_line);

    PolicyFactory makeFactory(const LevelConfig &level, bool is_l3,
                              unsigned slice);

    HierarchyConfig config_;
    Rng *rng_;
    std::unique_ptr<Cache> l1_;
    std::unique_ptr<Cache> l2_;
    std::vector<std::unique_ptr<Cache>> l3_;
    std::vector<CboxStats> cboxStats_;
    DuelState duel_;
    std::uint64_t pfControl_ = 0;

    /** L2 streamer state: page frame -> last line index within page. */
    struct StreamEntry
    {
        int lastLine = -1;
        int direction = 0;
        unsigned confidence = 0;
    };
    std::unordered_map<Addr, StreamEntry> streamTable_;
    /** Guards against recursive prefetching. */
    bool inPrefetch_ = false;
};

/** Default slice-hash masks (XOR of physical address bits; modelled on
 *  the reverse-engineered Sandy Bridge/Ivy Bridge/Haswell functions). */
std::vector<Addr> defaultSliceHashMasks(unsigned n_slices);

} // namespace nb::cache

#endif // NB_CACHE_HIERARCHY_HH
