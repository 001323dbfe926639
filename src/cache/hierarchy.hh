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
    /** Policy name (see Replacement); ignored if dueling is configured. */
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
    /**
     * The walk below a level that missed (@p top, L1 or L2): look the
     * line up in L2 (if @p top is L1), then in its L3 slice, counted by
     * the slice's C-Box. Then fill every level that missed, in this
     * order: L3 (unless @p fill_l3 is false), back-invalidating its
     * victim; L2; and L1 if @p top is L1, marked dirty if @p write.
     * Back-invalidation can open a hole in the L1/L2 set about to be
     * filled, so the order decides victims. Returns where the line was.
     */
    HitLevel walk(Addr paddr, HitLevel top, bool write, bool fill_l3);

    /** Hardware prefetch of a line into @p into (L1 or L2, with the
     *  levels below for inclusion): a probe, then the walk on a miss. */
    void prefetch(Addr line, HitLevel into);
    /** Hardware prefetchers (DCU next-line, L2 adjacent-line, L2
     *  streamer), run after a demand access that missed L1. */
    void runPrefetchers(Addr paddr);

    HierarchyConfig config_;
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
};

/** Default slice-hash masks (XOR of physical address bits; modelled on
 *  the reverse-engineered Sandy Bridge/Ivy Bridge/Haswell functions). */
std::vector<Addr> defaultSliceHashMasks(unsigned n_slices);

} // namespace nb::cache

#endif // NB_CACHE_HIERARCHY_HH
