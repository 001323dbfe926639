/**
 * @file
 * Simulated data-TLB hierarchy.
 *
 * The paper names TLB analysis as the first direction for future work
 * ("This includes, for example, details on how the TLBs ... work",
 * §VIII). This module provides the substrate for that extension: a
 * two-level TLB (L1 DTLB + unified STLB) with LRU replacement, page-walk
 * costs on misses, and the corresponding performance events. The
 * characterization tool that measures TLB capacities through generated
 * microbenchmarks lives in nb::cachetools.
 */

#ifndef NB_SIM_TLB_HH
#define NB_SIM_TLB_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace nb::sim
{

/** Where a TLB lookup was satisfied. */
enum class TlbLevel : std::uint8_t
{
    Dtlb,
    Stlb,
    PageWalk,
};

/** Geometry of one TLB level. */
struct TlbLevelConfig
{
    unsigned entries = 64;
    unsigned assoc = 4;
};

/** Configuration of the TLB hierarchy. */
struct TlbConfig
{
    TlbLevelConfig dtlb{64, 4};     ///< L1 data TLB
    TlbLevelConfig stlb{1536, 12};  ///< unified second-level TLB
    Cycles stlbLatency = 7;         ///< extra cycles on a DTLB miss
    Cycles walkLatency = 26;        ///< extra cycles on an STLB miss
};

/** Result of a translation lookup. */
struct TlbResult
{
    TlbLevel level = TlbLevel::Dtlb;
    /** Extra latency this lookup adds to the access. */
    Cycles penalty = 0;
};

/** A set-associative, LRU-replaced TLB level. */
class TlbArray
{
  public:
    explicit TlbArray(const TlbLevelConfig &config);

    /** Look up a virtual page number; fills on miss. Returns hit. */
    bool access(Addr vpn);

    /** Probe without state change. */
    bool probe(Addr vpn) const;

    /** Invalidate every entry; O(1): an entry is valid only if it
     *  was filled in the current epoch. The LRU clock keeps running,
     *  so every later fill is younger than any stale entry, as in a
     *  new array whose stamps are all 0. */
    void flush() { ++epoch_; }

    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

  private:
    struct Entry
    {
        Addr vpn = 0;
        std::uint64_t epoch = 0; ///< valid iff == TlbArray::epoch_
        std::uint64_t stamp = 0;
    };

    unsigned numSets_;
    unsigned assoc_;
    std::vector<Entry> entries_;
    std::uint64_t clock_ = 0;
    std::uint64_t epoch_ = 1;
};

/** The two-level data-TLB hierarchy. */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config = TlbConfig{});

    /** Translate-side lookup for the page containing @p vaddr. */
    TlbResult access(Addr vaddr);

    /** Flush both levels (e.g. on a (simulated) CR3 write). */
    void flush();

    /** Flush and zero the statistics: the just-constructed state. */
    void reset();

    const TlbConfig &config() const { return config_; }

    /** Statistics. */
    std::uint64_t dtlbMisses() const { return dtlbMisses_; }
    std::uint64_t stlbMisses() const { return stlbMisses_; }

  private:
    TlbConfig config_;
    TlbArray dtlb_;
    TlbArray stlb_;
    std::uint64_t dtlbMisses_ = 0;
    std::uint64_t stlbMisses_ = 0;
};

} // namespace nb::sim

#endif // NB_SIM_TLB_HH
