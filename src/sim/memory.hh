/**
 * @file
 * Simulated physical memory and virtual-to-physical page mapping.
 *
 * The machine executes on virtual addresses; L1 index bits fall within
 * the page offset, but L2/L3 set selection and the slice hash use
 * physical addresses, so the mapping matters for the cache case study —
 * exactly why nanoBench's kernel version offers physically-contiguous
 * allocation (§III-G, §IV-D).
 */

#ifndef NB_SIM_MEMORY_HH
#define NB_SIM_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace nb::sim
{

/**
 * Byte-addressable sparse physical memory. Unwritten bytes read as
 * zero. Pages are epoch-stamped like cache sets: reset() only advances
 * the epoch, a page with an older stamp reads as zero, and the first
 * write after a reset zeroes and restamps it, so the page allocations
 * survive a reset.
 */
class PhysMemory
{
  public:
    std::uint64_t read(Addr paddr, unsigned bytes) const;
    void write(Addr paddr, std::uint64_t value, unsigned bytes);

    /** Forget every write (O(1); see the class comment). */
    void
    reset()
    {
        ++epoch_;
        livePages_ = 0;
    }

    /** Pages written since construction or the last reset(). */
    std::size_t livePages() const { return livePages_; }

  private:
    struct Page
    {
        std::uint64_t epoch = 0;
        std::array<std::uint8_t, kPageSize> bytes;
    };
    /** The current page containing @p paddr, made current (zeroed)
     *  if it is new or stale. */
    Page &pageFor(Addr paddr);
    /** The current page containing @p paddr, or nullptr if it reads
     *  as zero. */
    const Page *pageForRead(Addr paddr) const;

    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
    std::uint64_t epoch_ = 1;
    std::size_t livePages_ = 0;
};

/**
 * Per-page virtual-to-physical mapping. Every change is recorded in
 * an undo log, so rollback() restores the mapping as of the last
 * mark() (or construction) in O(changes since).
 */
class PageTable
{
  public:
    /** Map virtual page containing @p vaddr to the physical page
     *  containing @p paddr (both aligned down). */
    void mapPage(Addr vaddr, Addr paddr);

    /** Remove a mapping. */
    void unmapPage(Addr vaddr);

    bool isMapped(Addr vaddr) const;

    /** Translate; throws nb::FatalError (page fault) if unmapped. */
    Addr translate(Addr vaddr) const;

    /** Number of mapped pages. */
    std::size_t size() const { return map_.size(); }

    /** Make the current mapping the one rollback() restores. */
    void mark() { undo_.clear(); }

    /** Undo every change since the last mark() (or construction). */
    void rollback();

  private:
    /** One change: the virtual page and what it mapped to before. */
    struct Undo
    {
        Addr vpage;
        std::optional<Addr> ppage;
    };

    std::unordered_map<Addr, Addr> map_; ///< vpage -> ppage
    std::vector<Undo> undo_;
};

/** Combined memory system handed to the machine. */
class Memory
{
  public:
    PageTable &pageTable() { return pt_; }
    const PageTable &pageTable() const { return pt_; }
    PhysMemory &phys() { return phys_; }

    Addr translate(Addr vaddr) const { return pt_.translate(vaddr); }

    std::uint64_t
    readVirt(Addr vaddr, unsigned bytes) const
    {
        return phys_.read(pt_.translate(vaddr), bytes);
    }

    void
    writeVirt(Addr vaddr, std::uint64_t value, unsigned bytes)
    {
        phys_.write(pt_.translate(vaddr), value, bytes);
    }

  private:
    PageTable pt_;
    PhysMemory phys_;
};

} // namespace nb::sim

#endif // NB_SIM_MEMORY_HH
