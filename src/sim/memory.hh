/**
 * @file
 * Simulated physical memory and virtual-to-physical page mapping.
 *
 * The machine executes on virtual addresses; L1 index bits fall within
 * the page offset, but L2/L3 set selection and the slice hash use
 * physical addresses, so the mapping matters for the cache case study —
 * exactly why nanoBench's kernel version offers physically-contiguous
 * allocation (§III-G, §IV-D).
 *
 * Every simulated load and store looks up its page twice: the mapping
 * (PageTable::translate) and the physical page (PhysMemory). Both are
 * PageMaps, flat open-addressing tables, so a lookup is a multiply, a
 * shift and, in the common case, one probe -- no division and no
 * node to chase.
 */

#ifndef NB_SIM_MEMORY_HH
#define NB_SIM_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace nb::sim
{

/**
 * Map from a page number to a @p V: a power-of-two slot array probed
 * linearly from a Fibonacci hash and kept at most half full. Erasing
 * shifts the rest of its probe run back instead of leaving a
 * tombstone, so lookups stay short after any number of unmaps. A key
 * is a page number (an address divided by kPageSize), so it is never
 * the all-ones empty marker.
 */
template <typename V>
class PageMap
{
  public:
    /** The value of @p key, or nullptr. */
    V *
    find(Addr key)
    {
        if (slots_.empty())
            return nullptr;
        Slot &s = slots_[probe(key)];
        return s.key == key ? &s.value : nullptr;
    }
    const V *
    find(Addr key) const
    {
        return const_cast<PageMap *>(this)->find(key);
    }

    /** The value of @p key, default-constructed and inserted if
     *  absent; the flag says whether it was inserted. */
    std::pair<V &, bool>
    tryEmplace(Addr key)
    {
        if (2 * (size_ + 1) > slots_.size())
            grow();
        Slot &s = slots_[probe(key)];
        if (s.key == key)
            return {s.value, false};
        s.key = key;
        ++size_;
        return {s.value, true};
    }

    /** Remove @p key; false if it was absent. */
    bool
    erase(Addr key)
    {
        if (slots_.empty())
            return false;
        std::size_t hole = probe(key);
        if (slots_[hole].key != key)
            return false;
        const std::size_t mask = slots_.size() - 1;
        // Backward-shift deletion: move every later entry of the run
        // whose home is not between the hole and itself into the hole.
        for (std::size_t j = (hole + 1) & mask; slots_[j].key != kEmpty;
             j = (j + 1) & mask) {
            const std::size_t home = homeOf(slots_[j].key);
            const bool stays = hole <= j ? hole < home && home <= j
                                         : hole < home || home <= j;
            if (stays)
                continue;
            slots_[hole] = std::move(slots_[j]);
            hole = j;
        }
        slots_[hole] = Slot{};
        --size_;
        return true;
    }

    std::size_t size() const { return size_; }

  private:
    static constexpr Addr kEmpty = ~Addr{0};
    static constexpr std::size_t kInitialSlots = 64;

    struct Slot
    {
        Addr key = kEmpty;
        V value{};
    };

    std::size_t
    homeOf(Addr key) const
    {
        return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                        shift_);
    }

    /** The slot holding @p key, or the empty slot it would go in. */
    std::size_t
    probe(Addr key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = homeOf(key);
        while (slots_[i].key != key && slots_[i].key != kEmpty)
            i = (i + 1) & mask;
        return i;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        const std::size_t n = old.empty() ? kInitialSlots : 2 * old.size();
        slots_ = std::vector<Slot>(n);
        shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(n));
        for (Slot &s : old) {
            if (s.key != kEmpty)
                slots_[probe(s.key)] = std::move(s);
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    unsigned shift_ = 64;
};

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

    PageMap<std::unique_ptr<Page>> pages_; ///< by physical page number
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
    Addr
    translate(Addr vaddr) const
    {
        const Addr *ppage = map_.find(vaddr / kPageSize);
        if (!ppage)
            pageFault(vaddr);
        return *ppage * kPageSize + vaddr % kPageSize;
    }

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

    [[noreturn]] NB_NOINLINE static void pageFault(Addr vaddr);

    PageMap<Addr> map_; ///< vpage -> ppage
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
