/**
 * @file
 * Simulated-memory implementation.
 */

#include "memory.hh"

#include <bit>
#include <cstring>

#include "common/bits.hh"
#include "common/logging.hh"

namespace nb::sim
{

PhysMemory::Page &
PhysMemory::pageFor(Addr paddr)
{
    auto &slot = pages_[paddr / kPageSize];
    if (!slot)
        slot = std::make_unique_for_overwrite<Page>(); // zeroed below
    if (slot->epoch != epoch_) {
        slot->epoch = epoch_;
        slot->bytes.fill(0);
        ++livePages_;
    }
    return *slot;
}

const PhysMemory::Page *
PhysMemory::pageForRead(Addr paddr) const
{
    auto it = pages_.find(paddr / kPageSize);
    if (it == pages_.end() || it->second->epoch != epoch_)
        return nullptr;
    return it->second.get();
}

// Values are stored little-endian, so within a page a read or write is
// one memcpy of the value's low bytes.
static_assert(std::endian::native == std::endian::little,
              "PhysMemory copies values in host byte order");

std::uint64_t
PhysMemory::read(Addr paddr, unsigned bytes) const
{
    NB_ASSERT(bytes >= 1 && bytes <= 8, "bad read size ", bytes);
    std::uint64_t value = 0;
    Addr offset = paddr % kPageSize;
    if (offset + bytes <= kPageSize) {
        if (const Page *page = pageForRead(paddr))
            std::memcpy(&value, &page->bytes[offset], bytes);
        return value;
    }
    // Page-straddling access: byte by byte.
    for (unsigned i = 0; i < bytes; ++i) {
        Addr a = paddr + i;
        const Page *page = pageForRead(a);
        std::uint8_t b = page ? page->bytes[a % kPageSize] : 0;
        value |= static_cast<std::uint64_t>(b) << (8 * i);
    }
    return value;
}

void
PhysMemory::write(Addr paddr, std::uint64_t value, unsigned bytes)
{
    NB_ASSERT(bytes >= 1 && bytes <= 8, "bad write size ", bytes);
    Addr offset = paddr % kPageSize;
    if (offset + bytes <= kPageSize) {
        std::memcpy(&pageFor(paddr).bytes[offset], &value, bytes);
        return;
    }
    // Page-straddling access: byte by byte.
    for (unsigned i = 0; i < bytes; ++i) {
        Addr a = paddr + i;
        pageFor(a).bytes[a % kPageSize] =
            static_cast<std::uint8_t>((value >> (8 * i)) & 0xFF);
    }
}

void
PageTable::mapPage(Addr vaddr, Addr paddr)
{
    Addr vpage = vaddr / kPageSize;
    auto [it, inserted] = map_.try_emplace(vpage, paddr / kPageSize);
    if (inserted) {
        undo_.push_back({vpage, std::nullopt});
    } else {
        undo_.push_back({vpage, it->second});
        it->second = paddr / kPageSize;
    }
}

void
PageTable::unmapPage(Addr vaddr)
{
    auto it = map_.find(vaddr / kPageSize);
    if (it == map_.end())
        return;
    undo_.push_back({it->first, it->second});
    map_.erase(it);
}

void
PageTable::rollback()
{
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
        if (it->ppage)
            map_[it->vpage] = *it->ppage;
        else
            map_.erase(it->vpage);
    }
    undo_.clear();
}

bool
PageTable::isMapped(Addr vaddr) const
{
    return map_.count(vaddr / kPageSize) != 0;
}

Addr
PageTable::translate(Addr vaddr) const
{
    auto it = map_.find(vaddr / kPageSize);
    if (it == map_.end())
        fatal("page fault: virtual address 0x", std::hex, vaddr,
              " is not mapped");
    return it->second * kPageSize + vaddr % kPageSize;
}

} // namespace nb::sim
