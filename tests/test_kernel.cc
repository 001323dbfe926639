/**
 * @file
 * Tests for the simulated kernel allocator (§III-G, §IV-D).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "kernel/kalloc.hh"

namespace nb::kernel
{
namespace
{

TEST(Kmalloc, RespectsSizeCap)
{
    sim::Memory mem;
    Rng rng(1);
    KernelAllocator alloc(mem, &rng);
    EXPECT_NO_THROW(alloc.kmalloc(kKmallocMax));
    EXPECT_THROW(alloc.kmalloc(kKmallocMax + 1), PanicError);
    EXPECT_THROW(alloc.kmalloc(0), PanicError);
}

TEST(Kmalloc, ReturnsMappedContiguousMemory)
{
    sim::Memory mem;
    Rng rng(1);
    KernelAllocator alloc(mem, &rng);
    auto a = alloc.kmalloc(3 * kPageSize);
    EXPECT_EQ(a.size, 3 * kPageSize);
    for (Addr off = 0; off < a.size; off += kPageSize) {
        EXPECT_EQ(mem.translate(a.vaddr + off), a.paddr + off);
    }
}

TEST(Kmalloc, FreshBootCallsAreAdjacent)
{
    // §IV-D: "in many cases, subsequent calls to kmalloc yield adjacent
    // memory areas ... in particular ... if the system was rebooted
    // recently".
    sim::Memory mem;
    Rng rng(1);
    KernelAllocator alloc(mem, &rng, /*frag=*/0.0);
    auto a = alloc.kmalloc(kKmallocMax);
    auto b = alloc.kmalloc(kKmallocMax);
    EXPECT_EQ(b.paddr, a.paddr + a.size);
    EXPECT_EQ(b.vaddr, a.vaddr + a.size);
}

TEST(ContiguousAlloc, LargeAreaOnFreshBoot)
{
    sim::Memory mem;
    Rng rng(1);
    KernelAllocator alloc(mem, &rng, 0.0);
    // 64 MB: needs 16 adjacent kmalloc chunks.
    auto area = alloc.allocContiguous(64 * 1024 * 1024);
    ASSERT_TRUE(area.has_value());
    EXPECT_GE(area->size, 64u * 1024 * 1024);
    // Physically contiguous across the whole range.
    for (Addr off = 0; off < area->size; off += kPageSize)
        EXPECT_EQ(mem.translate(area->vaddr + off), area->paddr + off);
}

TEST(ContiguousAlloc, FailsUnderHeavyFragmentationAndProposesReboot)
{
    sim::Memory mem;
    Rng rng(1);
    KernelAllocator alloc(mem, &rng, /*frag=*/0.95);
    auto area = alloc.allocContiguous(64 * 1024 * 1024, 20);
    EXPECT_FALSE(area.has_value());

    // After a "reboot" the allocation succeeds again (§IV-D).
    alloc.reboot();
    alloc.setFragProbability(0.0);
    EXPECT_TRUE(alloc.allocContiguous(64 * 1024 * 1024).has_value());
}

TEST(ContiguousAlloc, SurvivesMildFragmentation)
{
    // The greedy restart logic rides out occasional non-adjacent
    // chunks.
    sim::Memory mem;
    Rng rng(99);
    KernelAllocator alloc(mem, &rng, 0.10);
    auto area = alloc.allocContiguous(32 * 1024 * 1024, 256);
    ASSERT_TRUE(area.has_value());
}

TEST(FragmentedAlloc, ShufflesPhysicalPages)
{
    sim::Memory mem;
    Rng rng(5);
    KernelAllocator alloc(mem, &rng);
    auto area = alloc.allocFragmented(64 * kPageSize);
    // Consecutive virtual pages are mapped, but not physically
    // sequential (ordinary user memory).
    unsigned sequential = 0;
    for (Addr i = 0; i + 1 < 64; ++i) {
        Addr p0 = mem.translate(area.vaddr + i * kPageSize);
        Addr p1 = mem.translate(area.vaddr + (i + 1) * kPageSize);
        sequential += p1 == p0 + kPageSize ? 1 : 0;
    }
    EXPECT_LT(sequential, 16u);
}

TEST(Memory, PageTableBasics)
{
    sim::PageTable pt;
    EXPECT_FALSE(pt.isMapped(0x5000));
    pt.mapPage(0x5000, 0x9000);
    EXPECT_TRUE(pt.isMapped(0x5123));
    EXPECT_EQ(pt.translate(0x5123), 0x9123u);
    EXPECT_THROW(pt.translate(0x6000), FatalError);
    pt.unmapPage(0x5000);
    EXPECT_THROW(pt.translate(0x5123), FatalError);
}

TEST(Memory, PhysReadWrite)
{
    sim::PhysMemory phys;
    EXPECT_EQ(phys.read(0x1234, 8), 0u); // untouched memory reads zero
    phys.write(0x1234, 0xDEADBEEFCAFE, 8);
    EXPECT_EQ(phys.read(0x1234, 8), 0xDEADBEEFCAFEu);
    EXPECT_EQ(phys.read(0x1234, 2), 0xCAFEu);
    // Cross-page write.
    phys.write(kPageSize - 4, 0x1122334455667788, 8);
    EXPECT_EQ(phys.read(kPageSize - 4, 8), 0x1122334455667788u);
}

TEST(Memory, PhysPageStraddlingAccesses)
{
    sim::PhysMemory phys;
    // Unwritten pages read zero at every size and offset, including a
    // read whose second page was never written.
    for (unsigned bytes : {1u, 2u, 4u, 8u}) {
        EXPECT_EQ(phys.read(0x7000 + 13, bytes), 0u);
        EXPECT_EQ(phys.read(2 * kPageSize - 3, bytes), 0u);
    }
    // Every split of an 8-byte value across a page boundary.
    for (unsigned head = 1; head < 8; ++head) {
        Addr at = 5 * kPageSize - head;
        std::uint64_t value = 0x0102030405060708ULL * head;
        phys.write(at, value, 8);
        EXPECT_EQ(phys.read(at, 8), value) << head;
        // Byte-wise, little-endian, on both sides of the boundary.
        for (unsigned i = 0; i < 8; ++i)
            EXPECT_EQ(phys.read(at + i, 1), (value >> (8 * i)) & 0xFF);
    }
    // A straddling read where only the upper page was written.
    phys.write(9 * kPageSize, 0xAB, 1);
    EXPECT_EQ(phys.read(9 * kPageSize - 2, 4), 0xAB0000u);
    // A straddling write of 2 bytes leaves the neighbours alone.
    phys.write(11 * kPageSize - 2, 0xFFFFFFFFFFFFFFFFULL, 8);
    phys.write(11 * kPageSize - 1, 0x1234, 2);
    EXPECT_EQ(phys.read(11 * kPageSize - 2, 4), 0xFF1234FFu);
}

TEST(Memory, PhysResetForgetsWrites)
{
    sim::PhysMemory phys;
    phys.write(0x3000, 0x1122334455667788, 8);
    phys.write(kPageSize * 4 - 4, 0xCAFEF00DCAFEF00D, 8);
    EXPECT_EQ(phys.livePages(), 2u); // pages 3 and 4
    phys.reset();
    EXPECT_EQ(phys.livePages(), 0u);
    EXPECT_EQ(phys.read(0x3000, 8), 0u);
    EXPECT_EQ(phys.read(kPageSize * 4 - 4, 8), 0u);
    // A page rewritten after the reset is zero apart from the write.
    phys.write(0x3004, 0xEE, 1);
    EXPECT_EQ(phys.read(0x3000, 8), 0xEE00000000u);
    EXPECT_EQ(phys.livePages(), 1u);
}

TEST(Memory, PageTableRollbackUndoesChangesSinceMark)
{
    sim::PageTable pt;
    pt.mapPage(0x5000, 0x9000);
    pt.mapPage(0x6000, 0xA000);
    pt.mark();
    pt.mapPage(0x5000, 0xB000); // remap
    pt.unmapPage(0x6000);
    pt.mapPage(0x7000, 0xC000);
    pt.mapPage(0x7000, 0xD000);
    pt.rollback();
    EXPECT_EQ(pt.size(), 2u);
    EXPECT_EQ(pt.translate(0x5123), 0x9123u);
    EXPECT_EQ(pt.translate(0x6000), 0xA000u);
    EXPECT_FALSE(pt.isMapped(0x7000));
    // Without a mark, rollback returns to construction.
    sim::PageTable fresh;
    fresh.mapPage(0x5000, 0x9000);
    fresh.rollback();
    EXPECT_EQ(fresh.size(), 0u);
}

} // namespace
} // namespace nb::kernel
