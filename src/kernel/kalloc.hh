/**
 * @file
 * Simulated kernel memory allocation (paper §III-G, §IV-D).
 *
 * kmalloc returns physically-contiguous memory but is capped at 4 MB on
 * recent kernels. nanoBench's kernel module implements a greedy algorithm
 * that calls kmalloc repeatedly and checks whether the returned chunks
 * happen to be physically (and virtually) adjacent — which they often are
 * on a freshly booted system; if the algorithm fails, the tool proposes a
 * reboot. This class models exactly that: a physical bump allocator with
 * configurable fragmentation (the chance that an unrelated allocation
 * stole pages between two kmalloc calls), the 4 MB cap, the greedy
 * adjacency search, and a reboot() that restores the pristine state.
 */

#ifndef NB_KERNEL_KALLOC_HH
#define NB_KERNEL_KALLOC_HH

#include <optional>

#include "common/rng.hh"
#include "common/types.hh"
#include "sim/memory.hh"

namespace nb::kernel
{

/** Largest size a single kmalloc can return (recent kernels, §IV-D). */
inline constexpr Addr kKmallocMax = 4 * 1024 * 1024;

/** One allocation: virtually and physically contiguous. */
struct Allocation
{
    Addr vaddr = 0;
    Addr paddr = 0;
    Addr size = 0;
};

/** The simulated kernel allocator. */
class KernelAllocator
{
  public:
    /**
     * @param mem The machine memory system (page table to fill in).
     * @param rng Machine RNG (fragmentation draws).
     * @param frag_probability Probability that a kmalloc call is NOT
     *        adjacent to the previous one (fresh boot: ~0).
     */
    KernelAllocator(sim::Memory &mem, Rng *rng,
                    double frag_probability = 0.0);

    /**
     * Allocate @p size bytes of physically-contiguous memory (one
     * kmalloc call; @p size must be <= kKmallocMax). Always succeeds in
     * the model; adjacency to the previous call depends on
     * fragmentation.
     */
    Allocation kmalloc(Addr size);

    /**
     * Greedy physically-contiguous allocation of arbitrary size via
     * repeated kmalloc (§IV-D). Returns nullopt if no contiguous run is
     * found within the attempt budget (the caller should "reboot").
     */
    std::optional<Allocation> allocContiguous(Addr size,
                                              unsigned max_attempts = 64);

    /**
     * Map @p size bytes at @p vaddr to deliberately NON-contiguous
     * (shuffled) physical pages -- models ordinary user-space memory,
     * where the physical layout is arbitrary.
     */
    Allocation allocFragmented(Addr size);

    /** Restore the pristine just-booted state. */
    void reboot();

    /** Where the next allocations will come from. rewind() to an
     *  earlier cursor makes the allocator repeat what it handed out
     *  since (the page mappings are the caller's to roll back). */
    struct Cursor
    {
        Addr nextPhys;
        Addr nextVirt;
        double fragProbability;
    };
    Cursor cursor() const
    {
        return {nextPhys_, nextVirt_, fragProbability_};
    }
    void
    rewind(const Cursor &c)
    {
        nextPhys_ = c.nextPhys;
        nextVirt_ = c.nextVirt;
        fragProbability_ = c.fragProbability;
    }

    void setFragProbability(double p) { fragProbability_ = p; }

    /** Physical bytes handed out so far. */
    Addr physInUse() const { return nextPhys_ - kPhysBase; }

  private:
    Addr allocPhys(Addr pages);
    Addr allocVirt(Addr pages);

    static constexpr Addr kPhysBase = 0x1000'0000;
    static constexpr Addr kVirtBase = 0x7000'0000'0000;

    sim::Memory &mem_;
    Rng *rng_;
    double fragProbability_;
    Addr nextPhys_ = kPhysBase;
    Addr nextVirt_ = kVirtBase;
};

} // namespace nb::kernel

#endif // NB_KERNEL_KALLOC_HH
