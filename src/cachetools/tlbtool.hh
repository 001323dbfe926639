/**
 * @file
 * TLB characterization (the paper's first named future-work direction,
 * §VIII): measure the capacities of the data-TLB levels and the miss
 * penalties with generated microbenchmarks, using the same methodology
 * as the cache tools -- counter differences over pointer-dense access
 * patterns, evaluated with the kernel-space runner in noMem mode.
 *
 * The work is organized as a plan/decode split so TLB characterization
 * can ride the parallel campaign executor: planTlb() emits one miss
 * sweep spec per working-set size on a fixed ladder (powers of two and
 * 3*2^k, so the usual capacities land exactly on grid points) plus a
 * pointer-chase pair (page-strided vs densely packed) per ladder size;
 * decodeTlb() reads the capacities off the sweep -- the largest size
 * with (near-)zero misses at the respective level, the same criterion
 * the former binary search used -- and picks the penalty chases whose
 * ring sizes isolate the STLB and page-walk latencies. measureTlb() is
 * the serial driver: plan, run in plan order on one runner, decode.
 */

#ifndef NB_CACHETOOLS_TLBTOOL_HH
#define NB_CACHETOOLS_TLBTOOL_HH

#include <span>
#include <vector>

#include "core/engine.hh"
#include "core/runner.hh"

namespace nb::cachetools
{

/** Measured TLB characteristics. */
struct TlbCharacterization
{
    /** Largest page working set with (near-)zero DTLB misses. */
    unsigned dtlbEntries = 0;
    /** Largest page working set with (near-)zero page walks. */
    unsigned stlbEntries = 0;
    /** Extra load latency of an STLB hit vs a DTLB hit (cycles). */
    double stlbPenalty = 0.0;
    /** Extra load latency of a page walk vs a DTLB hit (cycles). */
    double walkPenalty = 0.0;
    /** Set if part of the measurement failed (plan/decode path);
     *  the fields decoded so far are still valid. */
    std::string error;
};

/** A planned TLB characterization, ready for a campaign. */
struct TlbPlan
{
    /** Upper bound of the capacity search (pages). */
    unsigned maxPages = 0;
    /** Working-set sizes probed, ascending (2^k and 3*2^k points). */
    std::vector<unsigned> ladder;
    /**
     * The benchmarks, in plan order: one miss-sweep spec per ladder
     * size, then one (page-strided, dense) chase pair per ladder size.
     * The chase addresses are absolute, based on the R14 area of the
     * planning runner: run the specs on machines with the same layout
     * (same uarch/seed, R14 area of r14Size bytes reserved first --
     * see CampaignOptions::machineSetup).
     */
    std::vector<core::BenchmarkSpec> specs;
    /** R14-area size the chase addresses assume. */
    Addr r14Size = 0;
};

/**
 * The dependent pointer chase around a ring of @p n lines, @p stride
 * bytes apart from @p base (page-stride rings stagger the line offset
 * within each page so they spread over all L1/L2 sets). Dependent
 * loads defeat memory-level parallelism (§VI), so the Core cycles per
 * load are the full load latency: the TLB penalty chases and the
 * profile's cache-latency rings are both this spec.
 */
core::BenchmarkSpec chaseSpec(Addr base, unsigned n,
                              Addr stride = kCacheLineSize);

/**
 * Plan the TLB characterization benchmarks. The runner must be in
 * kernel mode with an R14 area of at least (max_pages + 1) pages
 * reserved (measureTlb() does both; campaign planners reserve one
 * area for all their tools up front).
 */
TlbPlan planTlb(core::Runner &runner, unsigned max_pages = 4096);

/**
 * Fold campaign/batch outcomes back into the characterization.
 * @p outcomes must have one entry per plan.specs element, in plan
 * order. Failed outcomes degrade: affected fields keep their default
 * and error records the first failure.
 */
TlbCharacterization decodeTlb(const TlbPlan &plan,
                              std::span<const RunOutcome> outcomes);

/**
 * Measure the TLB capacities by sweeping cyclic page working sets and
 * watching the DTLB_LOAD_MISSES.* events (plan + run + decode on one
 * runner).
 *
 * @param runner   Kernel-mode runner.
 * @param max_pages Upper bound of the search (and the size of the
 *                  reserved memory area, in pages).
 */
TlbCharacterization measureTlb(core::Runner &runner,
                               unsigned max_pages = 4096);

/** Same, against the (kernel-mode) runner of an Engine session. */
TlbCharacterization measureTlb(Session &session,
                               unsigned max_pages = 4096);

} // namespace nb::cachetools

#endif // NB_CACHETOOLS_TLBTOOL_HH
