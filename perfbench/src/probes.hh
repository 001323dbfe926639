/**
 * @file
 * Layer probes: host time of single simulator layers, each timed around
 * calls into public functions on a private machine of one uarch.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include "uarch/uarch.hh"

namespace perfbench
{

/** Medians over repetitions, per probe. */
struct ProbeResult
{
    /** sim::Machine + core::Runner construction, ms. */
    double constructMs = 0.0;
    /** Machine::execute on a predecoded register-only program,
     *  million simulated instructions per host second. */
    double executeMinsnPerS = 0.0;
    /** Hierarchy::wbinvd on just-filled caches, us. */
    double wbinvdUs = 0.0;
    /** Hierarchy::access over an L1-resident ring, ns per access. */
    double accessHitNs = 0.0;
    /** Hierarchy::access over a ring larger than the L3, prefetchers
     *  off where the model allows it, ns per access. */
    double accessMissNs = 0.0;
    /** Tlb::access over a ring that misses the DTLB and hits the
     *  STLB, ns per access. */
    double tlbAccessNs = 0.0;
    /** profile::planMachineProfile with default options (the profile
     *  and cachetools planners), s. */
    double profilePlanS = 0.0;
};

ProbeResult runProbes(const nb::uarch::MicroArch &ua);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
