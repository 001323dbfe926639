/**
 * @file
 * Simulator observation: what the core *actually did* for one spec.
 *
 * observeSpec() runs a benchmark spec twice through the full runner
 * stack -- once as given and once with the unroll count doubled -- on
 * fresh same-seed machines with a sim::ExecObserver attached, and
 * reports the *difference* normalized per body copy. This is the
 * paper's differential-measurement discipline (§III-C) applied to the
 * reproduction's own introspection: everything the harness executes
 * identically in both runs (readout code, init parts, loop tails,
 * warm-up structure, user-mode programming overhead) cancels in the
 * delta, leaving the marginal cost of the benchmark body itself.
 *
 * The resulting ObservedProfile is the empirical counterpart of the
 * static analysis::BoundReport (-explain): per-port dispatched-µop
 * pressure, issue-bandwidth utilization, and retire stalls, observed
 * from the dispatch loop instead of predicted from the timing tables.
 * formatPredictedVsObserved() renders both side-by-side (the -observe
 * CLI verb), turning the bound model and the simulator into mutual
 * validators; the test sweep asserts their consistency on every
 * modelled microarchitecture.
 */

#ifndef NB_OBS_OBSERVE_HH
#define NB_OBS_OBSERVE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/bound.hh"
#include "core/runner.hh"
#include "uarch/uarch.hh"

namespace nb::obs
{

/** Differentially-observed per-body-copy execution profile (all
 *  doubles are per body copy unless noted). */
struct ObservedProfile
{
    std::string uarch;
    /** Differential body copies the deltas are normalized by. */
    std::uint64_t copies = 0;
    /** Issue (rename) width of the microarchitecture. */
    unsigned issueWidth = 0;

    /** Dispatched µops per body copy, one entry per execution port. */
    std::vector<double> portUops;
    double uopsIssued = 0;
    double uopsDispatched = 0;
    double cycles = 0;
    /** Fraction of issue bandwidth used: Δissued µops /
     *  (issueWidth * Δcycles). */
    double issueUtilization = 0;
    double retireStallCycles = 0;

    /** Σ portUops (dispatched µops per copy that took a port). */
    double totalPortUops() const;

    /** Busy fraction of port @p p: portUops[p] / cycles (a µop
     *  occupies its port for >= 1 cycle). 0 when cycles == 0. */
    double portShare(std::size_t p) const;

    /** Human-readable multi-line summary. */
    std::string format() const;

    /** JSON document (doubles rendered exactly, core::exactDouble). */
    std::string toJson() const;

    /** CSV ("key,value" rows). */
    std::string toCsv() const;
};

/**
 * Observe @p spec on @p ua: run it and a doubled-unroll copy on two
 * fresh machines seeded @p seed and return the normalized delta.
 * Observation never perturbs measurement -- the runs themselves are
 * bit-identical to unobserved ones (the parity tests pin this).
 *
 * @throws nb::FatalError when either run fails (same taxonomy as
 *         Session::run: assembly errors, invalid specs, execution
 *         faults).
 */
ObservedProfile observeSpec(const uarch::MicroArch &ua,
                            const core::BenchmarkSpec &spec,
                            core::Mode mode = core::Mode::Kernel,
                            std::uint64_t seed = 42);

/**
 * Render @p predicted (the static bound model) and @p observed (the
 * dispatch-loop deltas) side-by-side: per-port µops and utilization,
 * cycles per copy, issue pressure. The -observe CLI verb's text
 * output.
 */
std::string formatPredictedVsObserved(
    const analysis::BoundReport &predicted,
    const ObservedProfile &observed);

} // namespace nb::obs

#endif // NB_OBS_OBSERVE_HH
