/**
 * @file
 * Static performance-bound analyzer over the predecoded program IR.
 *
 * Abstractly interprets a decoded sim::Program body -- the repeat
 * pattern analyzed once, never materialized -- and derives three
 * per-copy lower bounds on simulated core cycles, each grounded in a
 * guarantee the executor (sim/dispatch.cc) provides:
 *
 *  latency    The maximum cycle mean of the loop-carried dependency
 *             graph. Registers are nodes; one walk over the body
 *             pattern's timed def/use edges (analysis/defuse.hh)
 *             computes, per (written register, entry register) pair,
 *             the largest guaranteed timing distance using the
 *             decoded EntryPlan latencies -- source/flags edges cost
 *             the core-µop latency, load address edges additionally
 *             cost the L1 hit latency (the cheapest any load can be),
 *             zero idioms break chains exactly as the scheduler does.
 *             Karp's algorithm over the resulting register graph
 *             yields the per-iteration latency floor, and the critical
 *             cycle is recovered as positioned instruction echoes.
 *
 *  ports      The uops.info Π-calculation: every µop the executor
 *             dispatches (core µops with their port masks, the
 *             load µop, the store-address/data pair) must land on an
 *             allowed port, and a µop occupies its port for
 *             1 + blockCycles. For every subset S of ports, the µops
 *             confined to S force at least Σweights / |S| cycles;
 *             the maximum over the <= 2^10 subsets is the bound, and
 *             a nested-bottleneck peel assigns per-port utilization.
 *
 *  front-end  Issue slots: Σ nIssue / issueWidth cycles per copy.
 *
 * Every bound is sound by construction: the consistency sweep
 * (tests/test_bound.cc + CI) asserts simulated cycles >= the bound for
 * every planner-emitted spec on all modelled microarchitectures, so a
 * dispatch-handler or timing-table regression that makes the simulator
 * impossibly fast fails statically-grounded CI.
 *
 * Exposed as the -explain CLI verb (text, JSON or CSV output), as
 * lint rule R7 (analysis.hh Context::Intent) flagging specs whose
 * declared measurement intent disagrees with the predicted bottleneck,
 * and through measurementCycleBound() as the floor a run's simulated
 * cycles are checked against. Reports are not memoized: one analysis
 * is a decode and a walk over the body pattern.
 */

#ifndef NB_ANALYSIS_BOUND_HH
#define NB_ANALYSIS_BOUND_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "uarch/uarch.hh"

namespace nb::sim
{
class Program;
} // namespace nb::sim

namespace nb::analysis
{

/** Which bound dominates (predicted bottleneck class). Ties resolve
 *  toward Latency, then Ports: a saturated divider chain is reported
 *  as latency-bound even when the blocked unit matches it. */
enum class Bottleneck : std::uint8_t
{
    Latency,
    Ports,
    FrontEnd,
};

/** Human-readable name ("latency" / "ports" / "frontend"). */
const char *bottleneckName(Bottleneck b);

/** One step of the critical latency cycle: a positioned instruction
 *  echo plus the timing-edge weight it contributes. */
struct PathStep
{
    /** Instruction index within the body pattern. */
    std::int32_t index = -1;
    /** Intel-syntax rendering of the instruction. */
    std::string insn;
    /** Guaranteed cycles this dependency edge contributes. */
    std::int64_t latency = 0;

    bool operator==(const PathStep &) const = default;
};

/** Optimal fractional load of one execution port (µops per copy under
 *  the Π assignment, and the busy fraction at the bound). */
struct PortUse
{
    std::uint8_t port = 0;
    /** Weighted µops per body copy assigned to this port. */
    double uops = 0;
    /** uops / bound(): fraction of cycles the port is busy when the
     *  body runs exactly at the predicted bound. */
    double util = 0;

    bool operator==(const PortUse &) const = default;
};

/** The bound analyzer's output for one spec on one microarchitecture.
 *  All *Bound fields are cycles per body-pattern copy. */
struct BoundReport
{
    std::string uarch;

    double latencyBound = 0;
    double portBound = 0;
    double frontEndBound = 0;

    /** The critical dependency cycle spans this many body copies...  */
    std::uint32_t latencyCycleLen = 0;
    /** ...and accumulates this many guaranteed cycles across them
     *  (latencyBound = weight / len). 0/0 when no chain exists. */
    std::int64_t latencyCycleWeight = 0;

    /** Σ issue µops per body copy. */
    double uopsPerCopy = 0;
    /** Issue (rename) width of the microarchitecture. */
    unsigned issueWidth = 0;

    Bottleneck bottleneck = Bottleneck::FrontEnd;

    /** One entry per execution port, in port order. */
    std::vector<PortUse> ports;
    /** The critical latency cycle (empty when latencyBound == 0). */
    std::vector<PathStep> criticalPath;
    /** Canonical names of the registers that carry the critical cycle
     *  across body-copy boundaries (one per spanned copy, in traversal
     *  order). measurementCycleBound() uses them to decide whether the
     *  chain survives the measurement loop's own R15/RFLAGS updates. */
    std::vector<std::string> latencyCycleRegs;

    /** The binding bound: max of the three, cycles per copy. */
    double bound() const;

    /** Human-readable multi-line summary (the -explain text output). */
    std::string format() const;

    /** JSON document (doubles rendered exactly, core::exactDouble). */
    std::string toJson() const;

    /** CSV document with a header row. */
    std::string toCsv() const;

    bool operator==(const BoundReport &) const = default;
};

/**
 * Analyze the body of @p spec against a microarchitecture. Uses the
 * spec's pre-assembled code if present, otherwise assembles the asm
 * text (@throws nb::FatalError on a syntax error or an opcode the
 * family does not support, like decode would).
 */
BoundReport analyzeBounds(const uarch::MicroArch &ua,
                          const core::BenchmarkSpec &spec);

/**
 * Analyze an already-decoded body program (one copy = one iteration of
 * the concatenated block patterns). The repeat counts of the blocks
 * are irrelevant to the per-copy bounds: the pattern is interpreted
 * once and the loop-carried closure scales to any trip count.
 */
BoundReport analyzeBounds(const uarch::MicroArch &ua,
                          const sim::Program &body);

/**
 * Lower bound on total simulated core cycles for one execution of the
 * generated measurement code: @p unroll body copies back to back, run
 * @p loops times (max(1, BenchmarkSpec::loopCount)). The port and
 * front-end terms scale with all unroll * loops copies; the latency
 * term spans loop iterations only when the critical cycle avoids R15
 * and RFLAGS -- the loop's own decrement-and-branch rewrites both
 * between iterations, so a flags-carried chain (ADC, SBB) restarts at
 * every loop boundary and only one contiguous unroll group is
 * guaranteed serial.
 */
double measurementCycleBound(const BoundReport &rep,
                             std::uint64_t unroll, std::uint64_t loops);

} // namespace nb::analysis

#endif // NB_ANALYSIS_BOUND_HH
