/**
 * @file
 * Static analysis of benchmark specs over the predecoded program IR.
 *
 * A benchmark body that breaks one of nanoBench's measurement-validity
 * invariants -- clobbering the R15 loop counter, losing the R14
 * memory-area base, touching the noMem accumulator registers, or
 * leaving a "latency" dependency chain severed by a zero idiom --
 * still runs and still produces numbers; they just measure nothing
 * (paper §III-B, §III-G, §III-I; the uops.info methodology depends on
 * exactly these invariants holding). The analyzer decodes a spec's
 * init and body into a sim::Program (so it sees the same resolved
 * def/use sets, load/store decomposition, and repeat-block structure
 * the executor sees) and walks its def/use edges register by register
 * (analysis/defuse.hh, the walk the bound analyzer shares) to turn
 * violations into structured Diagnostics.
 *
 * Rules:
 *  R0  unsupported opcode on the target microarchitecture (the
 *      decode-time fault, promoted to a positioned diagnostic)
 *  R1  body clobbers a measurement-reserved register: any write to
 *      R15 while loopCount > 0 (error), or a write to R14 whose new
 *      value no longer derives from the memory-area base (warning;
 *      pointer chases like `mov R14, [R14]` stay clean)
 *  R2  noMem accumulator interference: the body writes one of the
 *      R8..R13 accumulators (error) or reads one before defining it
 *      (warning) in a noMem spec
 *  R3  broken dependency chain: no def-use path threads the body back
 *      to itself across iterations. Reported when the caller declares
 *      latency intent (Context::Chain::Expect), or -- in Auto mode --
 *      when the only would-be chain is severed by a single zero idiom
 *  R4  dead measured code: a pure register result overwritten later
 *      in the body without any intervening read
 *  R5  memory footprint: an R14-relative access outside the reserved
 *      R14 area, or an absolute access overlapping the measurement
 *      results/scratch area
 *  R6  flags liveness: init sets flags the body consumes, but the
 *      counter readout between init and body rewrites RFLAGS, so the
 *      body observes readout flags instead. Exception: CF = 0 from a
 *      trailing logic instruction feeding carry-only readers does
 *      survive (the readout's OR accumulation also clears CF)
 *  R7  model consistency: the spec's declared measurement intent
 *      (Context::Intent, the Characterizer role tags) disagrees with
 *      the bottleneck the static performance model (analysis/bound.hh)
 *      predicts. A "latency" spec whose predicted bottleneck is ports
 *      or the front end is an error when no loop-carried chain
 *      threads the body at all; when an architectural chain exists
 *      but carries no timing edge (LEA address operands: the
 *      scheduler reads address registers of non-load uops without
 *      stalling) it is informational, a property of the instruction
 *      rather than the plan. A "throughput" spec predicted
 *      latency-bound is informational only: some instructions (ADC,
 *      SBB) genuinely serialize on flags no matter how the planner
 *      arranges the copies
 *
 * Reports are written as text, JSON or CSV (core/result.hh escaping
 * helpers) and never read back, and analyzeSpecCached() memoizes whole
 * reports on the canonical spec key so campaign-path linting is one
 * analysis per unique spec.
 */

#ifndef NB_ANALYSIS_ANALYSIS_HH
#define NB_ANALYSIS_ANALYSIS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/codegen.hh"
#include "core/runner.hh"
#include "core/telemetry.hh"
#include "uarch/uarch.hh"

namespace nb::analysis
{

/** Diagnostic severity, ordered: Info < Warning < Error. */
enum class Severity : std::uint8_t
{
    Info,
    Warning,
    Error,
};

/** Human-readable name ("info" / "warning" / "error"). */
const char *severityName(Severity severity);

/** Which part of the spec a diagnostic points into. */
enum class Segment : std::uint8_t
{
    Init,
    Body,
};

/** Human-readable name ("init" / "body"). */
const char *segmentName(Segment segment);

/** One finding: rule id, severity, and a position in the spec. */
struct Diagnostic
{
    /** Rule id ("R0".."R6"). */
    std::string rule;
    Severity severity = Severity::Warning;
    Segment segment = Segment::Body;
    /** Instruction index within the segment; -1 if not tied to one. */
    std::int32_t index = -1;
    /** Intel-syntax rendering of the offending instruction (empty if
     *  index < 0). */
    std::string insn;
    std::string message;

    bool operator==(const Diagnostic &) const = default;

    /** One-line rendering, e.g.
     *  `error R1 body[2] "mov R15, 5": ...`. */
    std::string format() const;
};

/** The analyzer's output: diagnostics in rule order. */
struct Report
{
    std::vector<Diagnostic> diagnostics;

    bool empty() const { return diagnostics.empty(); }
    /** Diagnostics at exactly this severity. */
    std::size_t count(Severity severity) const;
    /** Diagnostics at this severity or worse. */
    std::size_t countAtLeast(Severity severity) const;
    /** No warnings or errors (informational findings allowed). */
    bool clean() const { return countAtLeast(Severity::Warning) == 0; }
    /** Any diagnostic with this rule id? */
    bool hasRule(std::string_view rule) const;

    /** One formatted line per diagnostic (empty string if none). */
    std::string format() const;

    /** JSON document: {"diagnostics": [...]}. */
    std::string toJson() const;

    /** CSV document with a header row. */
    std::string toCsv() const;

    bool operator==(const Report &) const = default;
};

/**
 * Measurement-environment facts the rules check against. The defaults
 * match a fresh Runner (1 MB R14 area); forRunner() fills the actual
 * geometry of a live runner.
 */
struct Context
{
    core::Mode mode = core::Mode::Kernel;
    /** Reserved R14 memory area (§III-G). */
    Addr r14Base = 0;
    Addr r14Size = 1u << 20;
    /** Results/scratch area of the memory-mode readout. */
    Addr resultBase = 0;
    Addr resultSize = core::layout::kAreaSize;

    /** R3 chain expectation. */
    enum class Chain : std::uint8_t
    {
        /** Flag only clear zero-idiom chain breaks (see R3 above). */
        Auto,
        /** Latency-style spec: error when no chain threads the body
         *  back to itself. */
        Expect,
        /** Skip R3 entirely. */
        Ignore,
    };
    Chain chain = Chain::Auto;

    /** R7 declared measurement intent. */
    enum class Intent : std::uint8_t
    {
        /** No declared intent; R7 is skipped. */
        None,
        /** The spec claims a loop-carried latency chain binds. */
        Latency,
        /** The spec claims throughput / port pressure binds. */
        Throughput,
    };
    Intent intent = Intent::None;

    /** Context with the live memory geometry of @p runner (run a
     *  campaign's machineSetup hook on it first for exact R5 bounds). */
    static Context forRunner(const core::Runner &runner);
};

/**
 * Analyze one spec against a microarchitecture. Uses the spec's
 * pre-assembled code/init if present, otherwise assembles the asm
 * text (@throws nb::FatalError on a syntax error, like the runner
 * would).
 */
Report analyzeSpec(const uarch::MicroArch &ua,
                   const core::BenchmarkSpec &spec,
                   const Context &ctx = {});

/**
 * analyzeSpec() memoized on (uarch, context, canonical spec key):
 * each unique spec is analyzed once per process, so lint-enabled
 * campaigns re-lint duplicates and re-runs for free. Thread-safe.
 */
Report analyzeSpecCached(const uarch::MicroArch &ua,
                         const core::BenchmarkSpec &spec,
                         const Context &ctx = {});

/** Counters of the analyzeSpecCached() memo (process-wide; misses
 *  are specs analyzed). Thread-safe. */
CacheStats lintCacheCounters();

} // namespace nb::analysis

#endif // NB_ANALYSIS_ANALYSIS_HH
