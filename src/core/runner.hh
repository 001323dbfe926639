/**
 * @file
 * The nanoBench benchmark runner (paper Algorithm 2, §III).
 *
 * Runs a microbenchmark: programs the counters (in rounds if there are
 * more events than programmable counters, §III-J), performs warm-up runs
 * (§III-H), runs the generated code nMeasurements times, applies the
 * aggregate (§III-C), and removes measurement overhead by running two
 * code versions (localUnrollCount = unrollCount and 2x unrollCount, or 0
 * in basic mode) and reporting the normalized difference (§III-C).
 *
 * Two modes mirror the two nanoBench variants (§III-D):
 *  - Kernel: privileged instructions allowed, interrupts disabled during
 *    measurements, APERF/MPERF and uncore counters readable, memory
 *    areas backed by physically-contiguous pages, and an optional large
 *    physically-contiguous R14 area (§III-G, §IV-D).
 *  - User: no privileged instructions, timer interrupts perturb runs,
 *    memory areas are backed by scattered physical pages, and counter
 *    (re)programming costs simulated syscalls.
 */

#ifndef NB_CORE_RUNNER_HH
#define NB_CORE_RUNNER_HH

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hh"
#include "core/codegen.hh"
#include "core/config.hh"
#include "core/result.hh"
#include "kernel/kalloc.hh"
#include "obs/metrics.hh"
#include "sim/machine.hh"

namespace nb::core
{

/** Which nanoBench variant to model (§III-D). */
enum class Mode : std::uint8_t
{
    User,
    Kernel,
};

/** Human-readable name of a Mode ("user" / "kernel"). */
const char *modeName(Mode mode);

/**
 * Opt-in spec linting threshold (the static analyzer in
 * src/analysis/). Off keeps the pre-lint behavior: specs run
 * unchecked. Warn fails the run on warning-or-worse diagnostics,
 * Error only on error-severity ones; either failure surfaces as a
 * typed RunError (LintError) from Session::run, never as an abort.
 */
enum class LintLevel : std::uint8_t
{
    Off,
    Warn,
    Error,
};

/** Human-readable name ("off" / "warn" / "error"). */
const char *lintLevelName(LintLevel level);

/** Inverse of lintLevelName(); std::nullopt for unknown names. */
std::optional<LintLevel> lintLevelFromName(std::string_view name);

/** User-visible benchmark parameters (the CLI options, §III). */
struct BenchmarkSpec
{
    /** Benchmark body (Intel-syntax assembly, §III-E). */
    std::string asmCode;
    /** Initialization part, not measured (§III-A). */
    std::string asmInit;
    /** Pre-assembled alternatives to the strings above. */
    std::vector<x86::Instruction> code;
    std::vector<x86::Instruction> init;

    /** Defaults follow the paper's shell-script front end (§III-E),
     *  which the CLI usage text advertises: 100 unrolled copies and 2
     *  discarded warm-up runs. */
    std::uint64_t unrollCount = 100;
    std::uint64_t loopCount = 0;
    unsigned nMeasurements = 10;
    unsigned warmUpCount = 2;
    Aggregate agg = Aggregate::Median;
    /** Second run uses localUnrollCount=0 instead of 2x (§III-C). */
    bool basicMode = false;
    bool noMem = false;
    SerializeMode serialize = SerializeMode::Lfence;
    /** Also read the fixed-function counters (Intel). */
    bool fixedCounters = true;
    /** Read APERF/MPERF via RDMSR (kernel mode only, §II-A1). */
    bool aperfMperf = false;
    /** Static-analysis opt-in (observe-only default: Off). */
    LintLevel lintLevel = LintLevel::Off;
    /**
     * Cycle budget for the whole run() (0 = unlimited): once the
     * simulated machine has consumed this many cycles across every
     * warm-up and measurement execution of this spec, the run stops
     * with nb::BudgetExceededError (surfaced by the session/campaign
     * layers as RunError::Code::BudgetExceeded). The runaway-spec
     * guard: an R1-style infinite loop that dodges the opt-in linter
     * returns a typed error instead of hanging a worker. Campaigns
     * can impose a default via CampaignOptions::specBudget.
     */
    std::uint64_t cycleBudget = 0;
    /** Programmable events. */
    CounterConfig config;

    /** Compact one-line echo of the spec (the BenchmarkResult
     *  metadata). */
    std::string summary() const;
};

/** A structural problem with a BenchmarkSpec, found before running. */
struct SpecIssue
{
    enum class Kind : std::uint8_t
    {
        /** The spec's parameters are unusable on any runner (e.g.
         *  nMeasurements == 0: the aggregate of an empty measurement
         *  set is undefined). */
        Invalid,
        /** The spec asks for a feature this runner's mode cannot
         *  provide (e.g. APERF/MPERF in user mode, §II-A1). */
        Unsupported,
    };

    Kind kind = Kind::Invalid;
    std::string message;
};

/**
 * Validate a spec's parameters against a runner mode. Returns the
 * first problem found, or std::nullopt for a clean spec. Runner::run
 * calls this and fatal()s on an issue (instead of tripping asserts or
 * worse deep inside the measurement loop); Session::run calls it to
 * produce typed RunErrors. Note the body is checked elsewhere (it may
 * still be unassembled text here).
 */
std::optional<SpecIssue> validateSpec(const BenchmarkSpec &spec,
                                      Mode mode);

/**
 * Canonical text key of a spec: two specs compare equal iff their
 * keys are equal. Covers every BenchmarkSpec field, including
 * pre-assembled code (by its encoding) and the counter config. Used
 * by campaign dedup.
 */
std::string specCanonicalKey(const BenchmarkSpec &spec);

/** FNV-1a hash of specCanonicalKey() (stable across runs). */
std::uint64_t specHash(const BenchmarkSpec &spec);

/** The benchmark runner; owns the memory-area setup for one machine. */
class Runner
{
  public:
    Runner(sim::Machine &machine, Mode mode);

    Mode mode() const { return mode_; }
    sim::Machine &machine() { return machine_; }
    kernel::KernelAllocator &allocator() { return alloc_; }

    /** Run a benchmark and return the aggregated, normalized results. */
    BenchmarkResult run(const BenchmarkSpec &spec);

    /**
     * Return the machine and this runner to their state at the last
     * markResetPoint() -- by default the state a just-built
     * Machine(ua, seed) + Runner(machine, mode) pair is in -- in
     * O(state touched since the last reset): Machine::reset(), then
     * the allocator cursor and R14 area as they stood at the mark, and
     * zeroed phase times, decodes(), lastRunCycles() and
     * lastRunRounds(). Kept: the decode-counter attachment and the
     * decoded syscall-overhead program (immutable, per uarch).
     */
    void reset();

    /**
     * Make the current state the one reset() returns to: the allocator
     * cursor, the R14 area, and Machine::markResetPoint() (page
     * mappings, RNG, prefetcher control, ...). The constructor marks
     * the state right after its memory-area setup; a campaign worker
     * marks again after its machine setup hook (reserveR14Area, MSR
     * writes). Nothing may have run on the machine yet (asserted).
     */
    void markResetPoint();

    /**
     * Reserve a physically-contiguous memory area of @p size bytes that
     * R14 will point to (kernel mode only; §III-G / §IV-D). Returns
     * false if the greedy allocation failed (reboot suggested).
     */
    bool reserveR14Area(Addr size);

    /** Base virtual addresses of the dedicated memory areas (§III-G). */
    Addr r14Area() const { return r14Base_; }
    Addr rdiArea() const { return rdiBase_; }
    Addr rsiArea() const { return rsiBase_; }
    Addr rbpArea() const { return rbpBase_; }
    Addr rspArea() const { return rspBase_; }
    /** Size of the R14 area (1 MB unless reserveR14Area enlarged it). */
    Addr r14AreaSize() const { return r14Size_; }
    /** Base of the results/scratch area the memory-mode readout spills
     *  counters into (layout::kAreaSize bytes; the lint footprint rule
     *  flags microbenchmarks that touch it). */
    Addr resultArea() const { return resultBase_; }

    /** Total simulated cycles spent in the last run() call (for the
     *  §III-K execution-time experiment). */
    Cycles lastRunCycles() const { return lastRunCycles_; }

    /** Counter rounds the last run() call executed: the rounds that
     *  program counters, plus a fixed-counter-only first round. */
    std::uint64_t lastRunRounds() const { return lastRunRounds_; }

    /**
     * Cumulative wall time this runner spent per pipeline phase
     * (obs::Phase) across all run() calls since construction or
     * reset(). Codegen/Decode accrue once per
     * (round, unroll-version) per run(); Assemble accrues here when
     * run() parses asm text itself and via addPhaseTime() when the
     * session layer (runSpecOnRunner) pre-assembles. A campaign worker
     * adds it to its phase totals after every spec.
     */
    const obs::PhaseTimes &phaseTimes() const { return phaseTimes_; }

    /**
     * Credit @p ns of externally-timed work to @p phase: adds to
     * phaseTimes() and feeds the process-wide "runner.phase.<name>"
     * histograms (obs::Registry::process()).
     */
    void addPhaseTime(obs::Phase phase, std::uint64_t ns);

    /**
     * Measurement programs this runner decoded since construction or
     * reset(): one per counter round per run(), shared by both unroll
     * versions and however many warm-up and measurement iterations
     * they serve. A count growing with nMeasurements would mean the
     * codegen hoisting (§III-C) regressed.
     */
    std::uint64_t decodes() const { return decodes_; }

    /**
     * Also count every decode into @p counter (Engine telemetry: one
     * counter shared by all runners an engine creates). Shared
     * ownership, because sessions may outlive their engine.
     */
    void countDecodesInto(
        std::shared_ptr<std::atomic<std::uint64_t>> counter)
    {
        decodeCounter_ = std::move(counter);
    }

  private:
    void setupMemoryAreas();
    void initRegisters();
    /** Models the syscall cost of (re)programming counters in user
     *  mode. */
    void userModeProgrammingOverhead();

    /**
     * Generate and decode the measurement programs of one counter
     * round, once for both unroll versions (localUnrollCount
     * @p unroll_a and @p unroll_b; @p params.localUnrollCount is
     * ignored): the two share their decoded entries (see
     * MeasurementLayout). run() builds them once per round and drops
     * them when the round's iterations are done: like nanoBench, every
     * run generates fresh code (§III-C).
     */
    std::array<sim::Program, 2>
    measurementPrograms(const GenParams &params, std::uint64_t unroll_a,
                        std::uint64_t unroll_b);

    /** Raw m2-m1 values for one measurement-program execution. */
    std::vector<double> executeOnce(const sim::Program &prog,
                                    const GenParams &params);

    sim::Machine &machine_;
    Mode mode_;
    kernel::KernelAllocator alloc_;
    Addr r14Base_ = 0;
    Addr rdiBase_ = 0;
    Addr rsiBase_ = 0;
    Addr rbpBase_ = 0;
    Addr rspBase_ = 0;
    Addr resultBase_ = 0;
    Addr r14Size_ = 0;
    /** What reset() restores: the allocator cursor and R14 area at
     *  the last markResetPoint() (reserveR14Area changes only these). */
    kernel::KernelAllocator::Cursor setupCursor_{};
    Addr setupR14Base_ = 0;
    Addr setupR14Size_ = 0;
    Cycles lastRunCycles_ = 0;
    std::uint64_t lastRunRounds_ = 0;
    /** Cumulative per-phase wall time (see phaseTimes()). */
    obs::PhaseTimes phaseTimes_;
    /** Cached process-registry histogram handles, one per phase
     *  (registration is mutex-protected; updates are lock-free). */
    std::array<obs::Histogram *, obs::kNumPhases> phaseHist_{};

    /** See decodes() and countDecodesInto(). */
    std::uint64_t decodes_ = 0;
    std::shared_ptr<std::atomic<std::uint64_t>> decodeCounter_;
    /** Predecoded user-mode counter-programming overhead (a repeat-
     *  encoded NOP block), built on first use. */
    std::optional<sim::Program> syscallProgram_;
};

} // namespace nb::core

#endif // NB_CORE_RUNNER_HH
