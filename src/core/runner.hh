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

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hh"
#include "core/codegen.hh"
#include "core/config.hh"
#include "core/memo.hh"
#include "core/result.hh"
#include "core/telemetry.hh"
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
 * by campaign dedup and the Runner's measurement-program cache.
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

    /**
     * Cumulative wall time this runner spent per pipeline phase
     * (obs::Phase) across all run() calls since construction or
     * resetPhaseTimes(). Codegen/Decode only accrue on measurement-
     * program cache misses; Assemble accrues here when run() parses
     * asm text itself and via addPhaseTime() when the session layer
     * (runSpecOnRunner) pre-assembles. The campaign executor windows
     * this accumulator per spec to aggregate per-worker phase totals.
     */
    const obs::PhaseTimes &phaseTimes() const { return phaseTimes_; }
    void resetPhaseTimes() { phaseTimes_ = {}; }

    /**
     * Credit @p ns of externally-timed work to @p phase: adds to
     * phaseTimes() and feeds the process-wide "runner.phase.<name>"
     * histograms (obs::Registry::process()).
     */
    void addPhaseTime(obs::Phase phase, std::uint64_t ns);

    /**
     * Measurement-program cache counters in the unified telemetry
     * shape: hits were served from this runner's local cache; misses
     * had to fetch from the shared cache or decode. One miss per
     * (round, unroll-version) per unique spec is the expected steady
     * state; misses growing with nMeasurements would mean the codegen
     * hoisting regressed.
     */
    CacheStats programStats() const { return programCache_.stats(); }
    /** Zero the cache counters (the cache itself is kept). */
    void resetProgramStats() { programCache_.resetStats(); }

    /**
     * Attach the engine-wide shared program cache (Engine::
     * programCache()). On a local-cache miss the runner consults --
     * and populates -- the shared cache before decoding; without one
     * attached it decodes privately. The runner holds cached programs
     * by shared_ptr, so they stay valid if the cache (or the engine
     * owning it) goes away mid-use.
     */
    void setSharedProgramCache(std::shared_ptr<Memo<sim::Program>> cache)
    {
        sharedCache_ = std::move(cache);
    }

  private:
    void setupMemoryAreas();
    void initRegisters();
    /** Models the syscall cost of (re)programming counters in user
     *  mode. */
    void userModeProgrammingOverhead();

    /**
     * The predecoded measurement program for one (spec, round,
     * unroll-version), built on first use and cached: all warm-up and
     * measurement iterations share one program, and a repeated spec
     * skips regeneration entirely. @p spec_key is the canonical spec
     * key; @p round the counter-round index; the unroll version comes
     * from @p params.localUnrollCount.
     */
    const sim::Program &measurementProgram(const std::string &spec_key,
                                           std::size_t round,
                                           const GenParams &params);

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
    Cycles lastRunCycles_ = 0;
    /** Cumulative per-phase wall time (see phaseTimes()). */
    obs::PhaseTimes phaseTimes_;
    /** Cached process-registry histogram handles, one per phase
     *  (registration is mutex-protected; updates are lock-free). */
    std::array<obs::Histogram *, obs::kNumPhases> phaseHist_{};

    /** Measurement programs keyed on (spec key, round, localUnroll).
     *  Values are shared with (and may originate from) the engine-wide
     *  cache. Bounded: campaigns stream thousands of unique specs
     *  through one pooled runner, and a dropped program is only a
     *  rebuild away. */
    Memo<sim::Program> programCache_{1024};
    /** Engine-wide cache, if attached (setSharedProgramCache). */
    std::shared_ptr<Memo<sim::Program>> sharedCache_;
    /** Predecoded user-mode counter-programming overhead (a repeat-
     *  encoded NOP block), built on first use. */
    std::optional<sim::Program> syscallProgram_;
};

} // namespace nb::core

#endif // NB_CORE_RUNNER_HH
