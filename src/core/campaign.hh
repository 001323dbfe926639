/**
 * @file
 * Parallel campaign executor (Engine::runCampaign).
 *
 * The paper's headline use case is uops.info-style campaigns that run
 * thousands of microbenchmarks per microarchitecture (§V). A campaign
 * takes a vector of BenchmarkSpecs and fans it out across N worker
 * threads. Guarantees:
 *
 *  - Isolation: each worker builds one private machine + runner
 *    pair (uarch, mode and seed from CampaignOptions::session), runs
 *    the machineSetup hook on it once, and marks that post-setup
 *    state as the reset point (Runner::markResetPoint). Before every
 *    unique spec the worker resets back to it, in O(state touched)
 *    -- so every outcome is a pure function of its spec. Campaigns do
 *    not use the Engine's session pool.
 *
 *  - Order: the returned outcomes vector has exactly one entry per
 *    input spec, in input order, regardless of which worker ran it.
 *
 *  - Determinism: because no outcome depends on what ran before it,
 *    the output is bit-identical for any worker count, any
 *    interleaving, and across a checkpoint/resume cycle (see
 *    CampaignOptions::resume). Workers therefore pull specs from one
 *    shared queue, heaviest first by a shape estimate (body length x
 *    unroll x max(loop, 1) x (warm-up + measurements) x counter
 *    rounds, ties in plan order), so one long spec does not end up
 *    last on a worker.
 *
 *  - Dedup: identical specs -- compared by a canonical key covering
 *    every BenchmarkSpec field -- are executed once and their result
 *    shared across all duplicate slots (opt out via
 *    CampaignOptions::dedup). Dedup happens before the fan-out, so
 *    it is deterministic too: a duplicate always resolves to the
 *    outcome of its first occurrence.
 *
 * Alongside the outcomes the executor returns a CampaignReport with
 * wall time, per-worker spec counts, an error histogram by
 * RunError::Code, and cache-hit stats; the report serializes to JSON
 * (round-trippable) and CSV in the same dialect as BenchmarkResult.
 */

#ifndef NB_CORE_CAMPAIGN_HH
#define NB_CORE_CAMPAIGN_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace nb
{

/**
 * Cooperative cancellation for campaigns. Workers poll the token at
 * every spec pickup; once cancelled, no new specs start, in-flight
 * specs finish, and every spec that never ran settles as a typed
 * RunError::Code::Cancelled outcome in a partial CampaignReport.
 * cancel() is one relaxed atomic store, so it is safe to call from a
 * signal handler (the CLI's SIGINT path) or any thread.
 */
class CancelToken
{
  public:
    void cancel() { flag_.store(true, std::memory_order_relaxed); }
    bool
    cancelled() const
    {
        return flag_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> flag_{false};
};

/**
 * Install a process SIGINT handler that cancels @p token (keeping it
 * alive until cleared). The handler performs one relaxed atomic store
 * -- async-signal-safe -- and leaves writing partial reports and
 * flushing checkpoints to the interrupted campaign's normal exit
 * path. Pass nullptr (or call clearSigintCancel()) to restore the
 * default disposition.
 */
void installSigintCancel(std::shared_ptr<CancelToken> token);
void clearSigintCancel();

/**
 * One campaign progress event. Two events fire per unique spec: one
 * with starting == true when a worker picks it up (so long-running
 * campaigns are attributable -- the callback sees *which* spec is in
 * flight, not just a count), and one with starting == false when it
 * settles (done then includes the spec and its dedup duplicates).
 */
struct CampaignProgress
{
    /** Input specs settled so far (duplicates settle together). */
    std::size_t done = 0;
    /** Total input specs. */
    std::size_t total = 0;
    /** Canonical key (specCanonicalKey) of the spec in flight. */
    std::string specKey;
    /** Human-readable one-line echo (BenchmarkSpec::summary). */
    std::string specLabel;
    /** true: the spec just started on a worker; false: it settled. */
    bool starting = false;
};

/** Options for Engine::runCampaign(). */
struct CampaignOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency()
     *  (clamped to the number of unique specs). */
    unsigned jobs = 0;

    /** The worker count jobs resolves to: itself if non-zero, else
     *  hardware_concurrency(), never less than 1. runCampaign() uses
     *  this (and additionally clamps to the unique-spec count), so a
     *  zero never reaches the worker setup. */
    unsigned resolvedJobs() const;
    /** Execute identical specs once and share the outcome. */
    bool dedup = true;
    /** Machine selection (uarch, mode, seed, default counter
     *  config) for the workers. */
    SessionOptions session;
    /**
     * Ignored: every campaign resets to its post-setup reset point
     * before each unique spec. Still declared only because the
     * end-to-end benchmark (perfbench/src/main.cc) assigns it; the
     * next change to that benchmark deletes it.
     */
    bool freshMachinePerSpec = false;
    /**
     * Machine preparation hook, run once on each worker's runner right
     * after construction, before the worker marks its reset point --
     * so every spec starts from the state the hook left. Campaign
     * planners use this to reproduce the machine state their specs
     * assume -- e.g. the profile builder reserves the R14 area its
     * planned addresses point into and disables the hardware
     * prefetchers. The hook may map memory, draw from the RNG and
     * write settings and MSRs, but must not execute code or write
     * memory (Machine::markResetPoint() asserts this). Invoked
     * concurrently from worker threads, each on its own runner, so it
     * must not touch shared mutable state.
     */
    std::function<void(core::Runner &)> machineSetup;
    /**
     * Called when a spec starts on a worker and again when it settles
     * (see CampaignProgress). Invoked from worker threads under a
     * campaign-internal mutex, so the callback itself need not be
     * thread-safe; it must not call back into the campaign.
     */
    std::function<void(const CampaignProgress &)> progress;
    /**
     * Span tracer (not owned; may be null). When set and enabled, the
     * campaign records a whole-campaign span plus one span per unique
     * spec on its worker's lane (tid = worker index), Perfetto-ready
     * via obs::Tracer::writeFile. A null or disabled tracer costs one
     * predicted branch per spec.
     */
    obs::Tracer *trace = nullptr;
    /**
     * Attach a per-worker sim::ExecObserver to each worker's machine
     * for the duration of the campaign, and fold the totals into the
     * process registry ("campaign.observed.*" counters). Observation
     * never perturbs outcomes (the parity tests pin bit-identity), so
     * golden tables may be regenerated with this on.
     */
    bool observe = false;
    /**
     * Default cycle budget (0 = none) for specs that do not carry
     * their own BenchmarkSpec::cycleBudget. Applied to the resolved
     * spec at execution time -- after dedup keys are computed -- so
     * canonical keys, dedup behavior, and golden artifacts are
     * unaffected; only a runaway spec can observe the difference (it
     * settles as RunError::Code::BudgetExceeded instead of hanging a
     * worker). The table/profile builders arm this so a planner bug
     * can never hang a golden-regeneration CI job.
     */
    std::uint64_t specBudget = 0;
    /**
     * Retry a spec whose outcome is a *transient* error (see
     * RunError::transient) up to this many times, with a short
     * exponential backoff between attempts. Permanent errors fail
     * fast. Retries count into CampaignReport::retries and the
     * "campaign.retries.*" process counters.
     */
    unsigned maxRetries = 0;
    /**
     * Checkpoint journal path (empty = off). The campaign appends one
     * line per settled unique spec -- its canonical key and full
     * outcome -- flushing every checkpointEvery entries, so a killed
     * or cancelled campaign can be resumed. Write failures degrade
     * (the campaign finishes without a journal) rather than abort.
     */
    std::string checkpoint;
    /** Settled unique specs between checkpoint flushes. */
    std::size_t checkpointEvery = 16;
    /**
     * Resume from a checkpoint journal written by a previous
     * (interrupted) run of the same campaign: unique specs whose
     * canonical keys appear in the journal settle from their recorded
     * outcomes without executing; everything else runs normally. The
     * journal's uarch/mode must match the campaign's (canonical keys
     * do not cover them). A truncated trailing line -- the kill -9
     * case -- is ignored. The resulting outcomes and report are
     * bit-identical (modulo wall-time and per-worker fields) to an
     * uninterrupted run.
     */
    std::string resume;
    /** Cooperative cancellation (may be null; see CancelToken). */
    std::shared_ptr<CancelToken> cancel;
};

/**
 * The CampaignOptions::specBudget the table/profile builders arm by
 * default: generous enough that no sane characterization spec gets
 * near it (the longest golden-table specs retire well under 10M
 * cycles), so golden artifacts stay byte-identical, while a planner
 * bug that would otherwise hang a builder job settles as a
 * BudgetExceeded outcome in seconds.
 */
inline constexpr std::uint64_t kBuilderSpecBudget = 2'000'000'000;

/** Execution statistics of one campaign. */
struct CampaignReport
{
    /** Worker threads actually used. */
    unsigned jobs = 0;
    /** Input specs submitted. */
    std::size_t totalSpecs = 0;
    /** Specs actually executed after dedup. */
    std::size_t uniqueSpecs = 0;
    /** Input specs served from the dedup cache. */
    std::size_t cacheHits = 0;
    /** Outcomes (over all input specs) that were ok(). */
    std::size_t okCount = 0;
    /** Wall-clock time of the whole campaign in seconds. */
    double wallSeconds = 0.0;
    /** Specs executed by each worker (size == jobs). */
    std::vector<std::size_t> perWorkerSpecs;
    /** Wall-clock seconds each worker spent in its run loop (size ==
     *  jobs): the spread is the load imbalance. */
    std::vector<double> perWorkerSeconds;
    /** Aggregate per-phase runner time across all workers
     *  (obs::Phase): where the campaign's CPU time actually went. */
    obs::PhaseTimes phaseTimes;
    /** Failed outcomes (over all input specs) by RunError code,
     *  indexed by static_cast<unsigned>(RunError::Code). */
    std::vector<std::size_t> errorHistogram =
        std::vector<std::size_t>(kNumRunErrorCodes, 0);
    /** Transient-failure retry attempts across all workers. */
    std::size_t retries = 0;
    /** Unique specs settled from the resume journal (not executed). */
    std::size_t resumedSpecs = 0;
    /** True if the campaign was cancelled before completing; specs
     *  that never ran settled as RunError::Code::Cancelled. */
    bool cancelled = false;
    /** Engine::telemetry() snapshot taken when the campaign finished:
     *  how hard the machine pool, program decoder, and process-wide
     *  memos worked. (The memos aggregate over the whole process, not
     *  just this campaign -- see telemetry.hh.) */
    EngineTelemetry telemetry;

    /** Failed outcomes over all input specs. */
    std::size_t errorCount() const;

    /** Serialize to a self-contained JSON object. */
    std::string toJson() const;

    /** Serialize to CSV ("key,value" rows, the BenchmarkResult
     *  dialect). */
    std::string toCsv() const;

    /** Parse a report back from toJson() output.
     *  @throws nb::FatalError on malformed input. */
    static CampaignReport fromJson(const std::string &text);
};

/** Everything Engine::runCampaign() produces. */
struct CampaignResult
{
    /** One outcome per input spec, in input order. */
    std::vector<RunOutcome> outcomes;
    CampaignReport report;
};

/**
 * One parsed spec-file line: either a ready BenchmarkSpec or a parse
 * error. A malformed line (unknown option, bad aggregate name, ...)
 * must not kill a whole campaign, so errors are per-entry data; the
 * message carries the 1-based line number.
 */
struct SpecFileEntry
{
    std::size_t lineNumber = 0;
    core::BenchmarkSpec spec;
    /** Set iff the line failed to parse; spec is meaningless then. */
    std::optional<RunError> error;
};

/**
 * Parse spec-file text: one benchmark per line, '#' starts a comment,
 * blank lines are skipped. A plain line is an -asm style benchmark
 * body. A line starting with '-' is parsed as per-line options
 * (double-quote aware), e.g.:
 *
 *     -asm "div RBX" -agg min -unroll_count 10
 *
 * supporting -asm, -asm_init, -unroll_count, -loop_count,
 * -n_measurements, -warm_up_count, -agg, -serialize, -basic_mode,
 * -no_mem, -aperf_mperf, and -config FILE (a per-line counter-config
 * file, so one campaign can mix event sets; an unreadable path
 * reports as that line's error). Each line's spec starts from
 * @p defaults. Never throws for line-level problems: malformed lines
 * come back as entries with error set, in position.
 */
std::vector<SpecFileEntry> parseSpecLines(
    const std::string &text, const core::BenchmarkSpec &defaults);

/**
 * Canonical text key of a spec: two specs compare equal (for campaign
 * dedup) iff their keys are equal. Covers every BenchmarkSpec field,
 * including pre-assembled code (by its encoding) and the counter
 * config. Lives at the spec level (core/runner.hh), next to the spec;
 * re-exported here for the campaign-facing callers. specHash is its
 * stable FNV-1a hash.
 */
using core::specCanonicalKey;
using core::specHash;

} // namespace nb

#endif // NB_CORE_CAMPAIGN_HH
