/**
 * @file
 * Reusable benchmark-execution API.
 *
 * The paper's shell scripts run one benchmark per process on one
 * machine and abort on error. This layer makes the same machinery
 * reusable and batchable:
 *
 *  - An Engine owns a pool of simulated machine + runner pairs, keyed
 *    by (uarch, mode, seed). Requesting a session for a key that was
 *    already built reuses the warmed-up machine instead of paying the
 *    full construction cost again.
 *
 *  - A Session is a lightweight handle on one pooled machine. It runs
 *    a single BenchmarkSpec (run()) or a whole batch (runBatch()),
 *    returning RunOutcome values: user-level failures (malformed
 *    assembly, invalid parameters, privileged instructions in user
 *    mode) come back as RunError data instead of unwinding the caller,
 *    so one bad spec cannot take down a batch. Internal invariant
 *    violations still panic() -- those are bugs, not inputs.
 *
 *  - One session is one machine, with its history: a spec run on a
 *    Session sees the caches, predictors, RNG stream and memory that
 *    earlier runs on the same machine left behind (as a benchmark on
 *    real hardware would). Callers that need every result to be a
 *    pure function of its spec use runCampaign() instead, whose
 *    workers reset their private machines before every spec (see
 *    campaign.hh).
 *
 * Sessions keep their machine alive through a shared lease: an Engine
 * may be destroyed (or its pool cleared) while sessions on it are
 * still in use. Engine::session() is thread-safe; an individual
 * Session (and the machine behind it) is not, so run benchmarks on a
 * session from one thread at a time.
 */

#ifndef NB_CORE_ENGINE_HH
#define NB_CORE_ENGINE_HH

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/runner.hh"
#include "core/telemetry.hh"

namespace nb
{

namespace detail
{

/** One pooled machine + runner pair (shared by sessions). */
struct MachineLease
{
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<core::Runner> runner;
};

} // namespace detail

/** A user-level benchmark failure, reported as data (not an abort). */
struct RunError
{
    enum class Code : std::uint8_t
    {
        /** The spec itself is unusable (e.g. empty benchmark body). */
        InvalidSpec,
        /** The asm text of the body or init part did not assemble. */
        AssemblyError,
        /** The spec asks for a feature this session cannot provide
         *  (e.g. APERF/MPERF in user mode, §II-A1). */
        Unsupported,
        /** The spec opted into linting (BenchmarkSpec::lintLevel) and
         *  the static analyzer found diagnostics at or above the
         *  requested threshold. */
        LintError,
        /** The benchmark failed while executing (e.g. a privileged
         *  instruction in user mode, a bad memory access). */
        ExecutionError,
        /** The run exceeded its cycle budget
         *  (BenchmarkSpec::cycleBudget / CampaignOptions::specBudget)
         *  and was stopped; the message carries the partial progress
         *  (instructions retired, cycles consumed, PMU state). */
        BudgetExceeded,
        /** The campaign was cancelled (CancelToken / SIGINT) before
         *  this spec ran. */
        Cancelled,
        // Keep Cancelled last: kNumRunErrorCodes (and the histograms
        // sized by it) is asserted against it below.
    };

    Code code = Code::ExecutionError;
    std::string message;
    /** Transient failures (injected transient faults, cancelled-
     *  before-run) are worth retrying; the campaign worker loop
     *  retries them up to CampaignOptions::maxRetries times.
     *  Permanent failures fail fast. */
    bool transient = false;
};

/** Human-readable name of a RunError code. */
const char *runErrorCodeName(RunError::Code code);

/** Number of distinct RunError codes (histogram sizing). */
inline constexpr unsigned kNumRunErrorCodes = 7;
static_assert(static_cast<unsigned>(RunError::Code::Cancelled) ==
                  kNumRunErrorCodes - 1,
              "kNumRunErrorCodes must track RunError::Code");

/** Inverse of runErrorCodeName(); std::nullopt for unknown names. */
std::optional<RunError::Code> runErrorCodeFromName(
    const std::string &name);

class RunOutcome;

/**
 * Counters of the session-layer assembly memo: runSpecOnRunner()
 * parses each distinct asm text once per process and serves repeats
 * from the memo (campaign warm-ups, repeated specs, and profile
 * re-runs stop re-parsing). Monotonic and process-wide; thread-safe.
 */
CacheStats assembleCacheCounters();

/**
 * Run one spec on a bare Runner with Session::run() semantics:
 * assembly problems, invalid parameters (validateSpec), and execution
 * failures come back as RunError outcomes instead of unwinding. This
 * is the shared classification path -- Session::run() delegates here,
 * and tools holding a Runner directly (e.g. the characterizer) get
 * identical error taxonomy without a Session.
 */
RunOutcome runSpecOnRunner(core::Runner &runner,
                           core::BenchmarkSpec spec);

/** Result of one Session::run(): a BenchmarkResult or a RunError. */
class RunOutcome
{
  public:
    /*implicit*/ RunOutcome(core::BenchmarkResult result)
        : result_(std::move(result)), ok_(true)
    {
    }

    /*implicit*/ RunOutcome(RunError error)
        : error_(std::move(error)), ok_(false)
    {
    }

    bool ok() const { return ok_; }
    explicit operator bool() const { return ok_; }

    /** The benchmark result; asserts ok(). */
    const core::BenchmarkResult &result() const;
    core::BenchmarkResult &result();

    /** The failure; asserts !ok(). */
    const RunError &error() const;

    /** The result if ok(); @throws nb::FatalError otherwise. */
    const core::BenchmarkResult &resultOrThrow() const;

  private:
    core::BenchmarkResult result_;
    RunError error_;
    bool ok_;
};

/** Options selecting (and configuring) one pooled machine. */
struct SessionOptions
{
    std::string uarch = "Skylake";
    core::Mode mode = core::Mode::Kernel;
    std::uint64_t seed = 42;
    /** Path of a counter-config file, parsed once when the session is
     *  created; empty = none. */
    std::string configFile;
    /** Events used when a spec's own config is empty (overrides
     *  configFile if both are set). */
    core::CounterConfig config;
};

/**
 * A handle on one pooled machine, able to run benchmarks against it.
 * Copyable and cheap to pass around; copies share the same machine.
 */
class Session
{
  public:
    /**
     * Run one benchmark. User-level failures are returned as RunError
     * outcomes; PanicError (library bugs) still propagates.
     */
    RunOutcome run(const core::BenchmarkSpec &spec);

    /**
     * Run a batch of benchmarks against this session's machine. The
     * returned vector has exactly one outcome per spec, in spec order;
     * failures are recorded and the batch continues.
     */
    std::vector<RunOutcome> runBatch(
        const std::vector<core::BenchmarkSpec> &specs);

    /** run() + resultOrThrow(): for callers that want abort-on-error
     *  semantics (the CLI, one-shot drivers). */
    core::BenchmarkResult runOrThrow(const core::BenchmarkSpec &spec);

    sim::Machine &machine() { return *lease_->machine; }
    core::Runner &runner() { return *lease_->runner; }
    const SessionOptions &options() const { return options_; }
    const std::string &uarch() const { return options_.uarch; }
    core::Mode mode() const { return options_.mode; }

  private:
    friend class Engine;
    Session(std::shared_ptr<detail::MachineLease> lease,
            SessionOptions options)
        : lease_(std::move(lease)), options_(std::move(options))
    {
    }

    std::shared_ptr<detail::MachineLease> lease_;
    SessionOptions options_;
};

// Campaign executor types (campaign.hh); runCampaign() is declared
// here so the Engine owns the entry point, and defined in campaign.cc.
struct CampaignOptions;
struct CampaignResult;

/**
 * The machine pool. session() hands out Sessions backed by cached
 * machines; identical (uarch, mode, seed) keys share one machine.
 */
class Engine
{
  public:
    Engine() = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Create (or reuse) a machine for the options and return a
     *  session on it. @throws nb::FatalError for an unknown uarch or
     *  an unreadable configFile. */
    Session session(const SessionOptions &options = {});

    /**
     * Run a campaign: fan @p specs out across worker threads, each
     * resetting its own private machine before every spec (see
     * campaign.hh for the options, report, and guarantees). Outcomes
     * come back in spec order. @throws nb::FatalError for an unknown
     * uarch or an unreadable configFile (before any work starts).
     */
    CampaignResult runCampaign(
        const std::vector<core::BenchmarkSpec> &specs,
        const CampaignOptions &options);

    /** Number of distinct machines currently pooled. Only session()
     *  pools machines; campaign workers build private ones. */
    std::size_t poolSize() const;

    /**
     * Total machines constructed over this engine's LIFETIME: the
     * machines session() pools and the private machine each campaign
     * worker builds. This is a monotonic counter, deliberately not
     * tied to the pool's
     * current contents: clearPool() drops the machines but keeps the
     * counters, so construction cost across clears stays visible.
     * Call resetStats() for a fresh measurement window.
     */
    std::uint64_t machinesConstructed() const;

    /**
     * session() calls served from the pool without construction, over
     * the engine's lifetime (monotonic, survives clearPool(); see
     * machinesConstructed()).
     */
    std::uint64_t poolHits() const;

    /** Drop all pooled machines. Outstanding sessions keep theirs
     *  alive through their lease; new sessions get fresh machines.
     *  The lifetime counters are NOT reset -- use resetStats(). */
    void clearPool();

    /** Zero machinesConstructed(), poolHits(), and the program-decode
     *  count without touching the pool. Benches use this to open a
     *  clean measurement window after warm-up. */
    void resetStats();

    /**
     * Unified snapshot of every cache and pool counter: the machine
     * pool, the measurement programs decoded by this engine's runners
     * (program.misses; nothing retains a decoded program, so hits and
     * evictions are always 0), and the process-wide assembly and lint
     * memos (see telemetry.hh for the aggregation caveat on the latter
     * two). Serializable via EngineTelemetry::toJson()/toCsv(); the
     * CLI dumps it with -stats.
     */
    EngineTelemetry telemetry() const;

  private:
    using PoolKey = std::tuple<std::string, core::Mode, std::uint64_t>;

    mutable std::mutex mutex_;
    std::map<PoolKey, std::shared_ptr<detail::MachineLease>> pool_;
    std::uint64_t constructed_ = 0;
    std::uint64_t hits_ = 0;
    /** Measurement programs decoded by every runner this engine
     *  creates (Runner::countDecodesInto): pooled session runners and
     *  the per-worker runners of campaigns. Shared ownership, because
     *  sessions may outlive the engine. */
    std::shared_ptr<std::atomic<std::uint64_t>> decodes_ =
        std::make_shared<std::atomic<std::uint64_t>>(0);
};

} // namespace nb

#endif // NB_CORE_ENGINE_HH
