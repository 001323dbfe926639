/**
 * @file
 * Engine / Session implementation.
 */

#include "engine.hh"

#include <chrono>

#include "analysis/analysis.hh"
#include "fault/fault.hh"
#include "obs/metrics.hh"
#include "uarch/uarch.hh"
#include "x86/assembler.hh"

namespace nb
{

namespace
{

/** The session-layer assembly memo: each distinct source text is
 *  parsed once per process. Only successful parses are cached; syntax
 *  errors propagate (they abort the spec anyway, so re-parsing a bad
 *  text is the rare path). */
Memo<std::vector<x86::Instruction>> &
assembleMemo()
{
    static Memo<std::vector<x86::Instruction>> memo;
    return memo;
}

std::vector<x86::Instruction>
assembleMemoized(const std::string &source)
{
    return *assembleMemo().get(source,
                               [&] { return x86::assemble(source); });
}

} // namespace

CacheStats
assembleCacheCounters()
{
    return assembleMemo().stats();
}

const char *
runErrorCodeName(RunError::Code code)
{
    switch (code) {
      case RunError::Code::InvalidSpec: return "invalid-spec";
      case RunError::Code::AssemblyError: return "assembly-error";
      case RunError::Code::Unsupported: return "unsupported";
      case RunError::Code::LintError: return "lint-error";
      case RunError::Code::ExecutionError: return "execution-error";
      case RunError::Code::BudgetExceeded: return "budget-exceeded";
      case RunError::Code::Cancelled: return "cancelled";
    }
    return "unknown";
}

std::optional<RunError::Code>
runErrorCodeFromName(const std::string &name)
{
    for (unsigned i = 0; i < kNumRunErrorCodes; ++i) {
        auto code = static_cast<RunError::Code>(i);
        if (name == runErrorCodeName(code))
            return code;
    }
    return std::nullopt;
}

// ----------------------------------------------------------- outcome --

const core::BenchmarkResult &
RunOutcome::result() const
{
    NB_ASSERT(ok_, "RunOutcome::result() on a failed outcome: ",
              error_.message);
    return result_;
}

core::BenchmarkResult &
RunOutcome::result()
{
    NB_ASSERT(ok_, "RunOutcome::result() on a failed outcome: ",
              error_.message);
    return result_;
}

const RunError &
RunOutcome::error() const
{
    NB_ASSERT(!ok_, "RunOutcome::error() on a successful outcome");
    return error_;
}

const core::BenchmarkResult &
RunOutcome::resultOrThrow() const
{
    if (!ok_) {
        throw FatalError(std::string(runErrorCodeName(error_.code)) +
                         ": " + error_.message);
    }
    return result_;
}

// ----------------------------------------------------------- session --

RunOutcome
runSpecOnRunner(core::Runner &runner, core::BenchmarkSpec spec)
{
    // Failures below come back as RunError data; keep fatal()'s
    // courtesy stderr print quiet for them.
    ScopedFatalMessageSuppression suppress_fatal_prints;

    // Assemble up front so syntax errors are classified separately
    // from execution failures (and reported without running anything).
    // The time goes to the runner's Assemble phase: run() receives
    // pre-assembled code, so this is where the phase happens.
    auto assemble_start = std::chrono::steady_clock::now();
    if (spec.code.empty()) {
        if (spec.asmCode.empty()) {
            return RunError{RunError::Code::InvalidSpec,
                            "empty benchmark body"};
        }
        try {
            fault::maybeInject(fault::Site::Assemble);
            spec.code = assembleMemoized(spec.asmCode);
        } catch (const fault::InjectedFault &f) {
            return RunError{RunError::Code::AssemblyError, f.what(),
                            f.transient()};
        } catch (const FatalError &e) {
            return RunError{RunError::Code::AssemblyError, e.what()};
        }
    }
    if (spec.init.empty() && !spec.asmInit.empty()) {
        try {
            fault::maybeInject(fault::Site::Assemble);
            spec.init = assembleMemoized(spec.asmInit);
        } catch (const fault::InjectedFault &f) {
            return RunError{RunError::Code::AssemblyError, f.what(),
                            f.transient()};
        } catch (const FatalError &e) {
            return RunError{RunError::Code::AssemblyError, e.what()};
        }
    }
    runner.addPhaseTime(
        obs::Phase::Assemble,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - assemble_start)
                .count()));

    // Parameter validation before any work: typed errors instead of a
    // fatal() (or an assert) from deep inside the measurement loop.
    if (auto issue = core::validateSpec(spec, runner.mode())) {
        return RunError{issue->kind == core::SpecIssue::Kind::Invalid
                            ? RunError::Code::InvalidSpec
                            : RunError::Code::Unsupported,
                        issue->message};
    }

    // Opt-in static analysis (observe-only unless the spec asks):
    // diagnostics at or above the requested threshold become a typed
    // LintError instead of a meaningless measurement. Reports are
    // memoized per unique canonical spec key, so campaign re-runs and
    // warm-ups re-lint for free.
    if (spec.lintLevel != core::LintLevel::Off) {
        analysis::Severity threshold =
            spec.lintLevel == core::LintLevel::Warn
                ? analysis::Severity::Warning
                : analysis::Severity::Error;
        analysis::Report report = analysis::analyzeSpecCached(
            runner.machine().uarch(), spec,
            analysis::Context::forRunner(runner));
        if (report.countAtLeast(threshold) > 0) {
            std::string message;
            unsigned listed = 0;
            for (const analysis::Diagnostic &d : report.diagnostics) {
                if (static_cast<int>(d.severity) <
                    static_cast<int>(threshold))
                    continue;
                if (listed == 3) {
                    message += "; ...";
                    break;
                }
                if (listed > 0)
                    message += "; ";
                message += d.format();
                ++listed;
            }
            return RunError{RunError::Code::LintError, message};
        }
    }

    try {
        return RunOutcome(runner.run(spec));
    } catch (const BudgetExceededError &e) {
        // The resilience guard, not a spec defect per se: the message
        // carries the partial progress (instructions, cycles, PMU
        // snapshot) the dispatcher captured when the budget tripped.
        obs::Registry::process()
            .counter("runner.budget.exceeded")
            .add();
        return RunError{RunError::Code::BudgetExceeded, e.what()};
    } catch (const fault::InjectedFault &f) {
        return RunError{RunError::Code::ExecutionError, f.what(),
                        f.transient()};
    } catch (const FatalError &e) {
        return RunError{RunError::Code::ExecutionError, e.what()};
    }
}

RunOutcome
Session::run(const core::BenchmarkSpec &spec)
{
    core::BenchmarkSpec resolved = spec;
    if (resolved.config.empty())
        resolved.config = options_.config;
    return runSpecOnRunner(*lease_->runner, std::move(resolved));
}

std::vector<RunOutcome>
Session::runBatch(const std::vector<core::BenchmarkSpec> &specs)
{
    std::vector<RunOutcome> outcomes;
    outcomes.reserve(specs.size());
    for (const auto &spec : specs)
        outcomes.push_back(run(spec));
    return outcomes;
}

core::BenchmarkResult
Session::runOrThrow(const core::BenchmarkSpec &spec)
{
    RunOutcome outcome = run(spec);
    if (!outcome.ok())
        throw FatalError(outcome.error().message);
    return std::move(outcome.result());
}

// ------------------------------------------------------------ engine --

Session
Engine::session(const SessionOptions &options)
{
    SessionOptions resolved = options;
    if (resolved.config.empty() && !resolved.configFile.empty())
        resolved.config = core::CounterConfig::parseFile(
            resolved.configFile);

    // Resolve the uarch before touching the pool so unknown names
    // throw without leaving a half-built entry behind.
    const auto &ua = uarch::getMicroArch(resolved.uarch);

    PoolKey key{resolved.uarch, resolved.mode, resolved.seed,
                resolved.replica};
    std::shared_ptr<detail::MachineLease> lease;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = pool_.find(key);
        if (it != pool_.end()) {
            lease = it->second;
            ++hits_;
        }
    }
    if (!lease) {
        // Construct outside the lock: machine setup is the expensive
        // part, and concurrent sessions for other keys should not
        // serialize behind it.
        auto fresh = std::make_shared<detail::MachineLease>();
        fresh->machine =
            std::make_unique<sim::Machine>(ua, resolved.seed);
        fresh->runner = std::make_unique<core::Runner>(*fresh->machine,
                                                       resolved.mode);
        fresh->runner->setSharedProgramCache(programCache_);
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] = pool_.emplace(key, std::move(fresh));
        if (inserted)
            ++constructed_;
        else
            ++hits_; // another thread won the race; share its machine
        lease = it->second;
    }
    return Session(std::move(lease), std::move(resolved));
}

std::size_t
Engine::poolSize() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return pool_.size();
}

std::uint64_t
Engine::machinesConstructed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return constructed_;
}

std::uint64_t
Engine::poolHits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

void
Engine::clearPool()
{
    std::lock_guard<std::mutex> lock(mutex_);
    pool_.clear();
}

void
Engine::resetStats()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        constructed_ = 0;
        hits_ = 0;
    }
    programCache_->resetStats();
}

EngineTelemetry
Engine::telemetry() const
{
    EngineTelemetry t;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        t.poolSize = pool_.size();
        t.machinesConstructed = constructed_;
        t.poolHits = hits_;
    }
    t.programCacheSize = programCache_->size();
    t.program = programCache_->stats();
    t.assemble = assembleCacheCounters();
    t.lint = analysis::lintCacheCounters();
    return t;
}

} // namespace nb
