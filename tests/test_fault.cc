/**
 * @file
 * Tests for the resilience layer: cycle budgets (amortized checks in
 * the dispatch loop, typed BudgetExceeded outcomes), deterministic
 * fault injection at every named site, transient-retry semantics in
 * the campaign worker loop, checkpoint/resume bit-identity, and
 * cooperative (SIGINT) cancellation.
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <mutex>

#include "analysis/bound.hh"
#include "core/campaign.hh"
#include "core/memo.hh"
#include "fault/fault.hh"
#include "x86/assembler.hh"

namespace nb
{
namespace
{

using core::BenchmarkSpec;

/** n distinguishable, fast specs ("nop", "nop; nop", ...). */
std::vector<BenchmarkSpec>
countingSpecs(unsigned n)
{
    std::vector<BenchmarkSpec> specs(n);
    std::string body = "nop";
    for (unsigned i = 0; i < n; ++i) {
        specs[i].asmCode = body;
        body += "; nop";
    }
    return specs;
}

/** The R1 lint-rule spec: the body resets the R15 loop counter every
 *  iteration, so with loopCount > 0 and linting off the loop never
 *  terminates. Exactly the would-hang shape budgets exist for. */
BenchmarkSpec
wouldHangSpec()
{
    BenchmarkSpec spec;
    spec.asmCode = "mov R15, 5";
    spec.loopCount = 10;
    spec.lintLevel = core::LintLevel::Off;
    return spec;
}

// ------------------------------------------------------ cycle budget --

TEST(Budget, WouldHangSpecSettlesAsBudgetExceeded)
{
    Engine engine;
    Session session = engine.session({});
    BenchmarkSpec spec = wouldHangSpec();
    spec.cycleBudget = 500000;
    RunOutcome outcome = session.run(spec);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, RunError::Code::BudgetExceeded);
    EXPECT_FALSE(outcome.error().transient);
    // The message carries the partial progress, including PMU state.
    EXPECT_NE(outcome.error().message.find("cycle budget exceeded"),
              std::string::npos);
    EXPECT_NE(outcome.error().message.find("partial PMU"),
              std::string::npos);
}

TEST(Budget, DisarmedAfterBudgetedRunOnPooledMachine)
{
    Engine engine;
    Session session = engine.session({});
    BenchmarkSpec spec = wouldHangSpec();
    spec.cycleBudget = 500000;
    ASSERT_FALSE(session.run(spec).ok());
    // The pooled machine must not retain the tripped budget: an
    // unbudgeted spec on the same session runs to completion.
    BenchmarkSpec plain;
    plain.asmCode = "add RAX, RBX";
    RunOutcome outcome = session.run(plain);
    ASSERT_TRUE(outcome.ok()) << outcome.error().message;
}

TEST(Budget, GenerousBudgetDoesNotPerturbResults)
{
    Engine engine;
    BenchmarkSpec plain;
    plain.asmCode = "add RAX, RBX";
    BenchmarkSpec budgeted = plain;
    budgeted.cycleBudget = 2'000'000'000;
    // Same session, back-to-back runs: the budget check only bounds
    // execution, it never perturbs it, so the results must be
    // bit-identical.
    Session session = engine.session({});
    auto a = session.run(plain);
    auto b = session.run(budgeted);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // (specEcho differs -- summary() names the budget -- so compare
    // the measured values, not the whole document.)
    EXPECT_EQ(a.result().lastRunCycles, b.result().lastRunCycles);
    ASSERT_EQ(a.result().lines.size(), b.result().lines.size());
    for (std::size_t i = 0; i < a.result().lines.size(); ++i) {
        EXPECT_EQ(a.result().lines[i].name, b.result().lines[i].name);
        EXPECT_EQ(a.result().lines[i].value,
                  b.result().lines[i].value);
    }
}

TEST(Budget, CanonicalKeyOnlyChangesWhenArmed)
{
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RBX";
    std::string unbudgeted = core::specCanonicalKey(spec);
    spec.cycleBudget = 12345;
    std::string budgeted = core::specCanonicalKey(spec);
    // Budget 0 must keep pre-existing keys (and every golden artifact
    // keyed on them) byte-identical; a non-zero budget is a distinct
    // benchmark and must not collide with the unbudgeted key.
    EXPECT_NE(unbudgeted, budgeted);
    spec.cycleBudget = 0;
    EXPECT_EQ(core::specCanonicalKey(spec), unbudgeted);
}

TEST(Budget, CampaignSpecBudgetCatchesHangWithoutTouchingKeys)
{
    Engine engine;
    auto specs = countingSpecs(2);
    specs.push_back(wouldHangSpec());
    CampaignOptions opt;
    opt.specBudget = 500000;
    auto campaign = engine.runCampaign(specs, opt);
    ASSERT_EQ(campaign.outcomes.size(), 3u);
    EXPECT_TRUE(campaign.outcomes[0].ok());
    EXPECT_TRUE(campaign.outcomes[1].ok());
    ASSERT_FALSE(campaign.outcomes[2].ok());
    EXPECT_EQ(campaign.outcomes[2].error().code,
              RunError::Code::BudgetExceeded);
    EXPECT_EQ(campaign.report.errorHistogram[static_cast<unsigned>(
                  RunError::Code::BudgetExceeded)],
              1u);
}

// --------------------------------------------------- fault-plan parse --

TEST(FaultPlan, ParsesSitesAndModifiers)
{
    auto plan = fault::FaultPlan::parse(
        "assemble:transient:x2, execute@1000, "
        "worker-pickup~0.5, seed:7");
    EXPECT_TRUE(plan.targets(fault::Site::Assemble));
    EXPECT_TRUE(plan.targets(fault::Site::Execute));
    EXPECT_TRUE(plan.targets(fault::Site::WorkerPickup));
    EXPECT_FALSE(plan.targets(fault::Site::Decode));
    EXPECT_FALSE(plan.targets(fault::Site::ReportWrite));
}

TEST(FaultPlan, RejectsMalformedPlans)
{
    EXPECT_THROW(fault::FaultPlan::parse("bogus"), FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("assemble@5"), FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("decode:x0"), FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("decode~2.0"), FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("decode:often"), FatalError);
}

TEST(FaultPlan, CountedEntryExhausts)
{
    auto plan = fault::FaultPlan::parse("decode:x2");
    EXPECT_THROW(plan.arrive(fault::Site::Decode),
                 fault::InjectedFault);
    EXPECT_THROW(plan.arrive(fault::Site::Decode),
                 fault::InjectedFault);
    EXPECT_NO_THROW(plan.arrive(fault::Site::Decode));
    EXPECT_EQ(plan.injected(fault::Site::Decode), 2u);
    // Other sites are never hit.
    EXPECT_NO_THROW(plan.arrive(fault::Site::Assemble));
}

TEST(FaultPlan, ProbabilityIsSeededAndDeterministic)
{
    auto countInjections = [](const char *text) {
        auto plan = fault::FaultPlan::parse(text);
        unsigned injected = 0;
        for (int i = 0; i < 1000; ++i) {
            try {
                plan.arrive(fault::Site::Decode);
            } catch (const fault::InjectedFault &) {
                ++injected;
            }
        }
        return injected;
    };
    unsigned a = countInjections("decode~0.5, seed:42");
    unsigned b = countInjections("decode~0.5, seed:42");
    EXPECT_EQ(a, b); // same seed, same arrivals, same decisions
    EXPECT_GT(a, 300u);
    EXPECT_LT(a, 700u);
}

// ------------------------------------------------------ injection sites --

TEST(FaultInjection, AssembleSiteBecomesAssemblyError)
{
    fault::ScopedFaultPlan scope("assemble:transient");
    Engine engine;
    Session session = engine.session({});
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RBX";
    RunOutcome outcome = session.run(spec);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, RunError::Code::AssemblyError);
    EXPECT_TRUE(outcome.error().transient);
    EXPECT_NE(outcome.error().message.find("assemble"),
              std::string::npos);
}

TEST(FaultInjection, DecodeSiteBecomesExecutionError)
{
    fault::ScopedFaultPlan scope("decode:x1");
    Engine engine;
    Session session = engine.session({});
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RBX";
    RunOutcome outcome = session.run(spec);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, RunError::Code::ExecutionError);
    EXPECT_FALSE(outcome.error().transient);
    EXPECT_NE(outcome.error().message.find("decode"),
              std::string::npos);
    EXPECT_EQ(scope.plan().injected(fault::Site::Decode), 1u);
}

TEST(FaultInjection, ExecuteSiteFiresAtCycleOffset)
{
    fault::ScopedFaultPlan scope("execute@100:x1");
    Engine engine;
    Session session = engine.session({});
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RBX";
    // The execute site is visited from the amortized dispatch
    // checkpoint (every 1024 instructions), so the run must be long
    // enough for one measurement call to get there.
    spec.unrollCount = 4000;
    RunOutcome outcome = session.run(spec);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, RunError::Code::ExecutionError);
    EXPECT_NE(outcome.error().message.find("execute"),
              std::string::npos);
    EXPECT_EQ(scope.plan().injected(fault::Site::Execute), 1u);
}

TEST(FaultInjection, NoPlanMeansNoOverheadPathStillRuns)
{
    // Sanity: with no plan installed the same spec runs clean (the
    // disabled maybeInject path is a single relaxed load).
    ASSERT_EQ(fault::activePlan(), nullptr);
    Engine engine;
    Session session = engine.session({});
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RBX";
    EXPECT_TRUE(session.run(spec).ok());
}

// ------------------------------------------------------ retry semantics --

TEST(Retry, TransientFaultRecoversWithinBudgetedRetries)
{
    fault::ScopedFaultPlan scope("worker-pickup:transient:x2");
    Engine engine;
    CampaignOptions opt;
    opt.maxRetries = 3;
    auto campaign = engine.runCampaign(countingSpecs(4), opt);
    for (const auto &outcome : campaign.outcomes)
        EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(campaign.report.retries, 2u);
    EXPECT_EQ(campaign.report.okCount, 4u);
    EXPECT_EQ(scope.plan().injected(fault::Site::WorkerPickup), 2u);
}

TEST(Retry, PermanentFaultFailsFastWithoutRetries)
{
    fault::ScopedFaultPlan scope("worker-pickup:permanent:x1");
    Engine engine;
    CampaignOptions opt;
    opt.maxRetries = 3;
    auto campaign = engine.runCampaign(countingSpecs(4), opt);
    EXPECT_EQ(campaign.report.retries, 0u);
    EXPECT_EQ(campaign.report.okCount, 3u);
    EXPECT_EQ(campaign.report.errorHistogram[static_cast<unsigned>(
                  RunError::Code::ExecutionError)],
              1u);
}

TEST(Retry, ExhaustedTransientFaultStaysAnError)
{
    // More injections than retries: the spec settles as a transient
    // error after maxRetries attempts instead of looping forever.
    fault::ScopedFaultPlan scope("worker-pickup:transient");
    Engine engine;
    CampaignOptions opt;
    opt.maxRetries = 2;
    auto campaign = engine.runCampaign(countingSpecs(1), opt);
    ASSERT_FALSE(campaign.outcomes[0].ok());
    EXPECT_TRUE(campaign.outcomes[0].error().transient);
    EXPECT_EQ(campaign.report.retries, 2u);
}

// --------------------------------------------------- checkpoint/resume --

/** Zero the wall-time and execution-shape fields that legitimately
 *  differ between an interrupted+resumed campaign and an
 *  uninterrupted one; everything else must match bit-for-bit. */
CampaignReport
normalized(CampaignReport report)
{
    report.wallSeconds = 0.0;
    report.perWorkerSpecs.clear();
    report.perWorkerSeconds.clear();
    report.phaseTimes = obs::PhaseTimes{};
    report.telemetry = EngineTelemetry{};
    report.resumedSpecs = 0;
    report.cancelled = false;
    return report;
}

/** Outcome identity: same ok/err shape and byte-identical payloads. */
void
expectSameOutcomes(const std::vector<RunOutcome> &a,
                   const std::vector<RunOutcome> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].ok(), b[i].ok()) << i;
        if (a[i].ok()) {
            EXPECT_EQ(a[i].result().toJson(), b[i].result().toJson())
                << i;
        } else {
            EXPECT_EQ(a[i].error().code, b[i].error().code) << i;
            EXPECT_EQ(a[i].error().message, b[i].error().message) << i;
        }
    }
}

TEST(Checkpoint, InterruptedThenResumedMatchesUninterrupted)
{
    std::string ck = testing::TempDir() + "nb_ck_interrupted.jsonl";
    std::string ck2 = testing::TempDir() + "nb_ck_resumed.jsonl";

    // 6 unique specs + 1 duplicate + 1 deterministic failure, so the
    // journal carries ok entries, an error entry, and multiplicity.
    auto specs = countingSpecs(6);
    specs.push_back(specs[2]);
    BenchmarkSpec faulty;
    faulty.asmCode = "mov R14, [R14]"; // page fault at VA 0
    specs.push_back(faulty);

    CampaignOptions base;
    base.jobs = 1;

    // Uninterrupted baseline.
    Engine engine_a;
    auto uninterrupted = engine_a.runCampaign(specs, base);

    // Interrupted: cancel cooperatively after the second settle; the
    // checkpoint keeps what settled.
    Engine engine_b;
    CampaignOptions interrupted_opt = base;
    interrupted_opt.checkpoint = ck;
    interrupted_opt.checkpointEvery = 1;
    interrupted_opt.cancel = std::make_shared<CancelToken>();
    std::size_t settles = 0;
    interrupted_opt.progress =
        [&](const CampaignProgress &event) {
            if (!event.starting && ++settles == 2)
                interrupted_opt.cancel->cancel();
        };
    auto interrupted = engine_b.runCampaign(specs, interrupted_opt);
    EXPECT_TRUE(interrupted.report.cancelled);
    EXPECT_GT(interrupted.report.errorHistogram[static_cast<unsigned>(
                  RunError::Code::Cancelled)],
              0u);

    // Resume from the journal; the re-run must not re-execute what
    // settled (resumedSpecs counts them) and must complete the rest.
    Engine engine_c;
    CampaignOptions resume_opt = base;
    resume_opt.resume = ck;
    resume_opt.checkpoint = ck2;
    auto resumed = engine_c.runCampaign(specs, resume_opt);
    EXPECT_FALSE(resumed.report.cancelled);
    EXPECT_GE(resumed.report.resumedSpecs, 2u);

    expectSameOutcomes(resumed.outcomes, uninterrupted.outcomes);
    EXPECT_EQ(normalized(resumed.report).toJson(),
              normalized(uninterrupted.report).toJson());

    // The completed journal can seed a full resume: nothing runs.
    Engine engine_d;
    CampaignOptions full_resume = base;
    full_resume.resume = ck2;
    auto replayed = engine_d.runCampaign(specs, full_resume);
    EXPECT_EQ(replayed.report.resumedSpecs, 7u); // all unique specs
    expectSameOutcomes(replayed.outcomes, uninterrupted.outcomes);

    std::remove(ck.c_str());
    std::remove(ck2.c_str());
}

TEST(Checkpoint, TornTrailingLineIsIgnored)
{
    std::string ck = testing::TempDir() + "nb_ck_torn.jsonl";
    auto specs = countingSpecs(3);
    CampaignOptions opt;
    opt.jobs = 1;
    opt.checkpoint = ck;
    Engine engine;
    auto campaign = engine.runCampaign(specs, opt);
    ASSERT_EQ(campaign.report.okCount, 3u);

    // Simulate a kill mid-write: truncate the last journal line.
    std::ifstream in(ck);
    std::string text{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
    in.close();
    std::ofstream out(ck, std::ios::trunc);
    out << text.substr(0, text.size() - 40);
    out.close();

    Engine engine2;
    CampaignOptions resume_opt = opt;
    resume_opt.checkpoint.clear();
    resume_opt.resume = ck;
    auto resumed = engine2.runCampaign(specs, resume_opt);
    EXPECT_EQ(resumed.report.resumedSpecs, 2u); // torn entry re-ran
    expectSameOutcomes(resumed.outcomes, campaign.outcomes);
    std::remove(ck.c_str());
}

TEST(Checkpoint, MismatchedUarchIsRejected)
{
    std::string ck = testing::TempDir() + "nb_ck_uarch.jsonl";
    CampaignOptions opt;
    opt.jobs = 1;
    opt.checkpoint = ck;
    Engine engine;
    engine.runCampaign(countingSpecs(1), opt);

    CampaignOptions resume_opt;
    resume_opt.resume = ck;
    resume_opt.session.uarch = "Zen";
    Engine engine2;
    EXPECT_THROW(engine2.runCampaign(countingSpecs(1), resume_opt),
                 FatalError);
    std::remove(ck.c_str());
}

TEST(Checkpoint, ReportWriteFaultDegradesInsteadOfAborting)
{
    std::string ck = testing::TempDir() + "nb_ck_degrade.jsonl";
    fault::ScopedFaultPlan scope("report-write:x1");
    CampaignOptions opt;
    opt.jobs = 1;
    opt.checkpoint = ck;
    Engine engine;
    auto campaign = engine.runCampaign(countingSpecs(3), opt);
    // The campaign itself is unharmed; only the journal is disabled.
    EXPECT_EQ(campaign.report.okCount, 3u);
    EXPECT_EQ(scope.plan().injected(fault::Site::ReportWrite), 1u);
    std::remove(ck.c_str());
}

// ----------------------------------------------- report serialization --

TEST(Report, ResilienceFieldsRoundTripThroughJson)
{
    fault::ScopedFaultPlan scope("worker-pickup:transient:x1");
    Engine engine;
    CampaignOptions opt;
    opt.maxRetries = 1;
    auto campaign = engine.runCampaign(countingSpecs(2), opt);
    ASSERT_EQ(campaign.report.retries, 1u);
    auto parsed = CampaignReport::fromJson(campaign.report.toJson());
    EXPECT_EQ(parsed.retries, campaign.report.retries);
    EXPECT_EQ(parsed.resumedSpecs, campaign.report.resumedSpecs);
    EXPECT_EQ(parsed.cancelled, campaign.report.cancelled);
    EXPECT_EQ(parsed.toJson(), campaign.report.toJson());
    // The CSV rendering carries the same fields.
    std::string csv = campaign.report.toCsv();
    EXPECT_NE(csv.find("retries,1"), std::string::npos);
    EXPECT_NE(csv.find("cancelled,0"), std::string::npos);
}

// -------------------------------------------------------- cancellation --

TEST(Cancel, PreCancelledTokenSettlesEverythingAsCancelled)
{
    Engine engine;
    CampaignOptions opt;
    opt.cancel = std::make_shared<CancelToken>();
    opt.cancel->cancel();
    auto campaign = engine.runCampaign(countingSpecs(3), opt);
    EXPECT_TRUE(campaign.report.cancelled);
    ASSERT_EQ(campaign.outcomes.size(), 3u);
    for (const auto &outcome : campaign.outcomes) {
        ASSERT_FALSE(outcome.ok());
        EXPECT_EQ(outcome.error().code, RunError::Code::Cancelled);
        EXPECT_TRUE(outcome.error().transient);
    }
}

TEST(Cancel, MidCampaignCancellationIsCleanAcrossWorkers)
{
    // Exercised under TSan in CI: four workers racing the cancel flag
    // while settling work must produce a total, data-race-free
    // report.
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 4;
    opt.cancel = std::make_shared<CancelToken>();
    std::size_t settles = 0;
    std::mutex mutex;
    opt.progress = [&](const CampaignProgress &event) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!event.starting && ++settles == 4)
            opt.cancel->cancel();
    };
    auto campaign = engine.runCampaign(countingSpecs(32), opt);
    ASSERT_EQ(campaign.outcomes.size(), 32u);
    std::size_t settled = 0;
    for (const auto &outcome : campaign.outcomes) {
        if (outcome.ok() ||
            outcome.error().code != RunError::Code::Cancelled)
            ++settled;
    }
    EXPECT_EQ(campaign.report.okCount, settled);
    EXPECT_TRUE(campaign.report.cancelled);
}

TEST(Cancel, SigintHandlerCancelsInstalledToken)
{
    auto token = std::make_shared<CancelToken>();
    installSigintCancel(token);
    std::raise(SIGINT);
    EXPECT_TRUE(token->cancelled());
    clearSigintCancel();
}

// ------------------------------------------------------ cache evictions --

TEST(Evictions, MemoCountsClearWhenFull)
{
    // Fill past capacity: the clear must be counted, not silent.
    Memo<unsigned> memo(4096);
    for (unsigned i = 0; i < 4097; ++i)
        memo.get("key-" + std::to_string(i), [i] { return i; });
    EXPECT_EQ(memo.stats().misses, 4097u);
    EXPECT_EQ(memo.stats().evictions, 4096u);
    EXPECT_EQ(memo.size(), 1u);

    // The process-wide bound memo (4096 entries) counts its clears
    // too: 4097 distinct specs overflow it at least once.
    const auto &ua = uarch::getMicroArch("Skylake");
    std::uint64_t before = analysis::boundCacheCounters().evictions;
    BenchmarkSpec spec;
    spec.code = x86::assemble("add RAX, RAX");
    for (unsigned i = 0; i < 4097; ++i) {
        spec.nMeasurements = i + 1;
        analysis::analyzeBoundsCached(ua, spec);
    }
    EXPECT_GT(analysis::boundCacheCounters().evictions, before);
}

} // namespace
} // namespace nb
