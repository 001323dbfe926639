/**
 * @file
 * Tests for the parallel campaign executor: in-order results across
 * worker counts, error handling mid-batch, dedup-cache behaviour,
 * determinism and layout invariance over history-dependent specs, the
 * once-per-worker machine setup, report serialization, and the engine
 * stats used by the benches.
 */

#include <atomic>
#include <gtest/gtest.h>
#include <mutex>
#include <set>

#include "core/campaign.hh"
#include "json_members.hh"
#include "sim/machine.hh"
#include "x86/assembler.hh"

namespace nb
{
namespace
{

using core::BenchmarkSpec;
using core::CounterConfig;
using core::Mode;

std::vector<BenchmarkSpec>
countingSpecs(unsigned n)
{
    // Spec i retires i+1 instructions per iteration, so every outcome
    // is attributable to its input position.
    std::vector<BenchmarkSpec> specs(n);
    std::string body = "nop";
    for (unsigned i = 0; i < n; ++i) {
        specs[i].asmCode = body;
        body += "; nop";
    }
    return specs;
}

/** R14 area the setup hooks below reserve (past the default 1 MB). */
constexpr Addr kSetupArea = 4 * 1024 * 1024;

/**
 * Specs whose outcomes depend on machine history: no warm-up and one
 * measurement, so each spec's two adjacent-line loads are measured
 * cold -- unless an earlier spec on the same machine already brought
 * the lines in (specs 2k and 2k+1 load the same lines). The loads
 * fall in the pages just below R14 + @p span.
 */
std::vector<BenchmarkSpec>
historySpecs(unsigned n, Addr span)
{
    std::vector<BenchmarkSpec> specs;
    for (unsigned i = 0; i < n; ++i) {
        Addr offset = span - 4096 * (i / 2 + 1);
        BenchmarkSpec spec;
        spec.asmCode = "mov RAX, [R14+" + std::to_string(offset) +
                       "]; mov RBX, [R14+" + std::to_string(offset + 64) +
                       "]";
        spec.unrollCount = 4 + i; // every spec unique
        spec.warmUpCount = 0;
        spec.nMeasurements = 1;
        specs.push_back(spec);
    }
    return specs;
}

/** The profile builder's kind of setup: an enlarged R14 area and
 *  disabled prefetchers. */
void
profileLikeSetup(core::Runner &runner)
{
    ASSERT_TRUE(runner.reserveR14Area(kSetupArea));
    runner.machine().writeMsr(sim::msr::kPrefetchControl,
                              cache::pf::kDisableAll);
}

// ---------------------------------------------------------- ordering --

class CampaignWorkers : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CampaignWorkers, ResultsComeBackInSpecOrder)
{
    unsigned jobs = GetParam();
    Engine engine;
    CampaignOptions opt;
    opt.jobs = jobs;
    auto specs = countingSpecs(12);
    auto campaign = engine.runCampaign(specs, opt);

    ASSERT_EQ(campaign.outcomes.size(), specs.size());
    for (unsigned i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(campaign.outcomes[i].ok()) << i;
        EXPECT_NEAR(
            campaign.outcomes[i].result()["Instructions retired"],
            i + 1.0, 0.05)
            << i;
    }

    const auto &report = campaign.report;
    EXPECT_EQ(report.jobs, std::min<unsigned>(jobs, 12));
    EXPECT_EQ(report.totalSpecs, 12u);
    EXPECT_EQ(report.uniqueSpecs, 12u);
    EXPECT_EQ(report.cacheHits, 0u);
    EXPECT_EQ(report.okCount, 12u);
    EXPECT_EQ(report.errorCount(), 0u);
    EXPECT_GT(report.wallSeconds, 0.0);

    // The workers share one queue, so who ran how many varies between
    // runs; together they ran every unique spec once.
    ASSERT_EQ(report.perWorkerSpecs.size(), report.jobs);
    std::size_t executed = 0;
    for (std::size_t n : report.perWorkerSpecs)
        executed += n;
    EXPECT_EQ(executed, 12u);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, CampaignWorkers,
                         ::testing::Values(1u, 2u, 8u));

TEST(Campaign, WorkersBuildPrivateMachines)
{
    // One machine + runner per worker, built for this campaign and
    // never taken from (or left in) the engine's session pool.
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 4;
    std::mutex mutex;
    std::set<const core::Runner *> runners;
    opt.machineSetup = [&](core::Runner &runner) {
        std::lock_guard<std::mutex> lock(mutex);
        runners.insert(&runner);
    };
    auto campaign = engine.runCampaign(countingSpecs(8), opt);
    EXPECT_EQ(campaign.report.jobs, 4u);
    EXPECT_EQ(runners.size(), 4u);
    EXPECT_EQ(engine.machinesConstructed(), 4u);
    EXPECT_EQ(engine.poolSize(), 0u);

    // A second campaign on the same engine builds its own again.
    runners.clear();
    engine.runCampaign(countingSpecs(8), opt);
    EXPECT_EQ(runners.size(), 4u);
    EXPECT_EQ(engine.machinesConstructed(), 8u);
    EXPECT_EQ(engine.poolSize(), 0u);
}

TEST(Campaign, ZeroJobsMeansHardwareConcurrency)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 0;
    auto campaign = engine.runCampaign(countingSpecs(2), opt);
    EXPECT_GE(campaign.report.jobs, 1u);
    EXPECT_LE(campaign.report.jobs, 2u); // clamped to unique specs
}

TEST(Campaign, EmptySpecListYieldsEmptyCampaign)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 4;
    auto campaign = engine.runCampaign({}, opt);
    EXPECT_TRUE(campaign.outcomes.empty());
    EXPECT_EQ(campaign.report.jobs, 0u);
    EXPECT_EQ(campaign.report.totalSpecs, 0u);
    EXPECT_EQ(engine.machinesConstructed(), 0u);
}

// ------------------------------------------------------------ errors --

TEST(Campaign, ErrorInTheMiddleDoesNotDisturbNeighbours)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    auto specs = countingSpecs(5);
    specs[2].asmCode = "definitely_not_x86 RAX";
    specs[3].asmCode = ""; // invalid: empty body
    auto campaign = engine.runCampaign(specs, opt);

    ASSERT_EQ(campaign.outcomes.size(), 5u);
    EXPECT_TRUE(campaign.outcomes[0].ok());
    EXPECT_TRUE(campaign.outcomes[1].ok());
    ASSERT_FALSE(campaign.outcomes[2].ok());
    EXPECT_EQ(campaign.outcomes[2].error().code,
              RunError::Code::AssemblyError);
    ASSERT_FALSE(campaign.outcomes[3].ok());
    EXPECT_EQ(campaign.outcomes[3].error().code,
              RunError::Code::InvalidSpec);
    ASSERT_TRUE(campaign.outcomes[4].ok());
    EXPECT_NEAR(campaign.outcomes[4].result()["Instructions retired"],
                5.0, 0.05);

    const auto &report = campaign.report;
    EXPECT_EQ(report.okCount, 3u);
    EXPECT_EQ(report.errorCount(), 2u);
    EXPECT_EQ(report.errorHistogram[static_cast<unsigned>(
                  RunError::Code::AssemblyError)],
              1u);
    EXPECT_EQ(report.errorHistogram[static_cast<unsigned>(
                  RunError::Code::InvalidSpec)],
              1u);
}

TEST(Campaign, InvalidSpecParametersBecomeTypedErrors)
{
    // Zero-measurement / zero-unroll specs used to crash the process
    // from inside the aggregate functions; a campaign must instead
    // report them per-spec and keep going.
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    auto specs = countingSpecs(4);
    specs[1].nMeasurements = 0;
    specs[2].unrollCount = 0;
    auto campaign = engine.runCampaign(specs, opt);

    ASSERT_EQ(campaign.outcomes.size(), 4u);
    EXPECT_TRUE(campaign.outcomes[0].ok());
    ASSERT_FALSE(campaign.outcomes[1].ok());
    EXPECT_EQ(campaign.outcomes[1].error().code,
              RunError::Code::InvalidSpec);
    ASSERT_FALSE(campaign.outcomes[2].ok());
    EXPECT_EQ(campaign.outcomes[2].error().code,
              RunError::Code::InvalidSpec);
    EXPECT_TRUE(campaign.outcomes[3].ok());
    EXPECT_EQ(campaign.report.errorHistogram[static_cast<unsigned>(
                  RunError::Code::InvalidSpec)],
              2u);
}

TEST(Campaign, UserModeAperfMperfIsUnsupported)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    opt.session.mode = Mode::User;
    auto specs = countingSpecs(3);
    specs[1].aperfMperf = true;
    auto campaign = engine.runCampaign(specs, opt);
    ASSERT_FALSE(campaign.outcomes[1].ok());
    EXPECT_EQ(campaign.outcomes[1].error().code,
              RunError::Code::Unsupported);
    EXPECT_TRUE(campaign.outcomes[0].ok());
    EXPECT_TRUE(campaign.outcomes[2].ok());
}

TEST(Campaign, ResolvedJobsNeverReturnsZero)
{
    CampaignOptions opt;
    opt.jobs = 0;
    EXPECT_GE(opt.resolvedJobs(), 1u);
    opt.jobs = 3;
    EXPECT_EQ(opt.resolvedJobs(), 3u);
}

TEST(Campaign, UnknownUarchThrowsBeforeAnyWork)
{
    Engine engine;
    CampaignOptions opt;
    opt.session.uarch = "NotACpu";
    std::atomic<bool> progressed{false};
    opt.progress = [&](const CampaignProgress &) {
        progressed = true;
    };
    EXPECT_THROW(engine.runCampaign(countingSpecs(3), opt),
                 FatalError);
    EXPECT_FALSE(progressed.load());
    EXPECT_EQ(engine.machinesConstructed(), 0u);
}

// ------------------------------------------------------------- dedup --

TEST(Campaign, DedupSharesOutcomesOfIdenticalSpecs)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    // 9 input specs, 3 unique.
    std::vector<BenchmarkSpec> specs;
    for (int round = 0; round < 3; ++round)
        for (const auto &spec : countingSpecs(3))
            specs.push_back(spec);
    auto campaign = engine.runCampaign(specs, opt);

    ASSERT_EQ(campaign.outcomes.size(), 9u);
    EXPECT_EQ(campaign.report.uniqueSpecs, 3u);
    EXPECT_EQ(campaign.report.cacheHits, 6u);
    EXPECT_EQ(campaign.report.okCount, 9u);
    std::size_t executed = 0;
    for (auto count : campaign.report.perWorkerSpecs)
        executed += count;
    EXPECT_EQ(executed, 3u);

    // A duplicate resolves to exactly the first occurrence's result.
    for (unsigned i = 0; i < 9; ++i) {
        const auto &first = campaign.outcomes[i % 3].result();
        const auto &here = campaign.outcomes[i].result();
        ASSERT_EQ(here.lines.size(), first.lines.size());
        for (std::size_t l = 0; l < first.lines.size(); ++l)
            EXPECT_EQ(here.lines[l].value, first.lines[l].value);
    }
}

TEST(Campaign, DedupCanBeOptedOut)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 1;
    opt.dedup = false;
    std::vector<BenchmarkSpec> specs(4);
    for (auto &spec : specs)
        spec.asmCode = "add RAX, RAX";
    auto campaign = engine.runCampaign(specs, opt);
    EXPECT_EQ(campaign.report.uniqueSpecs, 4u);
    EXPECT_EQ(campaign.report.cacheHits, 0u);
    ASSERT_EQ(campaign.report.perWorkerSpecs.size(), 1u);
    EXPECT_EQ(campaign.report.perWorkerSpecs[0], 4u);
}

TEST(Campaign, CanonicalKeySeparatesSpecParameters)
{
    BenchmarkSpec a;
    a.asmCode = "add RAX, RAX";
    BenchmarkSpec b = a;
    EXPECT_EQ(specCanonicalKey(a), specCanonicalKey(b));
    EXPECT_EQ(specHash(a), specHash(b));

    b.unrollCount = 50;
    EXPECT_NE(specCanonicalKey(a), specCanonicalKey(b));

    b = a;
    b.asmInit = "mov RAX, 0";
    EXPECT_NE(specCanonicalKey(a), specCanonicalKey(b));

    b = a;
    b.serialize = core::SerializeMode::None;
    EXPECT_NE(specCanonicalKey(a), specCanonicalKey(b));

    b = a;
    b.config = CounterConfig::forMicroArch("Skylake");
    EXPECT_NE(specCanonicalKey(a), specCanonicalKey(b));

    // Field boundaries are length-prefixed: shifting a character
    // between adjacent string fields must change the key.
    BenchmarkSpec c, d;
    c.asmCode = "nop; n";
    c.asmInit = "op";
    d.asmCode = "nop; ";
    d.asmInit = "nop";
    EXPECT_NE(specCanonicalKey(c), specCanonicalKey(d));
}

// Checkpoint journals are keyed by these bytes, so they are pinned
// literally for the spec shapes the planner hash pins do not build.
// Each line is one length-prefixed field; summary() is pinned beside.

TEST(Campaign, CanonicalKeyBytesOfAsmSpecArePinned)
{
    // The CLI, -spec_file and batch shape: asm text body and init.
    BenchmarkSpec spec;
    spec.asmCode = "mov R14, [R14]";
    spec.asmInit = "mov [R14], R14";
    EXPECT_EQ(specCanonicalKey(spec), "14:mov R14, [R14]\x1f"
                                      "14:mov [R14], R14\x1f"
                                      "0:\x1f"
                                      "0:\x1f"
                                      "3:100\x1f"
                                      "1:0\x1f"
                                      "2:10\x1f"
                                      "1:2\x1f"
                                      "1:2\x1f"
                                      "1:0\x1f"
                                      "1:0\x1f"
                                      "1:2\x1f"
                                      "1:1\x1f"
                                      "1:0\x1f"
                                      "1:0\x1f");
    EXPECT_EQ(spec.summary(), "asm=\"mov R14, [R14]\" init=\"mov [R14], "
                              "R14\" unroll=100 loop=0 n=10 warmup=2 "
                              "agg=med");
}

TEST(Campaign, CanonicalKeyBytesOfEventsAndBudgetSpecArePinned)
{
    // Encoded body and init, config events and an armed cycle budget.
    BenchmarkSpec spec;
    spec.code = x86::assemble("add RAX, [R14+8]; imul RBX, RCX, 300");
    spec.init = x86::assemble("mov R14, 0x1000");
    spec.config = CounterConfig::parseString(
        "0E.01 UOPS_ISSUED.ANY\nA1.01 UOPS_DISPATCHED_PORT.PORT_0\n");
    spec.cycleBudget = 250000;
    spec.loopCount = 10;
    spec.agg = Aggregate::Minimum;
    EXPECT_EQ(specCanonicalKey(spec),
              "0:\x1f"
              "0:\x1f"
              "110:4e4243310d0002ffffffff014000000340000e23010800000000"
              "0000001a0003ffffffff01400003014000010240002c01000000000000"
              "\x1f"
              "52:4e424331000002ffffffff0140000e0240000010000000000000\x1f"
              "3:100\x1f"
              "2:10\x1f"
              "2:10\x1f"
              "1:2\x1f"
              "1:0\x1f"
              "1:0\x1f"
              "1:0\x1f"
              "1:2\x1f"
              "1:1\x1f"
              "1:0\x1f"
              "1:0\x1f"
              "6:250000\x1f"
              "2:14\x1f"
              "1:1\x1f"
              "1:3\x1f"
              "15:UOPS_ISSUED.ANY\x1f"
              "3:161\x1f"
              "1:1\x1f"
              "1:5\x1f"
              "27:UOPS_DISPATCHED_PORT.PORT_0\x1f");
    EXPECT_EQ(spec.summary(), "code=<2 insns> init=<1 insns> unroll=100 "
                              "loop=10 n=10 warmup=2 agg=min "
                              "cycle_budget=250000");
}

TEST(Campaign, CanonicalKeyBytesOfNoMemBasicModeSpecArePinned)
{
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RBX";
    spec.noMem = true;
    spec.basicMode = true;
    spec.unrollCount = 1000;
    spec.nMeasurements = 5;
    spec.warmUpCount = 0;
    spec.serialize = core::SerializeMode::None;
    spec.fixedCounters = false;
    spec.lintLevel = core::LintLevel::Warn;
    EXPECT_EQ(specCanonicalKey(spec), "12:add RAX, RBX\x1f"
                                      "0:\x1f"
                                      "0:\x1f"
                                      "0:\x1f"
                                      "4:1000\x1f"
                                      "1:0\x1f"
                                      "1:5\x1f"
                                      "1:0\x1f"
                                      "1:2\x1f"
                                      "1:1\x1f"
                                      "1:1\x1f"
                                      "1:0\x1f"
                                      "1:0\x1f"
                                      "1:0\x1f"
                                      "1:1\x1f");
    EXPECT_EQ(spec.summary(), "asm=\"add RAX, RBX\" unroll=1000 loop=0 n=5 "
                              "warmup=0 agg=med basic_mode no_mem "
                              "lint=warn");
}

// ------------------------------------------------------ determinism --

TEST(Campaign, RepeatedRunsWithSameSeedAreIdentical)
{
    CampaignOptions opt;
    opt.jobs = 4;
    opt.session.seed = 7;
    opt.session.mode = Mode::User;
    auto specs = historySpecs(10, 1024 * 1024);
    specs.push_back(specs[3]); // exercise dedup in the comparison too

    // A second campaign on the same engine starts from the same
    // machines, so the outcomes must be bit-identical.
    Engine engine;
    auto first = engine.runCampaign(specs, opt);
    auto second = engine.runCampaign(specs, opt);

    ASSERT_EQ(first.outcomes.size(), second.outcomes.size());
    for (std::size_t i = 0; i < first.outcomes.size(); ++i) {
        ASSERT_EQ(first.outcomes[i].ok(), second.outcomes[i].ok());
        const auto &a = first.outcomes[i].result();
        const auto &b = second.outcomes[i].result();
        ASSERT_EQ(a.lines.size(), b.lines.size());
        for (std::size_t l = 0; l < a.lines.size(); ++l) {
            EXPECT_EQ(a.lines[l].name, b.lines[l].name);
            EXPECT_EQ(a.lines[l].value, b.lines[l].value) << i;
        }
    }
}

// ---------------------------------------------------------- progress --

TEST(Campaign, ProgressSettlesEveryInputSpec)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    std::vector<std::size_t> seen;
    std::size_t starts = 0;
    opt.progress = [&](const CampaignProgress &event) {
        EXPECT_EQ(event.total, 6u);
        // Every event names the spec in flight.
        EXPECT_FALSE(event.specKey.empty());
        EXPECT_FALSE(event.specLabel.empty());
        if (event.starting)
            ++starts;
        else
            seen.push_back(event.done);
    };
    auto specs = countingSpecs(4);
    specs.push_back(specs[0]);
    specs.push_back(specs[1]);
    engine.runCampaign(specs, opt);

    // One start + one settle per executed unique spec; the running
    // "done" count is strictly increasing and ends at the input spec
    // count (duplicates settle with their unique spec).
    EXPECT_EQ(starts, 4u);
    ASSERT_EQ(seen.size(), 4u);
    for (std::size_t i = 1; i < seen.size(); ++i)
        EXPECT_GT(seen[i], seen[i - 1]);
    EXPECT_EQ(seen.back(), 6u);
}

// --------------------------------------------------------- spec file --

TEST(SpecFile, PlainLinesAndCommentsParse)
{
    core::BenchmarkSpec defaults;
    defaults.asmInit = "mov [R14], R14";
    defaults.unrollCount = 25;
    auto entries = parseSpecLines("# header comment\n"
                                  "add RAX, RAX\n"
                                  "\n"
                                  "mov R14, [R14]\n",
                                  defaults);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].lineNumber, 2u);
    EXPECT_FALSE(entries[0].error.has_value());
    EXPECT_EQ(entries[0].spec.asmCode, "add RAX, RAX");
    // Shared defaults are inherited (except the body itself).
    EXPECT_EQ(entries[0].spec.asmInit, "mov [R14], R14");
    EXPECT_EQ(entries[0].spec.unrollCount, 25u);
    EXPECT_EQ(entries[1].lineNumber, 4u);
    EXPECT_EQ(entries[1].spec.asmCode, "mov R14, [R14]");
}

TEST(SpecFile, PerLineOptionsOverrideDefaults)
{
    core::BenchmarkSpec defaults;
    auto entries = parseSpecLines(
        "-asm \"div RBX\" -agg min -unroll_count 10 -basic_mode\n",
        defaults);
    ASSERT_EQ(entries.size(), 1u);
    ASSERT_FALSE(entries[0].error.has_value());
    EXPECT_EQ(entries[0].spec.asmCode, "div RBX");
    EXPECT_EQ(entries[0].spec.agg, Aggregate::Minimum);
    EXPECT_EQ(entries[0].spec.unrollCount, 10u);
    EXPECT_TRUE(entries[0].spec.basicMode);
}

TEST(SpecFile, MalformedLinesAreErrorsWithLineNumbers)
{
    core::BenchmarkSpec defaults;
    // A bad -agg name hits parseAggregate's fatal(); it must come
    // back as a per-line error naming the line, not kill the process.
    auto entries = parseSpecLines("nop\n"
                                  "-asm \"nop\" -agg bogus\n"
                                  "-asm \"nop\" -frobnicate\n"
                                  "-asm \"nop\" -unroll_count\n"
                                  "-agg min\n"
                                  "-asm \"unterminated\n",
                                  defaults);
    ASSERT_EQ(entries.size(), 6u);
    EXPECT_FALSE(entries[0].error.has_value());
    for (std::size_t i = 1; i < entries.size(); ++i) {
        ASSERT_TRUE(entries[i].error.has_value()) << i;
        EXPECT_EQ(entries[i].error->code, RunError::Code::InvalidSpec)
            << i;
        EXPECT_NE(entries[i].error->message.find(
                      "line " + std::to_string(i + 1)),
                  std::string::npos)
            << entries[i].error->message;
    }
    EXPECT_NE(entries[1].error->message.find("bogus"),
              std::string::npos);
    EXPECT_NE(entries[2].error->message.find("-frobnicate"),
              std::string::npos);
    EXPECT_NE(entries[4].error->message.find("no -asm body"),
              std::string::npos);
}

TEST(SpecFile, ParsedSpecsRunAsACampaign)
{
    core::BenchmarkSpec defaults;
    auto entries = parseSpecLines("nop\n"
                                  "-asm \"nop; nop\" -agg min\n",
                                  defaults);
    std::vector<core::BenchmarkSpec> specs;
    for (const auto &entry : entries)
        specs.push_back(entry.spec);
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    auto campaign = engine.runCampaign(specs, opt);
    ASSERT_EQ(campaign.outcomes.size(), 2u);
    EXPECT_TRUE(campaign.outcomes[0].ok());
    ASSERT_TRUE(campaign.outcomes[1].ok());
    EXPECT_NEAR(campaign.outcomes[1].result()["Instructions retired"],
                2.0, 0.05);
}

// ------------------------------------------------------------ report --

TEST(CampaignReport, JsonCarriesEveryField)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    auto specs = countingSpecs(5);
    specs[1].asmCode = "not_x86_at_all";
    specs.push_back(specs[0]);
    auto campaign = engine.runCampaign(specs, opt);
    const CampaignReport &r = campaign.report;

    test::JsonMembers members = test::jsonMembers(r.toJson());
    std::vector<std::string> keys;
    for (const auto &[key, value] : members)
        keys.push_back(key);
    EXPECT_EQ(keys, (std::vector<std::string>{
                        "jobs", "total_specs", "unique_specs",
                        "cache_hits", "ok", "retries", "resumed_specs",
                        "cancelled", "wall_seconds", "per_worker_specs",
                        "per_worker_seconds", "phases", "errors",
                        "telemetry"}));
    auto member = [&](const char *key) {
        return test::jsonMember(members, key);
    };
    EXPECT_EQ(member("jobs"), "2");
    EXPECT_EQ(member("total_specs"), "6");
    EXPECT_EQ(member("unique_specs"), "5");
    EXPECT_EQ(member("cache_hits"), "1");
    EXPECT_EQ(member("ok"), "5");
    EXPECT_EQ(member("retries"), "0");
    EXPECT_EQ(member("resumed_specs"), "0");
    EXPECT_EQ(member("cancelled"), "0");
    EXPECT_EQ(member("wall_seconds"), core::exactDouble(r.wallSeconds));
    ASSERT_EQ(r.perWorkerSpecs.size(), 2u);
    EXPECT_EQ(member("per_worker_specs"),
              "[" + std::to_string(r.perWorkerSpecs[0]) + ", " +
                  std::to_string(r.perWorkerSpecs[1]) + "]");
    EXPECT_EQ(r.perWorkerSpecs[0] + r.perWorkerSpecs[1], 5u);
    EXPECT_EQ(member("errors"), "{\"assembly-error\": 1}");

    // The embedded telemetry object, member by member.
    test::JsonMembers tel = test::jsonMembers(member("telemetry"));
    auto cache = [](const CacheStats &s) {
        return "{\"hits\": " + std::to_string(s.hits) +
               ", \"misses\": " + std::to_string(s.misses) +
               ", \"evictions\": " + std::to_string(s.evictions) + "}";
    };
    EXPECT_EQ(tel, (test::JsonMembers{
                       {"pool_size",
                        std::to_string(r.telemetry.poolSize)},
                       {"machines_constructed",
                        std::to_string(r.telemetry.machinesConstructed)},
                       {"pool_hits", std::to_string(r.telemetry.poolHits)},
                       {"program_cache", cache(r.telemetry.program)},
                       {"assemble_cache", cache(r.telemetry.assemble)},
                       {"lint_cache", cache(r.telemetry.lint)}}));
    EXPECT_GT(r.telemetry.program.misses, 0u);
}

TEST(CampaignReport, CsvListsCountersAndErrors)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 1;
    auto specs = countingSpecs(2);
    specs[0].asmCode = "bad_mnemonic";
    auto campaign = engine.runCampaign(specs, opt);
    std::string csv = campaign.report.toCsv();
    EXPECT_NE(csv.find("total_specs,2"), std::string::npos);
    EXPECT_NE(csv.find("ok,1"), std::string::npos);
    EXPECT_NE(csv.find("worker_0_specs,2"), std::string::npos);
    EXPECT_NE(csv.find("error_assembly-error,1"), std::string::npos);
}

// ------------------------------------------------------ engine stats --

TEST(EngineStats, ResetStatsZeroesCountersWithoutTouchingPool)
{
    Engine engine;
    engine.session({});
    engine.session({});
    EXPECT_EQ(engine.machinesConstructed(), 1u);
    EXPECT_EQ(engine.poolHits(), 1u);

    engine.resetStats();
    EXPECT_EQ(engine.machinesConstructed(), 0u);
    EXPECT_EQ(engine.poolHits(), 0u);
    EXPECT_EQ(engine.poolSize(), 1u);

    // The pool itself is untouched: the next session is still a hit.
    engine.session({});
    EXPECT_EQ(engine.poolHits(), 1u);
    EXPECT_EQ(engine.machinesConstructed(), 0u);
}

TEST(SpecFile, PerLineCounterConfigs)
{
    // ROADMAP item: per-line -config files let one campaign mix event
    // sets. A good path loads; dedup must keep lines with different
    // configs apart.
    core::BenchmarkSpec defaults;
    std::string cfg =
        std::string(core::configDir()) + "/cfg_Skylake.txt";
    auto entries = parseSpecLines("-asm \"nop\" -config \"" + cfg +
                                      "\"\n"
                                      "nop\n",
                                  defaults);
    ASSERT_EQ(entries.size(), 2u);
    ASSERT_FALSE(entries[0].error.has_value());
    EXPECT_FALSE(entries[0].spec.config.empty());
    EXPECT_TRUE(entries[1].spec.config.empty());
    EXPECT_NE(specCanonicalKey(entries[0].spec),
              specCanonicalKey(entries[1].spec));

    // The configured events actually reach the results.
    Engine engine;
    CampaignOptions opt;
    auto campaign = engine.runCampaign(
        {entries[0].spec, entries[1].spec}, opt);
    ASSERT_TRUE(campaign.outcomes[0].ok());
    EXPECT_TRUE(campaign.outcomes[0]
                    .result()
                    .find("UOPS_ISSUED.ANY")
                    .has_value());
    ASSERT_TRUE(campaign.outcomes[1].ok());
    EXPECT_FALSE(campaign.outcomes[1]
                     .result()
                     .find("UOPS_ISSUED.ANY")
                     .has_value());
}

TEST(SpecFile, UnreadableConfigIsAPerLineError)
{
    core::BenchmarkSpec defaults;
    auto entries = parseSpecLines(
        "-asm \"nop\" -config /nonexistent/events.txt\n"
        "-asm \"nop\" -config\n",
        defaults);
    ASSERT_EQ(entries.size(), 2u);
    ASSERT_TRUE(entries[0].error.has_value());
    EXPECT_EQ(entries[0].error->code, RunError::Code::InvalidSpec);
    EXPECT_NE(entries[0].error->message.find("line 1"),
              std::string::npos);
    ASSERT_TRUE(entries[1].error.has_value());
    EXPECT_NE(entries[1].error->message.find("missing value"),
              std::string::npos);
}

// ---------------------------------------------- machine setup --

TEST(Campaign, MachineSetupRunsOncePerWorker)
{
    // The hook runs once per worker, before the reset point, however
    // many specs the worker then runs; every spec still starts from
    // the set-up machine, exactly as if it ran alone on a newly built
    // and set-up one.
    auto specs = historySpecs(9, kSetupArea);
    specs.push_back(specs.front()); // duplicate: deduped
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 3;
    std::atomic<unsigned> calls{0};
    opt.machineSetup = [&](core::Runner &runner) {
        EXPECT_EQ(runner.mode(), Mode::Kernel);
        ++calls;
        profileLikeSetup(runner);
    };
    auto campaign = engine.runCampaign(specs, opt);
    EXPECT_EQ(calls.load(), 3u);
    EXPECT_EQ(campaign.report.cacheHits, 1u);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        sim::Machine machine(uarch::getMicroArch("Skylake"), 42);
        core::Runner runner(machine, Mode::Kernel);
        profileLikeSetup(runner);
        RunOutcome alone = runSpecOnRunner(runner, specs[i]);
        ASSERT_TRUE(alone.ok()) << i;
        ASSERT_TRUE(campaign.outcomes[i].ok()) << i;
        EXPECT_EQ(campaign.outcomes[i].result().toCsv(),
                  alone.result().toCsv())
            << "spec " << i;
    }
}

TEST(Campaign, SpecsSeeTheSetUpMachine)
{
    // Specs planned against a prepared machine (here: an enlarged R14
    // area) only run if the setup hook reproduces that state on the
    // campaign's machines -- exactly the profile builder's contract.
    Addr probe_addr = 0;
    {
        sim::Machine machine(uarch::getMicroArch("Skylake"), 42);
        core::Runner runner(machine, Mode::Kernel);
        ASSERT_TRUE(runner.reserveR14Area(kSetupArea));
        probe_addr = runner.r14Area() + kSetupArea - 64;
    }
    BenchmarkSpec spec;
    spec.asmCode =
        "mov RBX, [" + std::to_string(probe_addr) + "]";

    Engine engine;
    CampaignOptions opt;
    auto without = engine.runCampaign({spec}, opt);
    EXPECT_FALSE(without.outcomes[0].ok()); // page fault

    opt.machineSetup = profileLikeSetup;
    auto with = engine.runCampaign({spec}, opt);
    EXPECT_TRUE(with.outcomes[0].ok());
}

TEST(Campaign, OutcomesAreJobsLayoutInvariant)
{
    // The specs' timings depend on machine history (caches, TLBs,
    // prefetchers); every worker resets to its post-setup state before
    // each spec, so every outcome is a pure function of its spec and
    // any worker count -- and so any queue interleaving of the resets
    // -- produces bit-identical results. Kernel mode runs with a setup
    // hook that enlarges R14 (the specs reach past the default 1 MB
    // area); user mode adds timer interrupts and fragmented areas.
    for (Mode mode : {Mode::Kernel, Mode::User}) {
        SCOPED_TRACE(core::modeName(mode));
        auto specs = historySpecs(
            12, mode == Mode::Kernel ? kSetupArea : 1024 * 1024);
        auto run = [&](unsigned jobs) {
            Engine engine;
            CampaignOptions opt;
            opt.jobs = jobs;
            opt.session.mode = mode;
            if (mode == Mode::Kernel)
                opt.machineSetup = profileLikeSetup;
            return engine.runCampaign(specs, opt);
        };
        auto one = run(1);
        for (unsigned jobs : {2u, 3u, 8u}) {
            auto other = run(jobs);
            ASSERT_EQ(one.outcomes.size(), other.outcomes.size());
            for (std::size_t i = 0; i < one.outcomes.size(); ++i) {
                ASSERT_TRUE(one.outcomes[i].ok()) << i;
                ASSERT_TRUE(other.outcomes[i].ok()) << i;
                EXPECT_EQ(one.outcomes[i].result().toCsv(),
                          other.outcomes[i].result().toCsv())
                    << "jobs " << jobs << ", spec " << i;
            }
        }
    }
}

TEST(Campaign, QueueRunsHeaviestFirst)
{
    // Specs are picked up in descending order of body length x unroll
    // x max(loop, 1) x (warm-up + measurements) x counter rounds;
    // equal estimates keep plan order.
    std::vector<BenchmarkSpec> specs(6);
    specs[0].asmCode = "nop";
    specs[0].unrollCount = 10; // 1 x 10 x 1 x 12 x 1 = 120
    specs[1].asmCode = "nop; nop";
    specs[1].unrollCount = 10; // 240
    specs[2].code = x86::assemble("nop; nop; nop");
    specs[2].unrollCount = 5;
    specs[2].loopCount = 4; // 3 x 5 x 4 x 12 = 720
    specs[3].asmCode = "nop";
    specs[3].unrollCount = 10; // 5 events on 4 counters: 2 rounds, 240
    specs[3].config = CounterConfig::parseString(
        "0E.01 A\nB1.01 B\nA1.01 C\nA1.02 D\nA1.04 E\n");
    ASSERT_EQ(specs[3].config.events().size(), 5u);
    specs[4].asmCode = "nop";
    specs[4].unrollCount = 10;
    specs[4].warmUpCount = 0; // 100
    specs[5] = specs[0];
    specs[5].noMem = true; // 120, ties with spec 0
    specs.push_back(specs[2]); // deduplicated: runs once

    Engine engine;
    CampaignOptions opt;
    opt.jobs = 1;
    std::vector<std::string> started;
    opt.progress = [&](const CampaignProgress &event) {
        if (event.starting)
            started.push_back(event.specKey);
    };
    auto campaign = engine.runCampaign(specs, opt);
    EXPECT_EQ(campaign.report.okCount, specs.size());
    std::vector<std::string> expected;
    for (std::size_t i : {2, 1, 3, 0, 5, 4})
        expected.push_back(core::specCanonicalKey(specs[i]));
    EXPECT_EQ(started, expected);
}

TEST(EngineStats, LifetimeCountersSurviveClearPool)
{
    // Documented semantics: clearPool() drops machines but keeps the
    // monotonic lifetime counters; resetStats() is the explicit way
    // to open a fresh measurement window.
    Engine engine;
    engine.session({});
    engine.session({});
    engine.clearPool();
    EXPECT_EQ(engine.poolSize(), 0u);
    EXPECT_EQ(engine.machinesConstructed(), 1u);
    EXPECT_EQ(engine.poolHits(), 1u);

    engine.session({});
    EXPECT_EQ(engine.machinesConstructed(), 2u);
    EXPECT_EQ(engine.poolHits(), 1u);
}

// ---------------------------------------------- program decodes --

std::vector<BenchmarkSpec>
decodeSpecs(int n, int distinct_bodies)
{
    std::vector<BenchmarkSpec> specs;
    for (int i = 0; i < n; ++i) {
        BenchmarkSpec s;
        s.asmCode = "add RAX, " + std::to_string(i % distinct_bodies + 1);
        s.nMeasurements = 2;
        s.warmUpCount = 1;
        specs.push_back(s);
    }
    return specs;
}

TEST(CampaignDecodes, EveryRunDecodesAndNothingIsRetained)
{
    // 1 counter round per unique spec: 8 decodes, each shared by both
    // unroll versions and their warm-up + measurement executions. No
    // decoded program outlives its run, so an identical second
    // campaign decodes all 8 again.
    Engine engine;
    auto specs = decodeSpecs(8, 8);
    CampaignOptions opt;
    opt.jobs = 4;
    auto first = engine.runCampaign(specs, opt);
    EXPECT_EQ(first.report.okCount, specs.size());
    EXPECT_EQ(first.report.telemetry.program.misses, 8u);

    auto second = engine.runCampaign(specs, opt);
    EXPECT_EQ(second.report.okCount, specs.size());
    CacheStats stats = second.report.telemetry.program;
    EXPECT_EQ(stats.misses, 16u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(engine.telemetry().program, stats);
}

TEST(CampaignDecodes, ResetStatsZeroesTheDecodeCount)
{
    Engine engine;
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX";
    spec.nMeasurements = 2;
    spec.warmUpCount = 0;
    ASSERT_TRUE(engine.session({}).run(spec).ok());
    EXPECT_EQ(engine.telemetry().program.misses, 1u);

    engine.resetStats();
    EXPECT_EQ(engine.telemetry().program.misses, 0u);
    ASSERT_TRUE(engine.session({}).run(spec).ok());
    EXPECT_EQ(engine.telemetry().program.misses, 1u);
}

TEST(CampaignDecodes, ConcurrentWorkersCountEveryDecode)
{
    // 8 workers race 24 specs over 3 distinct bodies (dedup off, so
    // duplicates really execute), all bumping the engine's one decode
    // counter: the concurrent campaign the TSan CI job observes. Every
    // spec decodes its own program, once for both unroll versions.
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 8;
    opt.dedup = false;
    auto result = engine.runCampaign(decodeSpecs(24, 3), opt);
    EXPECT_EQ(result.report.okCount, 24u);
    EXPECT_EQ(result.report.telemetry.program.misses, 24u);
}

TEST(Session, SessionOutlivesEngine)
{
    // The engine.hh contract: sessions keep working after the engine
    // is gone. The runner's shared_ptr copy keeps the engine's decode
    // counter alive.
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX";
    spec.nMeasurements = 2;
    spec.warmUpCount = 0;
    std::optional<Session> session;
    {
        Engine engine;
        session.emplace(engine.session({}));
        ASSERT_TRUE(session->run(spec).ok());
    }
    ASSERT_TRUE(session->run(spec).ok());
    BenchmarkSpec other = spec;
    other.asmCode = "add RBX, RBX";
    ASSERT_TRUE(session->run(other).ok());
    EXPECT_EQ(session->runner().decodes(), 3u);
}

} // namespace
} // namespace nb
