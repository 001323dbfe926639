/**
 * @file
 * Tests for the Engine / Session API: machine pooling, batch
 * execution, RunError reporting, structured-result serialization, and
 * cache telemetry.
 */

#include <gtest/gtest.h>

#include "analysis/analysis.hh"
#include "core/engine.hh"
#include "obs/metrics.hh"
#include "x86/assembler.hh"

namespace nb
{
namespace
{

using core::BenchmarkResult;
using core::BenchmarkSpec;
using core::CounterConfig;
using core::Mode;
using core::ResultLookupError;

// ------------------------------------------------------------- pool --

TEST(Engine, PoolsMachinesByKey)
{
    Engine engine;
    Session a = engine.session({});
    Session b = engine.session({});
    // Identical (uarch, mode, seed) keys share one machine.
    EXPECT_EQ(&a.machine(), &b.machine());
    EXPECT_EQ(&a.runner(), &b.runner());
    EXPECT_EQ(engine.machinesConstructed(), 1u);
    EXPECT_EQ(engine.poolHits(), 1u);
    EXPECT_EQ(engine.poolSize(), 1u);
}

TEST(Engine, DistinctKeysGetDistinctMachines)
{
    Engine engine;
    SessionOptions base;
    Session a = engine.session(base);

    SessionOptions other_seed = base;
    other_seed.seed = 7;
    Session b = engine.session(other_seed);
    EXPECT_NE(&a.machine(), &b.machine());

    SessionOptions other_mode = base;
    other_mode.mode = Mode::User;
    Session c = engine.session(other_mode);
    EXPECT_NE(&a.machine(), &c.machine());

    SessionOptions other_uarch = base;
    other_uarch.uarch = "Haswell";
    Session d = engine.session(other_uarch);
    EXPECT_NE(&a.machine(), &d.machine());

    EXPECT_EQ(engine.machinesConstructed(), 4u);
    EXPECT_EQ(engine.poolHits(), 0u);
}

TEST(Engine, RunningTwiceConstructsMachineOnce)
{
    Engine engine;
    Session session = engine.session({});
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX";
    EXPECT_TRUE(session.run(spec).ok());
    EXPECT_TRUE(session.run(spec).ok());
    EXPECT_EQ(engine.machinesConstructed(), 1u);
}

TEST(Engine, SessionOutlivesEngine)
{
    // The lease keeps the machine alive after the engine (or its
    // pool) is gone.
    Session session = [] {
        Engine engine;
        return engine.session({});
    }();
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX";
    auto outcome = session.run(spec);
    ASSERT_TRUE(outcome.ok());
    EXPECT_NEAR(outcome.result()["Core cycles"], 1.0, 0.05);
}

TEST(Engine, ClearPoolKeepsOutstandingSessionsAlive)
{
    Engine engine;
    Session a = engine.session({});
    engine.clearPool();
    EXPECT_EQ(engine.poolSize(), 0u);
    Session b = engine.session({});
    EXPECT_NE(&a.machine(), &b.machine());
    EXPECT_EQ(engine.machinesConstructed(), 2u);

    BenchmarkSpec spec;
    spec.asmCode = "nop";
    EXPECT_TRUE(a.run(spec).ok()); // old lease still valid
}

TEST(Engine, UnknownUarchThrowsAtSessionCreation)
{
    Engine engine;
    SessionOptions opt;
    opt.uarch = "NotACpu";
    EXPECT_THROW(engine.session(opt), FatalError);
}

// ------------------------------------------------------------ batch --

TEST(Session, RunBatchPreservesOrder)
{
    Engine engine;
    Session session = engine.session({});

    std::vector<BenchmarkSpec> specs(3);
    specs[0].asmCode = "nop";
    specs[1].asmCode = "nop; nop";
    specs[2].asmCode = "nop; nop; nop";
    auto outcomes = session.runBatch(specs);

    ASSERT_EQ(outcomes.size(), 3u);
    for (unsigned i = 0; i < 3; ++i) {
        ASSERT_TRUE(outcomes[i].ok()) << i;
        EXPECT_NEAR(outcomes[i].result()["Instructions retired"],
                    i + 1.0, 0.05)
            << i;
    }
    EXPECT_EQ(engine.machinesConstructed(), 1u);
}

TEST(Session, BatchSurvivesFailingSpec)
{
    Engine engine;
    Session session = engine.session({});

    std::vector<BenchmarkSpec> specs(3);
    specs[0].asmCode = "add RAX, RAX";
    specs[1].asmCode = "definitely_not_x86 RAX";
    specs[2].asmCode = "imul RAX, RAX";
    auto outcomes = session.runBatch(specs);

    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok());
    ASSERT_FALSE(outcomes[1].ok());
    EXPECT_EQ(outcomes[1].error().code,
              RunError::Code::AssemblyError);
    ASSERT_TRUE(outcomes[2].ok());
    EXPECT_NEAR(outcomes[2].result()["Core cycles"], 3.0, 0.1);
}

// ----------------------------------------------------------- errors --

TEST(Session, InvalidAsmIsAnAssemblyError)
{
    Engine engine;
    Session session = engine.session({});
    BenchmarkSpec spec;
    spec.asmCode = "mov R14, [[R14]";
    auto outcome = session.run(spec);
    ASSERT_FALSE(outcome.ok());
    EXPECT_FALSE(static_cast<bool>(outcome));
    EXPECT_EQ(outcome.error().code, RunError::Code::AssemblyError);
    EXPECT_THROW(outcome.resultOrThrow(), FatalError);
}

TEST(Session, EmptyBodyIsInvalidSpec)
{
    Engine engine;
    Session session = engine.session({});
    auto outcome = session.run(BenchmarkSpec{});
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, RunError::Code::InvalidSpec);
}

TEST(Session, PrivilegedInUserModeIsAnExecutionError)
{
    Engine engine;
    SessionOptions opt;
    opt.mode = Mode::User;
    Session session = engine.session(opt);
    BenchmarkSpec spec;
    spec.asmCode = "wbinvd";
    spec.unrollCount = 1;
    auto outcome = session.run(spec);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, RunError::Code::ExecutionError);
}

TEST(Session, AperfMperfInUserModeIsUnsupported)
{
    Engine engine;
    SessionOptions opt;
    opt.mode = Mode::User;
    Session session = engine.session(opt);
    BenchmarkSpec spec;
    spec.asmCode = "nop";
    spec.aperfMperf = true;
    auto outcome = session.run(spec);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, RunError::Code::Unsupported);
}

TEST(Session, ZeroMeasurementsIsInvalidSpec)
{
    // Without up-front validation this crashed in applyAggregate's
    // empty-vector handling deep inside the measurement loop.
    Engine engine;
    Session session = engine.session({});
    BenchmarkSpec spec;
    spec.asmCode = "nop";
    spec.nMeasurements = 0;
    auto outcome = session.run(spec);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, RunError::Code::InvalidSpec);
    EXPECT_NE(outcome.error().message.find("nMeasurements"),
              std::string::npos);
}

TEST(Session, ZeroUnrollCountIsInvalidSpec)
{
    // Programmatic specs bypass the CLI's clamp; the engine must
    // still reject them as data, not crash.
    Engine engine;
    Session session = engine.session({});
    BenchmarkSpec spec;
    spec.asmCode = "nop";
    spec.unrollCount = 0;
    auto outcome = session.run(spec);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, RunError::Code::InvalidSpec);
}

TEST(Runner, InvalidSpecParametersAreFatalNotPanic)
{
    // A direct Runner::run must also reject invalid parameters up
    // front, as a user-level FatalError (not an internal-invariant
    // PanicError from the aggregate functions).
    Engine engine;
    Session session = engine.session({});
    BenchmarkSpec spec;
    spec.asmCode = "nop";
    spec.code = x86::assemble(spec.asmCode);
    spec.nMeasurements = 0;
    EXPECT_THROW(session.runner().run(spec), FatalError);
    spec.nMeasurements = 10;
    spec.unrollCount = 0;
    EXPECT_THROW(session.runner().run(spec), FatalError);
}

TEST(Runner, UserModeAperfMperfIsFatalUpFront)
{
    Engine engine;
    SessionOptions opt;
    opt.mode = Mode::User;
    Session session = engine.session(opt);
    BenchmarkSpec spec;
    spec.code = x86::assemble("nop");
    spec.aperfMperf = true;
    EXPECT_THROW(session.runner().run(spec), FatalError);
}

TEST(Session, ValidateSpecClassifiesKinds)
{
    BenchmarkSpec spec;
    spec.asmCode = "nop";
    EXPECT_FALSE(core::validateSpec(spec, Mode::User).has_value());

    spec.nMeasurements = 0;
    auto issue = core::validateSpec(spec, Mode::Kernel);
    ASSERT_TRUE(issue.has_value());
    EXPECT_EQ(issue->kind, core::SpecIssue::Kind::Invalid);

    spec.nMeasurements = 10;
    spec.aperfMperf = true;
    issue = core::validateSpec(spec, Mode::User);
    ASSERT_TRUE(issue.has_value());
    EXPECT_EQ(issue->kind, core::SpecIssue::Kind::Unsupported);
    EXPECT_FALSE(core::validateSpec(spec, Mode::Kernel).has_value());
}

TEST(Session, RunErrorCodeNames)
{
    EXPECT_STREQ(runErrorCodeName(RunError::Code::InvalidSpec),
                 "invalid-spec");
    EXPECT_STREQ(runErrorCodeName(RunError::Code::AssemblyError),
                 "assembly-error");
    EXPECT_STREQ(runErrorCodeName(RunError::Code::Unsupported),
                 "unsupported");
    EXPECT_STREQ(runErrorCodeName(RunError::Code::ExecutionError),
                 "execution-error");
}

// ---------------------------------------------------------- results --

TEST(Result, FindReturnsNulloptAndIndexThrows)
{
    BenchmarkResult result;
    result.lines.push_back({"Core cycles", 4.0});
    EXPECT_EQ(result.find("Core cycles"), 4.0);
    EXPECT_EQ(result.find("No such line"), std::nullopt);
    EXPECT_TRUE(result.has("Core cycles"));
    EXPECT_FALSE(result.has("No such line"));
    EXPECT_THROW(result["No such line"], ResultLookupError);
    // ResultLookupError stays catchable as the old FatalError.
    EXPECT_THROW(result["No such line"], FatalError);
    try {
        result["No such line"];
        FAIL() << "expected ResultLookupError";
    } catch (const ResultLookupError &e) {
        EXPECT_EQ(e.missingName(), "No such line");
    }
}

TEST(Result, CarriesMetadata)
{
    Engine engine;
    Session session = engine.session({});
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX";
    auto result = session.runOrThrow(spec);
    EXPECT_EQ(result.uarch, "Skylake");
    EXPECT_EQ(result.mode, "kernel");
    EXPECT_NE(result.specEcho.find("add RAX, RAX"), std::string::npos);
    EXPECT_GT(result.lastRunCycles, 0u);
}

TEST(Result, JsonRoundTrip)
{
    Engine engine;
    Session session = engine.session({});
    BenchmarkSpec spec;
    spec.asmCode = "mov R14, [R14]";
    spec.asmInit = "mov [R14], R14";
    spec.config = CounterConfig::forMicroArch("Skylake");
    auto result = session.runOrThrow(spec);
    ASSERT_FALSE(result.lines.empty());

    auto parsed = BenchmarkResult::fromJson(result.toJson());
    EXPECT_EQ(parsed.uarch, result.uarch);
    EXPECT_EQ(parsed.mode, result.mode);
    EXPECT_EQ(parsed.specEcho, result.specEcho);
    EXPECT_EQ(parsed.lastRunCycles, result.lastRunCycles);
    ASSERT_EQ(parsed.lines.size(), result.lines.size());
    for (std::size_t i = 0; i < result.lines.size(); ++i) {
        EXPECT_EQ(parsed.lines[i].name, result.lines[i].name);
        EXPECT_EQ(parsed.lines[i].value, result.lines[i].value);
    }
}

TEST(Result, SerializersEscapeAwkwardNames)
{
    BenchmarkResult result;
    result.uarch = "Skylake";
    result.mode = "kernel";
    result.specEcho = "asm=\"mov R14, [R14]\" unroll=100";
    result.lastRunCycles = 42;
    result.lines.push_back({"quote\"comma, \\slash", 1.25});
    result.lines.push_back({"tab\tnewline\n", -3.5});

    auto from_json = BenchmarkResult::fromJson(result.toJson());
    ASSERT_EQ(from_json.lines.size(), 2u);
    EXPECT_EQ(from_json.lines[0].name, result.lines[0].name);
    EXPECT_EQ(from_json.lines[0].value, 1.25);
    EXPECT_EQ(from_json.lines[1].name, result.lines[1].name);
    EXPECT_EQ(from_json.specEcho, result.specEcho);

    // CSV: embedded newlines and backslashes are backslash-escaped so
    // every record stays on one line; a field with a comma or quote
    // is double-quoted, its quotes doubled.
    EXPECT_EQ(result.toCsv(),
              "# uarch: Skylake\n"
              "# mode: kernel\n"
              "# spec: asm=\"mov R14, [R14]\" unroll=100\n"
              "# last_run_cycles: 42\n"
              "name,value\n"
              "\"quote\"\"comma, \\\\slash\",1.25\n"
              "tab\tnewline\\n,-3.5\n");

    // Metadata with an embedded newline stays on its comment line.
    BenchmarkResult nl_meta = result;
    nl_meta.specEcho = "asm=\"line1\nline2\"";
    EXPECT_NE(nl_meta.toCsv().find("# spec: asm=\"line1\\nline2\"\n"),
              std::string::npos);
}

TEST(Result, FromJsonRejectsGarbage)
{
    EXPECT_THROW(BenchmarkResult::fromJson("not json"), FatalError);
    EXPECT_THROW(BenchmarkResult::fromJson("{\"lines\": ["),
                 FatalError);
    // Concatenated documents must not be silently truncated to the
    // first object.
    BenchmarkResult r;
    r.lines.push_back({"Core cycles", 1.0});
    EXPECT_THROW(BenchmarkResult::fromJson(r.toJson() + r.toJson()),
                 FatalError);
}

// ------------------------------------------------------- defaults --

TEST(Spec, DefaultsMatchTheAdvertisedCli)
{
    // The CLI usage text promises unroll_count 100 and warm_up_count
    // 2 (the paper's §III-E front-end defaults); the spec must agree.
    BenchmarkSpec spec;
    EXPECT_EQ(spec.unrollCount, 100u);
    EXPECT_EQ(spec.warmUpCount, 2u);
    EXPECT_EQ(spec.loopCount, 0u);
    EXPECT_EQ(spec.nMeasurements, 10u);
}

// -------------------------------------------------------- telemetry --

TEST(Telemetry, SnapshotMatchesIndividualAccessors)
{
    Engine engine;
    Session session = engine.session({});
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX";
    spec.nMeasurements = 2;
    spec.warmUpCount = 0;
    ASSERT_TRUE(session.run(spec).ok());

    EngineTelemetry t = engine.telemetry();
    EXPECT_EQ(t.poolSize, engine.poolSize());
    EXPECT_EQ(t.machinesConstructed, engine.machinesConstructed());
    EXPECT_EQ(t.poolHits, engine.poolHits());
    EXPECT_EQ(t.program.misses, session.runner().decodes());
    EXPECT_EQ(t.program.hits, 0u);
    EXPECT_EQ(t.program.evictions, 0u);
    EXPECT_EQ(t.assemble, assembleCacheCounters());
    EXPECT_EQ(t.lint, analysis::lintCacheCounters());
    EXPECT_GT(t.program.misses, 0u);
}

TEST(Telemetry, PublishesPeakRss)
{
    Engine engine;
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX";
    spec.nMeasurements = 2;
    spec.warmUpCount = 0;
    ASSERT_TRUE(engine.session({}).run(spec).ok());

    obs::Registry registry;
    obs::publishEngineTelemetry(engine.telemetry(), registry);
    bool found = false;
    for (const auto &[name, value] : registry.snapshot().gauges) {
        if (name == "process.peak_rss_mb") {
            found = true;
            EXPECT_GT(value, 0.0);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Telemetry, JsonIsExact)
{
    EngineTelemetry t;
    t.poolSize = 3;
    t.machinesConstructed = 7;
    t.poolHits = 11;
    t.program = {0, 200};
    t.assemble = {300, 400};
    t.lint = {500, 600, 2};
    EXPECT_EQ(t.toJson(),
              "{\n  \"pool_size\": 3,\n  \"machines_constructed\": 7,\n"
              "  \"pool_hits\": 11,\n"
              "  \"program_cache\": {\"hits\": 0, \"misses\": 200, "
              "\"evictions\": 0},\n"
              "  \"assemble_cache\": {\"hits\": 300, \"misses\": 400, "
              "\"evictions\": 0},\n"
              "  \"lint_cache\": {\"hits\": 500, \"misses\": 600, "
              "\"evictions\": 2}\n}\n");
}

TEST(Telemetry, CsvListsEveryCache)
{
    Engine engine;
    EngineTelemetry t = engine.telemetry();
    std::string csv = t.toCsv();
    for (const char *key :
         {"pool_size,", "machines_constructed,", "pool_hits,",
          "program_cache_hits,", "program_cache_misses,",
          "assemble_cache_hits,",
          "assemble_cache_misses,", "lint_cache_hits,",
          "lint_cache_misses,"}) {
        EXPECT_NE(csv.find(key), std::string::npos) << key;
    }
    for (const char *key :
         {"program_cache_evictions,", "assemble_cache_evictions,",
          "lint_cache_evictions,"}) {
        EXPECT_NE(csv.find(key), std::string::npos) << key;
    }
    EXPECT_EQ(csv.find("program_cache_size,"), std::string::npos);
}

} // namespace
} // namespace nb
