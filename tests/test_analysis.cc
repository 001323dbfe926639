/**
 * @file
 * Tests for the spec static analyzer (analysis/analysis.hh): each
 * rule's firing and non-firing cases, diagnostic serialization
 * round-trips, the lintLevel gate in Session::run, the report memo,
 * and the planner self-verification sweep -- every spec the
 * characterizer, profile, and cachetools planners emit must lint
 * clean on every supported microarchitecture.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analysis.hh"
#include "cachetools/cacheseq.hh"
#include "cachetools/dueling_scan.hh"
#include "core/engine.hh"
#include "profile/build.hh"
#include "uarch/uarch.hh"
#include "uops/characterize.hh"
#include "x86/assembler.hh"

namespace nb
{
namespace
{

using analysis::Context;
using analysis::Report;
using analysis::Severity;

const uarch::MicroArch &
skylake()
{
    return uarch::getMicroArch("Skylake");
}

core::BenchmarkSpec
asmSpec(const std::string &body, const std::string &init = "")
{
    core::BenchmarkSpec spec;
    spec.asmCode = body;
    spec.asmInit = init;
    return spec;
}

Report
analyze(const core::BenchmarkSpec &spec, const Context &ctx = {})
{
    return analysis::analyzeSpec(skylake(), spec, ctx);
}

/** One pooled machine set shared by the sweep tests. */
Engine &
sweepEngine()
{
    static Engine engine;
    return engine;
}

// ------------------------------------------------- R0: unsupported --

TEST(AnalysisR0, UnsupportedOpcodeIsPositionedError)
{
    // VADDPS needs AVX; Nehalem has none.
    core::BenchmarkSpec spec =
        asmSpec("mov RAX, 1; vaddps XMM0, XMM1, XMM2");
    Report rep = analysis::analyzeSpec(uarch::getMicroArch("Nehalem"),
                                       spec, {});
    ASSERT_EQ(rep.diagnostics.size(), 1u);
    const analysis::Diagnostic &d = rep.diagnostics[0];
    EXPECT_EQ(d.rule, "R0");
    EXPECT_EQ(d.severity, Severity::Error);
    EXPECT_EQ(d.segment, analysis::Segment::Body);
    EXPECT_EQ(d.index, 1);
    EXPECT_NE(d.message.find("Nehalem"), std::string::npos);
}

TEST(AnalysisR0, UnsupportedOpcodeSuppressesOtherRules)
{
    // The decode would fault, so no dataflow rules run: the R15
    // clobber next to the unsupported opcode is not reported.
    core::BenchmarkSpec spec =
        asmSpec("mov R15, 5; vaddps XMM0, XMM1, XMM2");
    spec.loopCount = 10;
    Report rep = analysis::analyzeSpec(uarch::getMicroArch("Nehalem"),
                                       spec, {});
    EXPECT_TRUE(rep.hasRule("R0"));
    EXPECT_FALSE(rep.hasRule("R1"));
}

TEST(AnalysisR0, SupportedOpcodeIsClean)
{
    Report rep = analyze(asmSpec("vaddps XMM0, XMM1, XMM2"));
    EXPECT_FALSE(rep.hasRule("R0"));
}

// ------------------------------------- R1: reserved-register writes --

TEST(AnalysisR1, LoopCounterClobberIsError)
{
    core::BenchmarkSpec spec = asmSpec("mov R15, 5");
    spec.loopCount = 10;
    Report rep = analyze(spec);
    ASSERT_TRUE(rep.hasRule("R1"));
    EXPECT_EQ(rep.count(Severity::Error), 1u);
    // Repeat-block multiplicity: the default unroll factor is 100, so
    // the one static write is 100 dynamic clobbers.
    EXPECT_NE(rep.diagnostics[0].message.find("100 dynamic clobbers"),
              std::string::npos);
}

TEST(AnalysisR1, LoopCounterWriteWithoutLoopIsClean)
{
    // loopCount == 0: nothing reads R15, the write is harmless.
    Report rep = analyze(asmSpec("mov R15, 5"));
    EXPECT_FALSE(rep.hasRule("R1"));
}

TEST(AnalysisR1, SingleCopyClobberSkipsMultiplicityNote)
{
    core::BenchmarkSpec spec = asmSpec("mov R15, 5");
    spec.loopCount = 10;
    spec.unrollCount = 1;
    Report rep = analyze(spec);
    ASSERT_TRUE(rep.hasRule("R1"));
    EXPECT_EQ(rep.diagnostics[0].message.find("dynamic clobbers"),
              std::string::npos);
}

TEST(AnalysisR1, UnderivedR14WriteIsWarning)
{
    Report rep = analyze(asmSpec("mov R14, 42"));
    ASSERT_TRUE(rep.hasRule("R1"));
    EXPECT_EQ(rep.count(Severity::Warning), 1u);
}

TEST(AnalysisR1, PointerChaseKeepsR14Derived)
{
    // The §VI-B latency chase: R14's new value is loaded *through*
    // R14, so it stays derived from the area base.
    Report rep = analyze(asmSpec("mov R14, [R14]"));
    EXPECT_TRUE(rep.clean()) << rep.format();
}

TEST(AnalysisR1, R14ArithmeticStaysDerived)
{
    Report rep = analyze(asmSpec("add R14, 64"));
    EXPECT_FALSE(rep.hasRule("R1"));
}

// ------------------------------------- R2: noMem accumulator abuse --

TEST(AnalysisR2, AccumulatorWriteInNoMemSpecIsError)
{
    core::BenchmarkSpec spec = asmSpec("add R8, 1");
    spec.noMem = true;
    Report rep = analyze(spec);
    ASSERT_TRUE(rep.hasRule("R2"));
    EXPECT_EQ(rep.count(Severity::Error), 1u);
}

TEST(AnalysisR2, AccumulatorReadInNoMemSpecIsWarning)
{
    core::BenchmarkSpec spec = asmSpec("mov RAX, R8");
    spec.noMem = true;
    Report rep = analyze(spec);
    ASSERT_TRUE(rep.hasRule("R2"));
    EXPECT_EQ(rep.count(Severity::Warning), 1u);
}

TEST(AnalysisR2, OneDiagnosticPerAccumulator)
{
    core::BenchmarkSpec spec = asmSpec("add R8, 1; add R8, 2");
    spec.noMem = true;
    Report rep = analyze(spec);
    EXPECT_EQ(rep.diagnostics.size(), 1u) << rep.format();
}

TEST(AnalysisR2, AccumulatorUseWithoutNoMemIsClean)
{
    Report rep = analyze(asmSpec("add R8, 1"));
    EXPECT_FALSE(rep.hasRule("R2"));
}

// ----------------------------------- R3: broken dependency chains --

TEST(AnalysisR3, ExpectWithoutChainIsError)
{
    Context ctx;
    ctx.chain = Context::Chain::Expect;
    Report rep = analyze(asmSpec("mov RAX, RBX"), ctx);
    ASSERT_TRUE(rep.hasRule("R3"));
    EXPECT_EQ(rep.count(Severity::Error), 1u);
}

TEST(AnalysisR3, ExpectAnchorsOnChainBreakingZeroIdiom)
{
    // With the idiom treated as a plain read there *would* be a
    // chain, so the diagnostic points at the idiom instruction.
    Context ctx;
    ctx.chain = Context::Chain::Expect;
    Report rep = analyze(asmSpec("xor RAX, RAX; add RAX, RBX"), ctx);
    ASSERT_TRUE(rep.hasRule("R3"));
    ASSERT_EQ(rep.count(Severity::Error), 1u);
    const analysis::Diagnostic &d = rep.diagnostics[0];
    EXPECT_EQ(d.index, 0);
    EXPECT_NE(d.message.find("zero idiom"), std::string::npos);
}

TEST(AnalysisR3, ExpectWithRealChainIsClean)
{
    Context ctx;
    ctx.chain = Context::Chain::Expect;
    Report rep = analyze(asmSpec("add RAX, RBX"), ctx);
    EXPECT_FALSE(rep.hasRule("R3"));
}

TEST(AnalysisR3, ExpectSeesFlagsChains)
{
    // The SETcc chain threads through RFLAGS, not a GPR.
    Context ctx;
    ctx.chain = Context::Chain::Expect;
    Report rep = analyze(asmSpec("setz AL; test AL, AL"), ctx);
    EXPECT_FALSE(rep.hasRule("R3")) << rep.format();
}

TEST(AnalysisR3, AutoFlagsSingleIdiomChainBreak)
{
    Report rep = analyze(asmSpec("xor RAX, RAX"));
    ASSERT_TRUE(rep.hasRule("R3"));
    EXPECT_EQ(rep.count(Severity::Warning), 1u);
}

TEST(AnalysisR3, AutoStaysSilentOnDepBreakingIdiomPools)
{
    // Throughput benchmarks break dependencies with *many* idioms
    // (one per unrolled copy); that is intentional, not a chain bug.
    Report rep = analyze(asmSpec("xor RAX, RAX; xor RBX, RBX"));
    EXPECT_FALSE(rep.hasRule("R3"));
}

TEST(AnalysisR3, IgnoreSkipsChainAnalysis)
{
    Context ctx;
    ctx.chain = Context::Chain::Ignore;
    Report rep = analyze(asmSpec("xor RAX, RAX"), ctx);
    EXPECT_FALSE(rep.hasRule("R3"));
}

// --------------------------------------- R4: dead measured code --

TEST(AnalysisR4, OverwrittenResultIsWarning)
{
    Report rep = analyze(asmSpec("mov RAX, 5; mov RAX, 6"));
    ASSERT_TRUE(rep.hasRule("R4"));
    EXPECT_EQ(rep.diagnostics[0].index, 0);
}

TEST(AnalysisR4, InterveningReadKeepsResultLive)
{
    Report rep =
        analyze(asmSpec("mov RAX, 5; mov RBX, RAX; mov RAX, 6"));
    EXPECT_FALSE(rep.hasRule("R4"));
}

TEST(AnalysisR4, CrossIterationOverwriteIsNotDead)
{
    // The next unroll copy overwrites RAX -- that is the standard
    // throughput idiom, so the scan must not wrap around.
    Report rep = analyze(asmSpec("mov RAX, 5"));
    EXPECT_FALSE(rep.hasRule("R4"));
}

TEST(AnalysisR4, PartialWidthRedefineDoesNotKill)
{
    // An 8-bit write merges into the old value; the 64-bit result is
    // not dead.
    Report rep = analyze(asmSpec("mov RAX, 5; setz AL"));
    EXPECT_FALSE(rep.hasRule("R4"));
}

// ------------------------------------------ R5: memory footprint --

TEST(AnalysisR5, R14AccessPastAreaEndIsError)
{
    Context ctx; // default 1 MB area
    Report rep = analyze(asmSpec("mov RAX, [R14 + 1048576]"), ctx);
    ASSERT_TRUE(rep.hasRule("R5"));
    EXPECT_EQ(rep.count(Severity::Error), 1u);
}

TEST(AnalysisR5, NegativeR14OffsetIsError)
{
    Report rep = analyze(asmSpec("mov RAX, [R14 - 8]"));
    EXPECT_TRUE(rep.hasRule("R5"));
}

TEST(AnalysisR5, InBoundsR14AccessIsClean)
{
    Report rep = analyze(asmSpec("mov RAX, [R14 + 1048568]"));
    EXPECT_FALSE(rep.hasRule("R5"));
}

TEST(AnalysisR5, BoundsOnlyApplyWhileR14IsExact)
{
    // Once R14 no longer holds the area base, R14-relative offsets
    // mean something else; no bounds claim is possible.
    Report rep = analyze(
        asmSpec("mov RAX, [R14 + 2097152]", "mov R14, RAX"));
    EXPECT_FALSE(rep.hasRule("R5"));
}

TEST(AnalysisR5, ResultAreaOverlapFlaggedAgainstLiveRunner)
{
    Engine engine;
    Session session = engine.session({});
    Context ctx = Context::forRunner(session.runner());
    ASSERT_NE(ctx.resultBase, 0u);

    auto abs_access = [&](bool store) {
        x86::MemRef m;
        m.disp = static_cast<std::int64_t>(ctx.resultBase);
        x86::Instruction insn;
        insn.opcode = x86::Opcode::MOV;
        if (store) {
            insn.operands = {x86::Operand::makeMem(m, 64),
                             x86::Operand::makeReg(x86::Reg::RBX)};
        } else {
            insn.operands = {x86::Operand::makeReg(x86::Reg::RBX),
                             x86::Operand::makeMem(m, 64)};
        }
        core::BenchmarkSpec spec;
        spec.code = {insn};
        return spec;
    };

    Report stores = analyze(abs_access(true), ctx);
    ASSERT_TRUE(stores.hasRule("R5"));
    EXPECT_EQ(stores.count(Severity::Error), 1u);

    Report loads = analyze(abs_access(false), ctx);
    ASSERT_TRUE(loads.hasRule("R5"));
    EXPECT_EQ(loads.count(Severity::Warning), 1u);
}

// -------------------------------------------- R6: flags liveness --

TEST(AnalysisR6, InitFlagsConsumedByBodyIsWarning)
{
    Report rep = analyze(asmSpec("cmovz RAX, RBX", "cmp RAX, RBX"));
    ASSERT_TRUE(rep.hasRule("R6"));
    EXPECT_EQ(rep.count(Severity::Warning), 1u);
    EXPECT_EQ(rep.diagnostics[0].segment, analysis::Segment::Body);
    EXPECT_EQ(rep.diagnostics[0].index, 0);
}

TEST(AnalysisR6, ClearedCarryFeedingCarryReadersSurvives)
{
    // The planners' ADC/SBB pattern: TEST clears CF, the readout's OR
    // accumulation also leaves CF = 0, so the body's carry input is
    // well-defined. Must stay silent.
    Report rep = analyze(
        asmSpec("adc RAX, RBX", "mov RBX, 0; test RBX, RBX"));
    EXPECT_FALSE(rep.hasRule("R6")) << rep.format();
}

TEST(AnalysisR6, NonLogicFlagsWriterDoesNotSurvive)
{
    // ADD's CF depends on its operands -- nothing guarantees the
    // readout preserves it.
    Report rep = analyze(asmSpec("adc RAX, RBX", "add RBX, 1"));
    EXPECT_TRUE(rep.hasRule("R6"));
}

TEST(AnalysisR6, BodyDefinedFlagsAreFine)
{
    Report rep = analyze(
        asmSpec("test RAX, RAX; cmovz RAX, RBX", "cmp RAX, RBX"));
    EXPECT_FALSE(rep.hasRule("R6"));
}

// ------------------------------------- serialization round-trips --

Report
sampleReport()
{
    core::BenchmarkSpec spec =
        asmSpec("mov R15, 5; mov RAX, 5; mov RAX, 6");
    spec.loopCount = 10;
    return analyze(spec);
}

TEST(AnalysisReport, JsonRoundTrip)
{
    Report rep = sampleReport();
    ASSERT_FALSE(rep.empty());
    EXPECT_EQ(Report::fromJson(rep.toJson()), rep);

    Report empty;
    EXPECT_EQ(Report::fromJson(empty.toJson()), empty);
}

TEST(AnalysisReport, CsvRoundTrip)
{
    Report rep = sampleReport();
    ASSERT_FALSE(rep.empty());
    EXPECT_EQ(Report::fromCsv(rep.toCsv()), rep);
}

TEST(AnalysisReport, CsvEscapesSeparatorsAndQuotes)
{
    Report rep;
    analysis::Diagnostic d;
    d.rule = "R9";
    d.severity = Severity::Info;
    d.segment = analysis::Segment::Init;
    d.index = 3;
    d.insn = "mov RAX, 5";
    d.message = "a \"quoted\" message, with commas";
    rep.diagnostics.push_back(d);
    EXPECT_EQ(Report::fromCsv(rep.toCsv()), rep);
    EXPECT_EQ(Report::fromJson(rep.toJson()), rep);
}

TEST(AnalysisReport, FormatMentionsRuleAndPosition)
{
    core::BenchmarkSpec spec = asmSpec("mov R15, 5");
    spec.loopCount = 1;
    Report rep = analyze(spec);
    ASSERT_FALSE(rep.empty());
    std::string line = rep.diagnostics[0].format();
    EXPECT_NE(line.find("error R1 body[0]"), std::string::npos)
        << line;
}

// ------------------------------- lintLevel gate in Session::run --

TEST(AnalysisLintLevel, OffRunsWarningSpecs)
{
    Engine engine;
    Session session = engine.session({});
    core::BenchmarkSpec spec = asmSpec("mov RAX, 5; mov RAX, 6");
    RunOutcome outcome = session.run(spec);
    EXPECT_TRUE(outcome.ok());
}

TEST(AnalysisLintLevel, WarnRejectsWarningSpecs)
{
    Engine engine;
    Session session = engine.session({});
    core::BenchmarkSpec spec = asmSpec("mov RAX, 5; mov RAX, 6");
    spec.lintLevel = core::LintLevel::Warn;
    RunOutcome outcome = session.run(spec);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, RunError::Code::LintError);
    EXPECT_NE(outcome.error().message.find("R4"), std::string::npos);
}

TEST(AnalysisLintLevel, ErrorLevelPassesWarningSpecs)
{
    Engine engine;
    Session session = engine.session({});
    core::BenchmarkSpec spec = asmSpec("mov RAX, 5; mov RAX, 6");
    spec.lintLevel = core::LintLevel::Error;
    RunOutcome outcome = session.run(spec);
    EXPECT_TRUE(outcome.ok());
}

TEST(AnalysisLintLevel, ErrorLevelStopsLoopCounterClobber)
{
    // Without the gate this spec never terminates (the body reloads
    // the loop counter every iteration); the lint error returns
    // before execution starts.
    Engine engine;
    Session session = engine.session({});
    core::BenchmarkSpec spec = asmSpec("mov R15, 5");
    spec.loopCount = 10;
    spec.lintLevel = core::LintLevel::Error;
    RunOutcome outcome = session.run(spec);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, RunError::Code::LintError);
}

TEST(AnalysisLintLevel, CleanSpecsRunAtAnyLevel)
{
    Engine engine;
    Session session = engine.session({});
    core::BenchmarkSpec spec = asmSpec("add RAX, RBX");
    spec.lintLevel = core::LintLevel::Warn;
    EXPECT_TRUE(session.run(spec).ok());
}

TEST(AnalysisLintLevel, NamesRoundTrip)
{
    for (core::LintLevel l :
         {core::LintLevel::Off, core::LintLevel::Warn,
          core::LintLevel::Error}) {
        auto back = core::lintLevelFromName(core::lintLevelName(l));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, l);
    }
    EXPECT_FALSE(core::lintLevelFromName("loud").has_value());
}

// ----------------------------------------------- report memoing --

TEST(AnalysisCache, RepeatedSpecsHitTheMemo)
{
    core::BenchmarkSpec spec = asmSpec("add RAX, 987654");
    CacheStats before = analysis::lintCacheCounters();
    Report first = analysis::analyzeSpecCached(skylake(), spec, {});
    CacheStats mid = analysis::lintCacheCounters();
    EXPECT_EQ(mid.misses, before.misses + 1);
    Report second = analysis::analyzeSpecCached(skylake(), spec, {});
    CacheStats after = analysis::lintCacheCounters();
    EXPECT_EQ(after.hits, mid.hits + 1);
    EXPECT_EQ(after.misses, mid.misses);
    EXPECT_EQ(first, second);
}

TEST(AnalysisCache, ContextIsPartOfTheKey)
{
    core::BenchmarkSpec spec = asmSpec("mov RAX, 987655");
    Context expect;
    expect.chain = Context::Chain::Expect;
    Report lazy = analysis::analyzeSpecCached(skylake(), spec, {});
    Report strict =
        analysis::analyzeSpecCached(skylake(), spec, expect);
    EXPECT_FALSE(lazy.hasRule("R3"));
    EXPECT_TRUE(strict.hasRule("R3"));
}

// ------------------------------------------ R7: model consistency --

TEST(AnalysisR7, LatencyIntentWithoutBindingChainIsError)
{
    // MOV RAX, RBX never threads back to itself: the static model
    // predicts a throughput-bound body, so a declared latency
    // measurement is inconsistent.
    Context ctx;
    ctx.intent = Context::Intent::Latency;
    Report rep = analyze(asmSpec("mov RAX, RBX"), ctx);
    ASSERT_TRUE(rep.hasRule("R7"));
    EXPECT_EQ(rep.count(Severity::Error), 1u);
}

TEST(AnalysisR7, LatencyIntentWithBindingChainIsClean)
{
    Context ctx;
    ctx.intent = Context::Intent::Latency;
    Report rep = analyze(asmSpec("add RAX, RAX"), ctx);
    EXPECT_FALSE(rep.hasRule("R7"));
}

TEST(AnalysisR7, FlagSerializedThroughputIsInfoOnly)
{
    // ADC chains through RFLAGS no matter how copies are arranged
    // (the uops.info special case): worth surfacing, not an error.
    Context ctx;
    ctx.intent = Context::Intent::Throughput;
    Report rep = analyze(asmSpec("adc RAX, RBX"), ctx);
    ASSERT_TRUE(rep.hasRule("R7"));
    EXPECT_EQ(rep.count(Severity::Info), 1u);
    EXPECT_TRUE(rep.clean());
}

TEST(AnalysisR7, ThroughputIntentOnParallelMixIsClean)
{
    Context ctx;
    ctx.intent = Context::Intent::Throughput;
    Report rep = analyze(
        asmSpec("lea RAX, [RBX]; lea RCX, [RBX]; lea RDX, [RBX]"),
        ctx);
    EXPECT_FALSE(rep.hasRule("R7"));
}

TEST(AnalysisR7, NoDeclaredIntentSkipsTheRule)
{
    Report rep = analyze(asmSpec("mov RAX, RBX"));
    EXPECT_FALSE(rep.hasRule("R7"));
}

TEST(AnalysisR7, IntentIsPartOfTheCacheKey)
{
    core::BenchmarkSpec spec = asmSpec("mov RAX, 987656");
    Context latency;
    latency.intent = Context::Intent::Latency;
    Report lazy = analysis::analyzeSpecCached(skylake(), spec, {});
    Report strict =
        analysis::analyzeSpecCached(skylake(), spec, latency);
    EXPECT_FALSE(lazy.hasRule("R7"));
    EXPECT_TRUE(strict.hasRule("R7"));
}

// ------------------------------ planner self-verification sweep --

TEST(AnalysisSweep, CharacterizerPlansLintCleanOnAllUarches)
{
    for (const std::string &name : uarch::allMicroArchNames()) {
        SessionOptions opt;
        opt.uarch = name;
        Session session = sweepEngine().session(opt);
        uops::Characterizer tool(session);
        uops::CharacterizationPlan plan = tool.plan();
        const uarch::MicroArch &ua = uarch::getMicroArch(name);
        Context ctx = Context::forRunner(session.runner());
        for (const uops::PlannedSpec &ps : plan.specs) {
            ctx.chain =
                ps.role == uops::PlannedSpec::Role::Latency
                    ? Context::Chain::Expect
                    : Context::Chain::Auto;
            // R7: the role tag is the declared measurement intent.
            ctx.intent =
                ps.role == uops::PlannedSpec::Role::Latency
                    ? Context::Intent::Latency
                    : Context::Intent::Throughput;
            Report rep =
                analysis::analyzeSpecCached(ua, ps.spec, ctx);
            ASSERT_TRUE(rep.clean())
                << name << " variant " << ps.variant << " ("
                << ps.spec.asmCode << "):\n"
                << rep.format();
        }
    }
}

TEST(AnalysisSweep, ProfilePlansLintCleanOnAllUarches)
{
    for (const std::string &name : uarch::allMicroArchNames()) {
        profile::ProfileOptions opt;
        opt.session.uarch = name;
        opt.maxAssoc = 18;
        opt.policySequences = 10;
        opt.tlbMaxPages = 512;
        opt.duelingScan = false;
        profile::ProfilePlan plan = profile::planMachineProfile(opt);
        const uarch::MicroArch &ua = uarch::getMicroArch(name);
        // Lint against the exact machine state the campaign will
        // build, not a conservative fresh-runner default: forCampaign
        // applies the same machineSetup hook buildMachineProfile
        // passes to Engine::runCampaign, once, to a new runner -- as
        // each campaign worker does.
        sim::Machine machine(ua, opt.session.seed);
        core::Runner runner(machine, opt.session.mode);
        Context ctx = Context::forCampaign(
            runner, [&plan](core::Runner &worker) {
                profile::prepareProfileMachine(worker, plan);
            });
        for (std::size_t i = 0; i < plan.specs.size(); ++i) {
            Report rep = analysis::analyzeSpecCached(
                ua, plan.specs[i], ctx);
            ASSERT_TRUE(rep.clean())
                << name << " profile spec " << i << ":\n"
                << rep.format();
        }
    }
}

TEST(AnalysisSweep, CacheSeqPlansLintCleanOnAllUarches)
{
    for (const std::string &name : uarch::allMicroArchNames()) {
        SessionOptions sopt;
        sopt.uarch = name;
        Session session = sweepEngine().session(sopt);
        cachetools::CacheSeqOptions copt;
        copt.level = cachetools::CacheLevel::L1;
        copt.set = 3;
        copt.disablePrefetchers = false;
        cachetools::CacheSeq seq(session, copt);
        std::vector<cachetools::SeqAccess> accesses;
        for (int block : {0, 1, 2, 3, 0, 1, 2, 3})
            accesses.push_back({block});
        core::BenchmarkSpec spec = seq.planSeq(accesses);
        Context ctx = Context::forRunner(session.runner());
        Report rep = analysis::analyzeSpecCached(
            uarch::getMicroArch(name), spec, ctx);
        ASSERT_TRUE(rep.clean())
            << name << " cacheSeq plan:\n"
            << rep.format();
    }
}

TEST(AnalysisSweep, DuelingPlanLintsClean)
{
    // Planned set-dueling scan on an adaptive-L3 part (§VI-D).
    SessionOptions sopt;
    sopt.uarch = "IvyBridge";
    Session session = sweepEngine().session(sopt);
    const auto &duel =
        uarch::getMicroArch("IvyBridge").cacheConfig.l3Dueling;
    ASSERT_FALSE(duel.policyA.empty());
    cachetools::DuelingScanner scanner(session, duel.policyA,
                                       duel.policyB);
    cachetools::DuelingPlanOptions opt;
    opt.setLo = 512;
    opt.setHi = 527;
    opt.stride = 16;
    opt.trainReplays = 4;
    Addr need = scanner.planAreaSize(opt);
    if (need > session.runner().r14AreaSize()) {
        ASSERT_TRUE(session.runner().reserveR14Area(need));
    }
    cachetools::DuelingPlan plan = scanner.plan(opt);
    ASSERT_FALSE(plan.specs.empty());
    Context ctx = Context::forRunner(session.runner());
    for (std::size_t i = 0; i < plan.specs.size(); ++i) {
        Report rep = analysis::analyzeSpecCached(
            uarch::getMicroArch("IvyBridge"), plan.specs[i], ctx);
        ASSERT_TRUE(rep.clean())
            << "dueling probe " << i << ":\n"
            << rep.format();
    }
}

} // namespace
} // namespace nb
