/**
 * @file
 * Tests for the static performance-bound analyzer
 * (analysis/bound.hh): hand-computed ground truth for each bound
 * class on Skylake, repeat-block scaling against a materialized
 * equivalent, serialization round-trips, and the simulator
 * cross-check sweep -- every spec the characterizer,
 * profile, and cachetools planners emit must simulate at or above its
 * static lower bound on every supported microarchitecture.
 */

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/bound.hh"
#include "cachetools/cacheseq.hh"
#include "cachetools/dueling_scan.hh"
#include "core/config.hh"
#include "core/engine.hh"
#include "profile/build.hh"
#include "uarch/timing.hh"
#include "uarch/uarch.hh"
#include "uops/characterize.hh"
#include "x86/assembler.hh"

namespace nb
{
namespace
{

using analysis::Bottleneck;
using analysis::BoundReport;

const uarch::MicroArch &
skylake()
{
    return uarch::getMicroArch("Skylake");
}

core::BenchmarkSpec
asmSpec(const std::string &body)
{
    core::BenchmarkSpec spec;
    spec.asmCode = body;
    return spec;
}

BoundReport
bounds(const std::string &body)
{
    return analysis::analyzeBounds(skylake(), asmSpec(body));
}

/** One pooled machine set shared by the sweep tests. */
Engine &
sweepEngine()
{
    static Engine engine;
    return engine;
}

// --------------------------------------------------------- names --

TEST(Bound, BottleneckNames)
{
    EXPECT_STREQ(analysis::bottleneckName(Bottleneck::Latency),
                 "latency");
    EXPECT_STREQ(analysis::bottleneckName(Bottleneck::Ports), "ports");
    EXPECT_STREQ(analysis::bottleneckName(Bottleneck::FrontEnd),
                 "frontend");
}

// ------------------------------------------- latency ground truth --

TEST(Bound, AddChainIsLatencyBound)
{
    // ADD RAX, RAX: a 1-cycle loop-carried chain through RAX. One ALU
    // uop on Skylake's {0,1,5,6} pool -> 0.25 cycles of port
    // pressure; one issue slot over width 4 -> 0.25 cycles front-end.
    BoundReport rep = bounds("add RAX, RAX");
    EXPECT_EQ(rep.uarch, "Skylake");
    EXPECT_EQ(rep.bottleneck, Bottleneck::Latency);
    EXPECT_DOUBLE_EQ(rep.latencyBound, 1.0);
    EXPECT_EQ(rep.latencyCycleLen, 1u);
    EXPECT_EQ(rep.latencyCycleWeight, 1);
    EXPECT_DOUBLE_EQ(rep.portBound, 0.25);
    EXPECT_DOUBLE_EQ(rep.frontEndBound, 0.25);
    EXPECT_DOUBLE_EQ(rep.bound(), 1.0);
    ASSERT_EQ(rep.criticalPath.size(), 1u);
    EXPECT_EQ(rep.criticalPath[0].index, 0);
    EXPECT_EQ(rep.criticalPath[0].latency, 1);
    ASSERT_EQ(rep.latencyCycleRegs.size(), 1u);
    EXPECT_EQ(rep.latencyCycleRegs[0], "RAX");
}

TEST(Bound, PointerChaseCostsTheL1Latency)
{
    // MOV RAX, [R14+RAX] decodes to a bare load uop (no core uop on
    // SnB descendants); the loop-carried address chain can never beat
    // the L1 hit latency.
    BoundReport rep = bounds("mov RAX, [R14+RAX]");
    EXPECT_EQ(rep.bottleneck, Bottleneck::Latency);
    EXPECT_DOUBLE_EQ(
        rep.latencyBound,
        static_cast<double>(skylake().cacheConfig.l1Latency));
    EXPECT_EQ(rep.latencyCycleLen, 1u);
    ASSERT_EQ(rep.criticalPath.size(), 1u);
    EXPECT_EQ(rep.criticalPath[0].index, 0);
}

TEST(Bound, MultiInstructionChainSumsEdgeWeights)
{
    // A two-step chain RAX -> RBX -> RAX: 2 cycles per copy, still
    // one copy per traversal.
    BoundReport rep = bounds("add RBX, RAX; mov RAX, RBX");
    EXPECT_EQ(rep.bottleneck, Bottleneck::Latency);
    EXPECT_DOUBLE_EQ(rep.latencyBound, 2.0);
    EXPECT_EQ(rep.latencyCycleLen, 1u);
    EXPECT_EQ(rep.latencyCycleWeight, 2);
    EXPECT_EQ(rep.criticalPath.size(), 2u);
}

TEST(Bound, ZeroIdiomBreaksTheChain)
{
    // XOR RAX, RAX is dependency-breaking: no loop-carried cycle
    // survives, so the front-end floor is the binding bound.
    BoundReport rep = bounds("xor RAX, RAX; add RAX, RAX");
    EXPECT_DOUBLE_EQ(rep.latencyBound, 0.0);
    EXPECT_EQ(rep.latencyCycleLen, 0u);
    EXPECT_TRUE(rep.criticalPath.empty());
    EXPECT_TRUE(rep.latencyCycleRegs.empty());
}

// --------------------------------------------- ports ground truth --

TEST(Bound, LeaMixIsPortBound)
{
    // Three independent LEAs confined to Skylake's {1,5} LEA pool:
    // 3 uops / 2 ports = 1.5 cycles per copy, above the 0.75-cycle
    // front-end floor. LEA address registers carry no timing edge, so
    // there is no latency cycle at all.
    BoundReport rep = bounds(
        "lea RAX, [RBX]; lea RCX, [RBX]; lea RDX, [RBX]");
    EXPECT_EQ(rep.bottleneck, Bottleneck::Ports);
    EXPECT_DOUBLE_EQ(rep.portBound, 1.5);
    EXPECT_DOUBLE_EQ(rep.frontEndBound, 0.75);
    EXPECT_DOUBLE_EQ(rep.latencyBound, 0.0);
    ASSERT_EQ(rep.ports.size(), skylake().ports().numPorts);
    EXPECT_DOUBLE_EQ(rep.ports[1].uops, 1.5);
    EXPECT_DOUBLE_EQ(rep.ports[5].uops, 1.5);
    EXPECT_DOUBLE_EQ(rep.ports[1].util, 1.0);
    EXPECT_DOUBLE_EQ(rep.ports[5].util, 1.0);
    EXPECT_DOUBLE_EQ(rep.ports[0].uops, 0.0);
}

TEST(Bound, BlockingUopsWeighTheirBlockCycles)
{
    // 64-bit DIV occupies its port for 1 + blockCycles; the port
    // bound must account for the occupancy, not just the uop count.
    std::vector<x86::Instruction> div = x86::assemble("div RBX");
    ASSERT_EQ(div.size(), 1u);
    uarch::CoreTiming t =
        uarch::coreTiming(skylake().family, div[0]);
    ASSERT_GT(t.blockCycles, 0u);
    BoundReport rep = bounds("div RBX");
    EXPECT_GE(rep.portBound, 1.0 + t.blockCycles);
}

// ----------------------------------------- front-end ground truth --

TEST(Bound, WideIndependentMixIsFrontEndBound)
{
    // Four independent ADDs (1-cycle chains, 4 uops on 4 ALU ports =
    // 1.0 cycle pressure) plus four NOPs (issue slots only): 8 issue
    // slots / width 4 = 2 cycles per copy at the front end.
    BoundReport rep = bounds(
        "add RAX, 1; add RBX, 1; add RCX, 1; add RDX, 1; "
        "nop; nop; nop; nop");
    EXPECT_EQ(rep.bottleneck, Bottleneck::FrontEnd);
    EXPECT_DOUBLE_EQ(rep.frontEndBound, 2.0);
    EXPECT_DOUBLE_EQ(rep.uopsPerCopy, 8.0);
    EXPECT_EQ(rep.issueWidth, 4u);
    EXPECT_DOUBLE_EQ(rep.portBound, 1.0);
    EXPECT_DOUBLE_EQ(rep.latencyBound, 1.0);
    EXPECT_DOUBLE_EQ(rep.bound(), 2.0);
}

// ------------------------------------------- repeat-block scaling --

TEST(Bound, RepeatBlocksNeverMaterialize)
{
    // The per-copy bounds are a property of the body pattern; the
    // unroll count scales trip counts, not the analysis.
    core::BenchmarkSpec one = asmSpec("add RAX, RAX; add RBX, RBX");
    one.unrollCount = 1;
    core::BenchmarkSpec many = one;
    many.unrollCount = 1u << 20;
    EXPECT_EQ(analysis::analyzeBounds(skylake(), one),
              analysis::analyzeBounds(skylake(), many));
}

TEST(Bound, MaterializedCopiesScaleThePatternBounds)
{
    // Hand-materializing 7 copies of the pattern must produce exactly
    // 7x the per-copy throughput bounds and a 7x-weight latency cycle
    // (the chain threads all 7 copies before re-entering).
    std::string body = "add RAX, RAX";
    std::string copies7;
    for (int i = 0; i < 7; ++i)
        copies7 += (i ? "; " : "") + body;
    BoundReport per = bounds(body);
    BoundReport mat = bounds(copies7);
    EXPECT_DOUBLE_EQ(mat.portBound, 7 * per.portBound);
    EXPECT_DOUBLE_EQ(mat.frontEndBound, 7 * per.frontEndBound);
    EXPECT_DOUBLE_EQ(mat.latencyBound, 7 * per.latencyBound);
    EXPECT_EQ(mat.latencyCycleLen, 1u);
    EXPECT_EQ(mat.latencyCycleWeight, 7);
    EXPECT_EQ(mat.criticalPath.size(), 7u);
}

// ----------------------------------------------- total-run bounds --

TEST(Bound, MeasurementBoundSpansLoopsForRegisterChains)
{
    BoundReport rep = bounds("add RAX, RAX");
    ASSERT_EQ(rep.latencyCycleRegs.size(), 1u);
    EXPECT_EQ(rep.latencyCycleRegs[0], "RAX");
    // A register-carried chain survives the loop's own R15/RFLAGS
    // updates: 10 loops x 10 copies = 99 guaranteed cycles.
    EXPECT_DOUBLE_EQ(analysis::measurementCycleBound(rep, 10, 10),
                     99.0);
}

TEST(Bound, MeasurementBoundRestartsFlagsChainsAtLoopBounds)
{
    // ADC RAX, 0 chains through RAX *and* RFLAGS; the max-mean cycle
    // may be reported on either register. A flags-carried cycle is
    // rewritten by the loop decrement, so only one unroll group is
    // guaranteed serial -- unless the reported ring avoids RFLAGS.
    BoundReport rep = bounds("adc RAX, 0");
    EXPECT_EQ(rep.bottleneck, Bottleneck::Latency);
    ASSERT_EQ(rep.latencyCycleLen, 1u);
    bool flags_carried = !rep.latencyCycleRegs.empty() &&
                         rep.latencyCycleRegs[0] == "RFLAGS";
    double expect = flags_carried
                        ? 9 * rep.latencyCycleWeight
                        : 99 * rep.latencyCycleWeight;
    EXPECT_DOUBLE_EQ(analysis::measurementCycleBound(rep, 10, 10),
                     expect);
}

// ------------------------------------------------- serialization --

TEST(Bound, FormatMentionsTheBottleneckAndPath)
{
    BoundReport rep = bounds("add RAX, RAX");
    std::string text = rep.format();
    EXPECT_NE(text.find("bottleneck: latency"), std::string::npos);
    EXPECT_NE(text.find("body[0]"), std::string::npos);
    EXPECT_NE(text.find("carried through: RAX"), std::string::npos);
}

// -------------------------------- simulator cross-check sweep --

/**
 * Run @p spec once (single measurement, no warm-up) on @p session and
 * assert the whole-run simulated cycle count respects the static
 * lower bound for one execution of the generated measurement code.
 * Per-spec RunErrors are tolerated the way Characterizer::decode
 * tolerates them (e.g. RDPMC itself cannot run on Zen), and a run
 * with zero readout items never executes the body at all -- both
 * skip the cross-check instead of failing it.
 */
void
checkSpecAgainstBound(Session &session, const uarch::MicroArch &ua,
                      const core::BenchmarkSpec &spec,
                      const std::string &what)
{
    core::BenchmarkSpec s = spec;
    s.nMeasurements = 1;
    s.warmUpCount = 0;
    RunOutcome outcome = session.run(s);
    if (!outcome.ok())
        return;
    if (outcome.result().lines.empty())
        return;
    BoundReport rep = analysis::analyzeBounds(ua, s);
    double lb = analysis::measurementCycleBound(
        rep, s.unrollCount, std::max<std::uint64_t>(1, s.loopCount));
    auto cycles =
        static_cast<double>(session.runner().lastRunCycles());
    EXPECT_GE(cycles, lb - 1e-6)
        << what << " (" << analysis::bottleneckName(rep.bottleneck)
        << "-bound):\n"
        << rep.format();
}

TEST(BoundSweep, CharacterizerPlansRespectBoundsOnAllUarches)
{
    for (const std::string &name : uarch::allMicroArchNames()) {
        SessionOptions opt;
        opt.uarch = name;
        Session session = sweepEngine().session(opt);
        uops::Characterizer tool(session);
        uops::CharacterizationPlan plan = tool.plan();
        const uarch::MicroArch &ua = uarch::getMicroArch(name);
        std::set<std::string> seen;
        for (const uops::PlannedSpec &ps : plan.specs) {
            if (!seen.insert(core::specCanonicalKey(ps.spec)).second)
                continue;
            checkSpecAgainstBound(session, ua, ps.spec,
                                  name + " variant " +
                                      std::to_string(ps.variant));
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(BoundSweep, ProfilePlansRespectBoundsOnAllUarches)
{
    for (const std::string &name : uarch::allMicroArchNames()) {
        profile::ProfileOptions popt;
        popt.session.uarch = name;
        popt.maxAssoc = 4;
        popt.policySequences = 2;
        popt.tlbMaxPages = 64;
        popt.duelingScan = false;
        profile::ProfilePlan plan = profile::planMachineProfile(popt);
        SessionOptions sopt;
        sopt.uarch = name;
        // The shipped counter config, so sections that rely on
        // programmable counters (all of them on fixed-counter-less
        // Zen) measure something and actually execute.
        sopt.config = core::CounterConfig::forMicroArch(name);
        Session session = sweepEngine().session(sopt);
        profile::prepareProfileMachine(session.runner(), plan);
        const uarch::MicroArch &ua = uarch::getMicroArch(name);
        std::set<std::string> seen;
        for (std::size_t i = 0; i < plan.specs.size(); ++i) {
            if (!seen.insert(core::specCanonicalKey(plan.specs[i]))
                     .second)
                continue;
            checkSpecAgainstBound(session, ua, plan.specs[i],
                                  name + " profile spec " +
                                      std::to_string(i));
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(BoundSweep, CacheSeqPlansRespectBoundsOnAllUarches)
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
        checkSpecAgainstBound(session, uarch::getMicroArch(name),
                              spec, name + " cacheSeq plan");
        if (HasFatalFailure())
            return;
    }
}

TEST(BoundSweep, DuelingPlanRespectsBounds)
{
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
    opt.setHi = 515;
    opt.stride = 16;
    opt.trainReplays = 2;
    Addr need = scanner.planAreaSize(opt);
    if (need > session.runner().r14AreaSize()) {
        ASSERT_TRUE(session.runner().reserveR14Area(need));
    }
    cachetools::DuelingPlan plan = scanner.plan(opt);
    ASSERT_FALSE(plan.specs.empty());
    for (std::size_t i = 0; i < plan.specs.size(); ++i) {
        checkSpecAgainstBound(session,
                              uarch::getMicroArch("IvyBridge"),
                              plan.specs[i],
                              "dueling probe " + std::to_string(i));
        if (HasFatalFailure())
            return;
    }
}

} // namespace
} // namespace nb
