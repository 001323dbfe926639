/**
 * @file
 * Tests for the simulated machine: instruction semantics, the dataflow
 * timing model (latency/throughput/ports), counter-read sampling and
 * serialization (§IV-A1), privilege checks (§III-D), the interrupt
 * model (§IV-A2), and the flat PMU and scheduler bookkeeping that both
 * executors share (checked against brute-force and std:: oracles,
 * since executor parity cannot see a bug common to both).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/machine.hh"
#include "x86/assembler.hh"

namespace nb::sim
{
namespace
{

using x86::assemble;
using x86::Reg;

/** A kernel-mode machine with a few identity-mapped pages. */
std::unique_ptr<Machine>
makeMachine(const std::string &uarch = "Skylake", bool kernel = true)
{
    auto m = std::make_unique<Machine>(uarch::getMicroArch(uarch), 42);
    m->setPrivilege(kernel ? Privilege::Kernel : Privilege::User);
    m->setInterruptsEnabled(false);
    for (Addr page = 0; page < 64; ++page) {
        m->memory().pageTable().mapPage(0x10000 + page * kPageSize,
                                        0x10000 + page * kPageSize);
    }
    return m;
}

std::uint64_t
gpr(Machine &m, Reg r)
{
    return m.arch().readGpr(r, 64);
}

/** Decode-and-execute: these tests exercise machine semantics, not
 *  program caching, so each snippet is decoded fresh at the call. */
ExecStats
execProgram(Machine &m, const std::vector<x86::Instruction> &code)
{
    return m.execute(Program::decode(m.uarch(), code));
}

TEST(Semantics, MovAndAluBasics)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov RAX, 7; mov RBX, RAX; add RBX, 5; "
                        "sub RAX, 3; xor RCX, RCX"));
    EXPECT_EQ(gpr(*m, Reg::RAX), 4u);
    EXPECT_EQ(gpr(*m, Reg::RBX), 12u);
    EXPECT_EQ(gpr(*m, Reg::RCX), 0u);
}

TEST(Semantics, ThirtyTwoBitWritesZeroExtend)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov RAX, -1; mov EAX, 5"));
    EXPECT_EQ(gpr(*m, Reg::RAX), 5u);
}

TEST(Semantics, PartialWritesMerge)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov RAX, 0x1234; mov AL, 0"));
    EXPECT_EQ(gpr(*m, Reg::RAX), 0x1200u);
}

TEST(Semantics, FlagsAndConditionalBranch)
{
    auto m = makeMachine();
    // Loop: counts 5 iterations through R15/JNZ (the generated-code
    // loop shape from Algorithm 1).
    execProgram(*m, assemble(
        "mov R15, 5; xor RAX, RAX; loop: add RAX, 2; dec R15; jnz loop"));
    EXPECT_EQ(gpr(*m, Reg::RAX), 10u);
}

TEST(Semantics, CmovAndSetcc)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov RAX, 1; cmp RAX, 1; setz BL; "
                        "mov RCX, 99; cmovz RCX, RAX"));
    EXPECT_EQ(gpr(*m, Reg::RBX) & 0xFF, 1u);
    EXPECT_EQ(gpr(*m, Reg::RCX), 1u);
}

TEST(Semantics, MulDivPair)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov RAX, 100; mov RBX, 7; mul RBX; "
                        "mov RCX, RAX; mov RAX, 700; xor RDX, RDX; "
                        "mov RBX, 7; div RBX"));
    EXPECT_EQ(gpr(*m, Reg::RCX), 700u);
    EXPECT_EQ(gpr(*m, Reg::RAX), 100u);
    EXPECT_EQ(gpr(*m, Reg::RDX), 0u);
}

TEST(Semantics, DivideByZeroFaults)
{
    auto m = makeMachine();
    EXPECT_THROW(execProgram(*m, assemble("xor RBX, RBX; mov RAX, 1; div RBX")),
                 FatalError);
}

TEST(Semantics, ImulForms)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov RAX, 6; mov RBX, 7; imul RAX, RBX; "
                        "imul RCX, RBX, 3"));
    EXPECT_EQ(gpr(*m, Reg::RAX), 42u);
    EXPECT_EQ(gpr(*m, Reg::RCX), 21u);
}

TEST(Semantics, ShiftsAndBitOps)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov RAX, 1; shl RAX, 12; mov RBX, RAX; "
                        "shr RBX, 4; popcnt RCX, RAX; tzcnt RDX, RAX"));
    EXPECT_EQ(gpr(*m, Reg::RAX), 4096u);
    EXPECT_EQ(gpr(*m, Reg::RBX), 256u);
    EXPECT_EQ(gpr(*m, Reg::RCX), 1u);
    EXPECT_EQ(gpr(*m, Reg::RDX), 12u);
}

TEST(Semantics, LoadStoreRoundTrip)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov RAX, 0xABCD; mov [0x10040], RAX; "
                        "mov RBX, [0x10040]"));
    EXPECT_EQ(gpr(*m, Reg::RBX), 0xABCDu);
    EXPECT_EQ(m->memory().readVirt(0x10040, 8), 0xABCDu);
}

TEST(Semantics, AddressingModes)
{
    auto m = makeMachine();
    // 0x10000 + 8*8 + 0x40 = 0x10080.
    execProgram(*m, assemble("mov RBX, 0x10000; mov RCX, 8; mov RAX, 42; "
                        "mov [RBX+RCX*8+0x40], RAX; "
                        "mov RDX, [0x10080]"));
    EXPECT_EQ(gpr(*m, Reg::RDX), 42u);
}

TEST(Semantics, PushPopAndCallRet)
{
    auto m = makeMachine();
    m->arch().writeGpr(Reg::RSP, 64, 0x10000 + 32 * kPageSize);
    execProgram(*m, assemble("mov RAX, 11; push RAX; mov RAX, 0; pop RBX"));
    EXPECT_EQ(gpr(*m, Reg::RBX), 11u);

    execProgram(*m, assemble("mov RAX, 1; call f; add RAX, 100; jmp done; "
                        "f: add RAX, 10; ret; done: nop"));
    EXPECT_EQ(gpr(*m, Reg::RAX), 111u);
}

TEST(Semantics, PointerChase)
{
    // The §III-A idiom: store the pointer to itself, then chase it.
    auto m = makeMachine();
    execProgram(*m, assemble("mov R14, 0x10000; mov [R14], R14; "
                        "mov R14, [R14]; mov R14, [R14]"));
    EXPECT_EQ(gpr(*m, Reg::R14), 0x10000u);
}

TEST(Semantics, VectorOps)
{
    auto m = makeMachine();
    execProgram(*m, assemble("pxor XMM1, XMM1; pxor XMM2, XMM2; "
                        "paddd XMM1, XMM2"));
    EXPECT_EQ(m->arch().readVec(Reg::XMM1)[0], 0u);
    // Store/load 128-bit.
    m->arch().writeVec(Reg::XMM3, {1, 2, 0, 0});
    execProgram(*m, assemble("movaps [0x10080], XMM3; movaps XMM4, [0x10080]"));
    EXPECT_EQ(m->arch().readVec(Reg::XMM4)[0], 1u);
    EXPECT_EQ(m->arch().readVec(Reg::XMM4)[1], 2u);
}

TEST(Semantics, PageFaultOnUnmapped)
{
    auto m = makeMachine();
    EXPECT_THROW(execProgram(*m, assemble("mov RAX, [0x900000]")), FatalError);
}

TEST(Semantics, RunawayLoopGuard)
{
    auto m = makeMachine();
    m->setMaxInstructions(10000);
    EXPECT_THROW(execProgram(*m, assemble("spin: jmp spin")), FatalError);
}

// -------------------------------------------------------- privileges --

TEST(Privilege, PrivilegedInstructionsFaultInUserMode)
{
    for (const char *text : {"rdmsr", "wrmsr", "wbinvd", "cli", "sti"}) {
        auto m = makeMachine("Skylake", false);
        m->arch().writeGpr(Reg::RCX, 64, msr::kAperf);
        EXPECT_THROW(execProgram(*m, assemble(text)), FatalError) << text;
    }
}

TEST(Privilege, KernelModeAllowsPrivileged)
{
    auto m = makeMachine();
    execProgram(*m, assemble("wbinvd; cli; sti"));
    m->arch().writeGpr(Reg::RCX, 64, msr::kAperf);
    execProgram(*m, assemble("rdmsr"));
}

TEST(Privilege, RdpmcRespectsCr4Pce)
{
    auto m = makeMachine("Skylake", false);
    m->setRdpmcUserEnabled(false);
    m->arch().writeGpr(Reg::RCX, 64, kRdpmcFixedBase);
    EXPECT_THROW(execProgram(*m, assemble("rdpmc")), FatalError);
    m->setRdpmcUserEnabled(true);
    execProgram(*m, assemble("rdpmc"));
}

// ------------------------------------------------------------ timing --

/** Measured cycles of a code block via fixed counter 1, LFENCE-fenced. */
Cycles
measureCycles(Machine &m, const std::string &body)
{
    auto pre = assemble("lfence");
    execProgram(m, pre);
    Cycles before = m.cycles();
    execProgram(m, assemble(body));
    execProgram(m, pre);
    return m.cycles() - before;
}

TEST(Timing, DependentAddChainIsOneCyclePerLink)
{
    auto m = makeMachine();
    std::string chain;
    for (int i = 0; i < 100; ++i)
        chain += "add RAX, RBX;";
    Cycles c = measureCycles(*m, chain);
    EXPECT_NEAR(c, 100, 6);
}

TEST(Timing, DependentImulChainIsThreeCyclesPerLink)
{
    auto m = makeMachine();
    std::string chain;
    for (int i = 0; i < 100; ++i)
        chain += "imul RAX, RAX;";
    EXPECT_NEAR(measureCycles(*m, chain), 300, 8);
}

TEST(Timing, IndependentAddsReachIssueWidth)
{
    auto m = makeMachine();
    std::string body;
    for (int i = 0; i < 50; ++i)
        body += "add RAX, 1; add RBX, 1; add RSI, 1; add RDI, 1;";
    // 200 independent single-µop adds on a 4-wide machine: ~50 cycles.
    EXPECT_NEAR(measureCycles(*m, body), 50, 10);
}

TEST(Timing, ZeroIdiomBreaksDependency)
{
    auto m = makeMachine();
    std::string chained, broken;
    for (int i = 0; i < 60; ++i) {
        chained += "imul RAX, RAX;";
        broken += "imul RAX, RAX; xor RAX, RAX;";
    }
    Cycles with_dep = measureCycles(*m, chained);
    Cycles without_dep = measureCycles(*m, broken);
    EXPECT_LT(without_dep, with_dep / 2);
}

TEST(Timing, L1LoadLatencyFourCycles)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov R14, 0x10000; mov [R14], R14"));
    std::string chase;
    for (int i = 0; i < 100; ++i)
        chase += "mov R14, [R14];";
    EXPECT_NEAR(measureCycles(*m, chase), 400, 12);
}

TEST(Timing, LoadPortsSplitEvenly)
{
    auto m = makeMachine();
    m->pmu().configureProg(0, sim::EventCode{0xA1, 0x04}); // PORT_2
    m->pmu().configureProg(1, sim::EventCode{0xA1, 0x08}); // PORT_3
    execProgram(*m, assemble("mov R14, 0x10000; mov [R14], R14"));
    auto p2_before = m->pmu().total(EventId::UopsPort2);
    auto p3_before = m->pmu().total(EventId::UopsPort3);
    std::string chase;
    for (int i = 0; i < 200; ++i)
        chase += "mov R14, [R14];";
    execProgram(*m, assemble(chase));
    auto p2 = m->pmu().total(EventId::UopsPort2) - p2_before;
    auto p3 = m->pmu().total(EventId::UopsPort3) - p3_before;
    EXPECT_NEAR(p2, 100, 8);
    EXPECT_NEAR(p3, 100, 8);
}

TEST(Timing, MispredictionPenaltyAndTraining)
{
    auto m = makeMachine();
    // A loop branch mispredicts at most a couple of times once the
    // 2-bit counters are warm (§III-H).
    auto before = m->pmu().total(EventId::BrMispRetired);
    execProgram(*m, assemble("mov R15, 50; l: dec R15; jnz l"));
    auto first = m->pmu().total(EventId::BrMispRetired) - before;
    before = m->pmu().total(EventId::BrMispRetired);
    execProgram(*m, assemble("mov R15, 50; l: dec R15; jnz l"));
    auto second = m->pmu().total(EventId::BrMispRetired) - before;
    EXPECT_LE(second, first);
    EXPECT_LE(second, 2u);
}

TEST(Timing, DivBlocksTheDivider)
{
    auto m = makeMachine();
    // Dependency-broken divisions: throughput limited by blockCycles.
    std::string body;
    for (int i = 0; i < 20; ++i)
        body += "mov RAX, 1000; xor RDX, RDX; div RBX;";
    execProgram(*m, assemble("mov RBX, 3"));
    Cycles c = measureCycles(*m, body);
    EXPECT_GT(c, 20 * 20); // ~24+ cycles each, way below latency*count
}

// -------------------------------------------------- counter sampling --

TEST(Counters, RdpmcReadsFixedCounter)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov RCX, 0x40000000; rdpmc; mov RSI, RAX"));
    std::uint64_t instr1 = gpr(*m, Reg::RSI);
    EXPECT_GT(instr1, 0u);
    // The fence makes the second read observe the three NOPs (§IV-A1).
    execProgram(*m, assemble(
        "nop; nop; nop; lfence; mov RCX, 0x40000000; rdpmc"));
    std::uint64_t instr2 =
        gpr(*m, Reg::RAX) | (gpr(*m, Reg::RDX) << 32);
    EXPECT_GE(instr2, instr1 + 3);
}

TEST(Counters, ProgrammableCounterViaMsrInterface)
{
    auto m = makeMachine();
    // Program counter 0 with UOPS_ISSUED.ANY via WRMSR, then read it
    // with RDPMC -- the §II mechanism.
    std::uint64_t evtsel = 0x0E | (0x01 << 8) | (1 << 22);
    m->arch().writeGpr(Reg::RCX, 64, msr::kPerfEvtSel0);
    m->arch().writeGpr(Reg::RAX, 64, evtsel & 0xFFFFFFFF);
    m->arch().writeGpr(Reg::RDX, 64, evtsel >> 32);
    execProgram(*m, assemble("wrmsr"));
    EXPECT_EQ(m->pmu().progEvent(0), EventId::UopsIssued);

    execProgram(*m, assemble("xor RCX, RCX; rdpmc; mov RSI, RAX; "
                        "add RBX, 1; add RBX, 1; add RBX, 1;"
                        "xor RCX, RCX; rdpmc"));
    std::uint64_t diff = gpr(*m, Reg::RAX) - gpr(*m, Reg::RSI);
    EXPECT_GE(diff, 3u);
}

TEST(Counters, PauseResumeGating)
{
    auto m = makeMachine();
    m->pmu().configureProg(0, sim::EventCode{0x0E, 0x01});
    auto total_before = m->pmu().total(EventId::UopsIssued);
    execProgram(*m, assemble("pfc_pause; add RAX, 1; add RAX, 1; pfc_resume"));
    auto gated = m->pmu().total(EventId::UopsIssued) - total_before;
    EXPECT_EQ(gated, 0u);
    execProgram(*m, assemble("add RAX, 1"));
    EXPECT_GT(m->pmu().total(EventId::UopsIssued), total_before);
}

TEST(Counters, UnfencedReadSamplesEarly)
{
    // §IV-A1: without serialization the RDPMC may execute before older
    // long-latency work completes, under-counting cycles.
    auto measure = [](bool fenced) {
        auto m = makeMachine();
        std::string body = "mov RCX, 0x40000001; rdpmc; mov RSI, RAX;";
        for (int i = 0; i < 40; ++i)
            body += "imul RBX, RBX;";
        body += fenced ? "lfence; mov RCX, 0x40000001; rdpmc"
                       : "mov RCX, 0x40000001; rdpmc";
        execProgram(*m, assemble("mov RBX, 3"));
        execProgram(*m, assemble(body));
        return gpr(*m, Reg::RAX) - gpr(*m, Reg::RSI);
    };
    std::uint64_t fenced = measure(true);
    std::uint64_t unfenced = measure(false);
    EXPECT_GE(fenced, 120u);  // waits for the 40x3-cycle chain
    EXPECT_LT(unfenced, 60u); // sampled long before completion
}

TEST(Counters, CpuidHasVariableCost)
{
    auto m = makeMachine();
    std::vector<std::uint64_t> costs;
    for (int i = 0; i < 10; ++i) {
        Cycles before = m->cycles();
        execProgram(*m, assemble("cpuid"));
        costs.push_back(m->cycles() - before);
    }
    // Not all executions take the same time (Paoloni's observation).
    std::sort(costs.begin(), costs.end());
    EXPECT_NE(costs.front(), costs.back());
}

TEST(Counters, AperfMperfViaRdmsr)
{
    auto m = makeMachine();
    execProgram(*m, assemble("imul RAX, RAX; imul RAX, RAX; imul RAX, RAX"));
    std::uint64_t aperf = m->readMsr(msr::kAperf);
    std::uint64_t mperf = m->readMsr(msr::kMperf);
    EXPECT_GT(aperf, 0u);
    // MPERF runs at the (slower) reference clock.
    EXPECT_LT(mperf, aperf);
}

TEST(Counters, UncoreCountersKernelOnly)
{
    auto m = makeMachine();
    // Kernel: CBox lookup counter is readable.
    (void)m->readMsr(msr::kCboxLookupBase);
    // The MSR path itself is privileged at the instruction level.
    auto u = makeMachine("Skylake", false);
    u->arch().writeGpr(Reg::RCX, 64, msr::kCboxLookupBase);
    EXPECT_THROW(execProgram(*u, assemble("rdmsr")), FatalError);
}

// -------------------------------------------------------- interrupts --

TEST(Interrupts, PerturbOnlyWhenEnabled)
{
    auto run = [](bool irq_enabled) {
        Machine m(uarch::getMicroArch("Skylake"), 7);
        m.setPrivilege(Privilege::Kernel);
        m.setInterruptsEnabled(irq_enabled);
        auto before = m.pmu().total(EventId::InstrRetired);
        std::vector<x86::Instruction> code =
            assemble("mov R15, 2000000; l: dec R15; jnz l");
        ExecStats stats = execProgram(m, code);
        EXPECT_EQ(stats.interrupts > 0, irq_enabled);
        return m.pmu().total(EventId::InstrRetired) - before;
    };
    std::uint64_t with_irq = run(true);
    std::uint64_t without_irq = run(false);
    // The interrupt handlers retire extra instructions (§IV-A2).
    EXPECT_GT(with_irq, without_irq);
}

TEST(Interrupts, CliStiControl)
{
    auto m = makeMachine();
    execProgram(*m, assemble("sti"));
    EXPECT_TRUE(m->interruptsEnabled());
    execProgram(*m, assemble("cli"));
    EXPECT_FALSE(m->interruptsEnabled());
}

// --------------------------------------------------------------- TLB --

TEST(Tlb, ArrayLruReplacement)
{
    TlbArray tlb({8, 2}); // 4 sets x 2 ways
    EXPECT_FALSE(tlb.access(0));  // set 0
    EXPECT_FALSE(tlb.access(4));  // set 0
    EXPECT_TRUE(tlb.access(0));
    EXPECT_FALSE(tlb.access(8));  // set 0: evicts LRU = vpn 4
    EXPECT_TRUE(tlb.access(0));
    EXPECT_FALSE(tlb.access(4));
    tlb.flush();
    EXPECT_FALSE(tlb.probe(0));
}

TEST(Tlb, TwoLevelPenalties)
{
    Tlb tlb;
    auto first = tlb.access(0x5000);
    EXPECT_EQ(first.level, TlbLevel::PageWalk);
    EXPECT_EQ(first.penalty, tlb.config().walkLatency);
    auto second = tlb.access(0x5000);
    EXPECT_EQ(second.level, TlbLevel::Dtlb);
    EXPECT_EQ(second.penalty, 0u);
    EXPECT_EQ(tlb.dtlbMisses(), 1u);
    EXPECT_EQ(tlb.stlbMisses(), 1u);
}

TEST(Tlb, StlbCatchesDtlbEvictions)
{
    Tlb tlb;
    unsigned dtlb_entries = tlb.config().dtlb.entries;
    // Touch 2x the DTLB capacity, then revisit: misses hit the STLB.
    for (unsigned i = 0; i < 2 * dtlb_entries; ++i)
        tlb.access(i * kPageSize);
    auto res = tlb.access(0);
    EXPECT_EQ(res.level, TlbLevel::Stlb);
    EXPECT_EQ(res.penalty, tlb.config().stlbLatency);
}

TEST(Tlb, MachineCountsTlbEvents)
{
    auto m = makeMachine();
    m->pmu().configureProg(0, sim::EventCode{0x08, 0x01});
    auto walks_before = m->pmu().total(EventId::DtlbMissWalk);
    // 8 loads from 8 different (fresh) pages: 8 walks.
    std::string body;
    for (int i = 0; i < 8; ++i)
        body += "mov RBX, [0x1" + std::to_string(i) + "000];";
    execProgram(*m, assemble(body));
    EXPECT_EQ(m->pmu().total(EventId::DtlbMissWalk) - walks_before, 8u);
    // Re-run: all DTLB hits now.
    walks_before = m->pmu().total(EventId::DtlbMissWalk);
    execProgram(*m, assemble(body));
    EXPECT_EQ(m->pmu().total(EventId::DtlbMissWalk) - walks_before, 0u);
}

TEST(Tlb, MissPenaltyExtendsLoadLatency)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov R14, 0x10000; mov [R14], R14"));
    // Warm chase: 4 cycles/load; after a TLB flush the first load of
    // the page pays the walk.
    std::string chase;
    for (int i = 0; i < 50; ++i)
        chase += "mov R14, [R14];";
    Cycles warm = measureCycles(*m, chase);
    m->tlb().flush();
    Cycles cold = measureCycles(*m, chase);
    EXPECT_EQ(cold - warm, m->tlb().config().walkLatency);
}

// ------------------------------------------------ PMU bookkeeping --

/** Brute-force PMU: keeps every logged increment and re-sums on each
 *  read. */
struct PmuOracle
{
    explicit PmuOracle(unsigned num_prog)
        : sel(num_prog, EventId::NumEvents)
    {
    }

    bool
    logged(EventId e) const
    {
        return e == EventId::InstrRetired ||
               std::find(sel.begin(), sel.end(), e) != sel.end();
    }

    void
    count(EventId e, std::uint64_t n, Cycles at)
    {
        if (paused || n == 0)
            return;
        totals[static_cast<unsigned>(e)] += n;
        if (logged(e))
            logs[static_cast<unsigned>(e)].push_back({at, n});
    }

    void
    beginEpoch()
    {
        base = totals;
        for (auto &log : logs)
            log.clear();
    }

    std::uint64_t
    sample(EventId e, Cycles at) const
    {
        std::uint64_t value = base[static_cast<unsigned>(e)];
        for (const auto &[cycle, n] : logs[static_cast<unsigned>(e)]) {
            if (cycle <= at)
                value += n;
        }
        return value;
    }

    /** Highest logged cycle of @p e this epoch (0 if none). */
    Cycles
    newest(EventId e) const
    {
        Cycles c = 0;
        for (const auto &inc : logs[static_cast<unsigned>(e)])
            c = std::max(c, inc.first);
        return c;
    }

    std::vector<EventId> sel;
    bool paused = false;
    std::array<std::uint64_t, kNumEvents> totals{};
    std::array<std::uint64_t, kNumEvents> base{};
    std::array<std::vector<std::pair<Cycles, std::uint64_t>>, kNumEvents>
        logs;
};

TEST(PmuBookkeeping, SeededReadsMatchBruteForce)
{
    // Random increments at non-monotone cycles, pause/resume, counters
    // (re)programmed and disabled mid-epoch, batched commits, epochs and
    // resets. Every counter is read just before, at and after the newest
    // increment of its event (the O(1) path and the scan around it) and
    // at a random earlier cycle.
    const auto &catalog = eventCatalog();
    for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        Pmu pmu(4, true, 0.75);
        PmuOracle oracle(4);
        Cycles now = 1000;
        Cycles last_at = now;
        for (int step = 0; step < 3000; ++step) {
            const auto event =
                static_cast<EventId>(rng.nextBelow(kNumEvents));
            const std::uint64_t n = rng.nextBelow(4); // 0 is a no-op
            const auto op = static_cast<unsigned>(rng.nextBelow(100));
            const auto idx = static_cast<unsigned>(rng.nextBelow(4));
            if (op < 70) {
                // A third land on the previous increment's cycle, which
                // the log folds into one entry.
                now += rng.nextBelow(3);
                const Cycles at =
                    rng.oneIn(3) ? last_at : now + rng.nextBelow(80) - 40;
                last_at = at;
                pmu.count(event, n, at);
                oracle.count(event, n, at);
            } else if (op < 76) {
                oracle.paused = rng.oneIn(2);
                pmu.setPaused(oracle.paused);
            } else if (op < 84) {
                const EventInfo &info =
                    catalog[rng.nextBelow(catalog.size())];
                ASSERT_TRUE(pmu.configureProg(idx, info.code));
                oracle.sel[idx] = info.id;
            } else if (op < 88) {
                pmu.disableProg(idx);
                oracle.sel[idx] = EventId::NumEvents;
            } else if (op < 92) {
                pmu.commit(event, n);
                oracle.totals[static_cast<unsigned>(event)] += n;
            } else if (op < 97) {
                pmu.beginEpoch();
                oracle.beginEpoch();
            } else if (op < 98) {
                pmu.reset();
                oracle = PmuOracle(4);
            }

            auto expect_reads = [&](EventId e, auto read) {
                const Cycles newest = oracle.newest(e);
                for (Cycles at : {newest - 1, newest, newest + 1,
                                  now - rng.nextBelow(60)}) {
                    ASSERT_EQ(read(at), oracle.sample(e, at))
                        << "step " << step << " event " << eventIdName(e)
                        << " at " << at << " (newest " << newest << ")";
                }
            };
            expect_reads(EventId::InstrRetired,
                         [&](Cycles at) { return pmu.readFixed(0, at); });
            for (unsigned i = 0; i < 4; ++i) {
                ASSERT_EQ(pmu.progEvent(i), oracle.sel[i]);
                if (oracle.sel[i] == EventId::NumEvents) {
                    ASSERT_EQ(pmu.readProg(i, now), 0u);
                    continue;
                }
                expect_reads(oracle.sel[i], [&](Cycles at) {
                    return pmu.readProg(i, at);
                });
            }
            for (unsigned e = 0; e < kNumEvents; ++e) {
                ASSERT_EQ(pmu.total(static_cast<EventId>(e)),
                          oracle.totals[e]);
            }
            if (HasFailure())
                return;
        }
    }
}

TEST(PmuBookkeeping, MidRunSelectionCountsOnlyLaterIncrements)
{
    // A counter selected mid-epoch (WRMSR to IA32_PERFEVTSELx) reads
    // the epoch base plus what was logged after the selection -- not
    // the event's scalar total, which also holds the earlier counts and
    // batched commits.
    Pmu pmu(4, true, 1.0);
    pmu.count(EventId::UopsPort0, 5, 10);
    pmu.commit(EventId::UopsPort0, 7);
    ASSERT_TRUE(pmu.configureProg(0, EventCode{0xA1, 0x01}));
    pmu.count(EventId::UopsPort0, 2, 20);
    pmu.count(EventId::UopsPort0, 3, 15);
    EXPECT_EQ(pmu.total(EventId::UopsPort0), 17u);
    EXPECT_EQ(pmu.readProg(0, 100), 5u);
    EXPECT_EQ(pmu.readProg(0, 20), 5u);
    EXPECT_EQ(pmu.readProg(0, 19), 3u);
    EXPECT_EQ(pmu.readProg(0, 14), 0u);
    pmu.beginEpoch();
    EXPECT_EQ(pmu.readProg(0, 0), 17u);
}

TEST(PmuBookkeeping, SameCycleIncrementsNeverOverflowAnEntry)
{
    // Same-cycle increments share a log entry only while its 32-bit
    // count cannot overflow; an early read (the scan) sees them all.
    Pmu pmu(4, true, 1.0);
    ASSERT_TRUE(pmu.configureProg(0, EventCode{0xA1, 0x01}));
    const std::uint64_t big = 0xFFFFFFFFu;
    pmu.count(EventId::UopsPort0, big, 10);
    pmu.count(EventId::UopsPort0, big, 10);
    pmu.count(EventId::UopsPort0, 1, 10);
    pmu.count(EventId::UopsPort0, 1, 30);
    EXPECT_EQ(pmu.readProg(0, 29), 2 * big + 1);
    EXPECT_EQ(pmu.readProg(0, 30), 2 * big + 2);
    EXPECT_EQ(pmu.readProg(0, 9), 0u);
}

TEST(PmuBookkeeping, SeededStreamsMatchBruteForce)
{
    // The executor's feed: per-port dispatches (strictly increasing per
    // port), issue slots and retirements (nondecreasing), interleaved
    // with count()s at arbitrary cycles, pause/resume, the µop events
    // selected, disabled and reselected mid-epoch (UopsExecuted also
    // while a port's stream is already armed), epochs and resets. A
    // µop takes the executor's path: an append while streamed and
    // unpaused, and the totals committed separately. Every counter is
    // read before, at and after its event's newest increment and at a
    // random earlier cycle.
    const std::vector<EventId> streamed_events = {
        EventId::UopsExecuted, EventId::UopsIssued, EventId::UopsPort0,
        EventId::UopsPort1,    EventId::UopsPort2,  EventId::UopsPort5,
        EventId::UopsPort7};
    const auto &catalog = eventCatalog();
    for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        Pmu pmu(4, true, 0.75);
        PmuOracle oracle(4);
        Cycles now = 1000;
        std::array<Cycles, kMaxPorts> port_last{};
        Cycles issue_last = 0;
        Cycles retire_last = 0;
        // A cycle near `now`, early or late, but not before @p last.
        auto next_cycle = [&](Cycles last, Cycles min_step) {
            return std::max(last + min_step, now + rng.nextBelow(40) - 20);
        };
        for (int step = 0; step < 4000; ++step) {
            const auto op = static_cast<unsigned>(rng.nextBelow(100));
            const auto idx = static_cast<unsigned>(rng.nextBelow(4));
            now += rng.nextBelow(3);
            if (op < 35) {
                const auto port =
                    static_cast<unsigned>(rng.nextBelow(kMaxPorts));
                const Cycles at = next_cycle(port_last[port], 1);
                port_last[port] = at;
                if (!oracle.paused) {
                    if (pmu.streamedPorts() >> port & 1)
                        pmu.appendDispatch(port, at);
                    pmu.commit(EventId::UopsExecuted, 1);
                    if (port < 8)
                        pmu.commit(portEvent(port), 1);
                }
                oracle.count(EventId::UopsExecuted, 1, at);
                if (port < 8)
                    oracle.count(portEvent(port), 1, at);
            } else if (op < 50) {
                const Cycles at = next_cycle(issue_last, 0);
                issue_last = at;
                if (!oracle.paused) {
                    if (pmu.issueStreamed())
                        pmu.appendIssue(at);
                    pmu.commit(EventId::UopsIssued, 1);
                }
                oracle.count(EventId::UopsIssued, 1, at);
            } else if (op < 65) {
                const Cycles at = next_cycle(retire_last, 0);
                retire_last = at;
                pmu.countRetire(at);
                oracle.count(EventId::InstrRetired, 1, at);
            } else if (op < 70) {
                // count() at an arbitrary cycle, as the timer interrupt
                // counts its handler's µops and instructions.
                const EventId event = rng.oneIn(2)
                                          ? streamed_events[rng.nextBelow(
                                                streamed_events.size())]
                                          : EventId::InstrRetired;
                const std::uint64_t n = rng.nextBelow(4);
                const Cycles at = now + rng.nextBelow(80) - 40;
                pmu.count(event, n, at);
                oracle.count(event, n, at);
            } else if (op < 75) {
                oracle.paused = rng.oneIn(2);
                pmu.setPaused(oracle.paused);
            } else if (op < 86) {
                const EventId event =
                    rng.oneIn(4)
                        ? catalog[rng.nextBelow(catalog.size())].id
                        : streamed_events[rng.nextBelow(
                              streamed_events.size())];
                const auto info = std::find_if(
                    catalog.begin(), catalog.end(),
                    [&](const EventInfo &i) { return i.id == event; });
                ASSERT_NE(info, catalog.end());
                ASSERT_TRUE(pmu.configureProg(idx, info->code));
                oracle.sel[idx] = event;
            } else if (op < 92) {
                pmu.disableProg(idx);
                oracle.sel[idx] = EventId::NumEvents;
            } else if (op < 97) {
                pmu.beginEpoch();
                oracle.beginEpoch();
            } else if (op < 98) {
                // Streams restart empty: cycles may start over.
                pmu.reset();
                oracle = PmuOracle(4);
                now = 1000;
                port_last = {};
                issue_last = retire_last = 0;
            }

            auto expect_reads = [&](EventId e, auto read) {
                const Cycles newest = oracle.newest(e);
                for (Cycles at : {newest - 1, newest, newest + 1,
                                  now - rng.nextBelow(60)}) {
                    ASSERT_EQ(read(at), oracle.sample(e, at))
                        << "step " << step << " event " << eventIdName(e)
                        << " at " << at << " (newest " << newest << ")";
                }
            };
            expect_reads(EventId::InstrRetired,
                         [&](Cycles at) { return pmu.readFixed(0, at); });
            for (unsigned i = 0; i < 4; ++i) {
                ASSERT_EQ(pmu.progEvent(i), oracle.sel[i]);
                if (oracle.sel[i] == EventId::NumEvents)
                    continue;
                expect_reads(oracle.sel[i], [&](Cycles at) {
                    return pmu.readProg(i, at);
                });
            }
            for (unsigned e = 0; e < kNumEvents; ++e) {
                ASSERT_EQ(pmu.total(static_cast<EventId>(e)),
                          oracle.totals[e]);
            }
            if (HasFailure())
                return;
        }
    }
}

TEST(SchedulerState, CompletionFifoMatchesDequeAcrossCompactions)
{
    // Alternating push-heavy and pop-heavy phases, like a scheduler
    // window that fills and drains; compared entry for entry against
    // std::deque.
    Rng rng(7);
    CompletionFifo fifo;
    std::deque<Cycles> oracle;
    unsigned compactions = 0;
    for (int step = 0; step < 20000; ++step) {
        const bool draining = (step / 2500) % 2 == 1;
        if (!oracle.empty() && rng.nextBelow(4) < (draining ? 3u : 1u)) {
            ASSERT_EQ(fifo.front(), oracle.front()) << "step " << step;
            fifo.pop_front();
            oracle.pop_front();
            if (fifo.consumed() == 0)
                ++compactions;
        } else {
            const Cycles c = rng.next();
            fifo.push_back(c);
            oracle.push_back(c);
        }
        ASSERT_EQ(fifo.size(), oracle.size()) << "step " << step;
    }
    EXPECT_GE(compactions, 3u);
    while (!oracle.empty()) {
        ASSERT_EQ(fifo.front(), oracle.front());
        fifo.pop_front();
        oracle.pop_front();
    }
    EXPECT_EQ(fifo.size(), 0u);
}

TEST(SchedulerState, BranchTableMatchesMap)
{
    // 2-bit counters created at 1, driven through growth and through
    // both clears (a small table keeps its slots, a large one is
    // released), against std::unordered_map::try_emplace.
    Rng rng(11);
    BranchTable table;
    std::unordered_map<std::uint64_t, std::uint8_t> oracle;
    for (std::uint64_t key_space : {40u, 3000u, 200u}) {
        for (int step = 0; step < 20000; ++step) {
            // Strided keys, as unrolled copies of one branch give.
            const std::uint64_t key = rng.nextBelow(key_space) * 64 + 3;
            std::uint8_t &counter = table.counter(key);
            std::uint8_t &expected =
                oracle.try_emplace(key, 1).first->second;
            ASSERT_EQ(counter, expected) << "key " << key;
            const bool taken = rng.oneIn(2);
            if (taken && counter < 3)
                ++counter;
            else if (!taken && counter > 0)
                --counter;
            expected = counter;
            ASSERT_EQ(table.size(), oracle.size());
        }
        table.clear();
        oracle.clear();
        EXPECT_EQ(table.size(), 0u);
    }
}

// --------------------------------------------------------- footprint --

TEST(Frontend, HugeCodeFootprintSlowsIssue)
{
    // §III-F: unrolled code that no longer fits the instruction cache
    // decodes slower than loop-kept code.
    auto big = makeMachine();
    std::vector<x86::Instruction> code;
    auto nop = assemble("nop")[0];
    for (int i = 0; i < 20000; ++i)
        code.push_back(nop);
    Cycles before = big->cycles();
    execProgram(*big, code);
    Cycles big_cycles = big->cycles() - before;

    auto small = makeMachine();
    std::vector<x86::Instruction> small_code(
        code.begin(), code.begin() + 2000);
    Cycles sum = 0;
    for (int i = 0; i < 10; ++i) {
        before = small->cycles();
        execProgram(*small, small_code);
        sum += small->cycles() - before;
    }
    EXPECT_GT(big_cycles, sum * 3 / 2);
}

} // namespace
} // namespace nb::sim
