/**
 * @file
 * Bit-identity of the threaded computed-goto executor
 * (Machine::execute) against the frozen switch-based reference path
 * (Machine::executeReference, src/sim/exec.cc).
 *
 * The threaded executor is only correct if it is indistinguishable
 * from the reference: identical ExecStats, architectural state
 * (GPRs, vector registers, flags), every PMU scalar total, AND the
 * time-resolved counter samples -- batching the PMU accounting must
 * not move any increment to a different cycle. Each test runs the
 * same predecoded program on two identically-seeded machines, one
 * per executor, and compares everything.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/machine.hh"
#include "x86/assembler.hh"

namespace nb::sim
{
namespace
{

using x86::assemble;
using x86::Reg;

std::unique_ptr<Machine>
makeMachine(bool kernel = true, bool interrupts = false)
{
    auto m =
        std::make_unique<Machine>(uarch::getMicroArch("Skylake"), 42);
    m->setPrivilege(kernel ? Privilege::Kernel : Privilege::User);
    m->setInterruptsEnabled(interrupts);
    for (Addr page = 0; page < 64; ++page) {
        m->memory().pageTable().mapPage(0x10000 + page * kPageSize,
                                        0x10000 + page * kPageSize);
    }
    return m;
}

/**
 * Compare every observable of two machines after one run each:
 * ExecStats, GPRs, vector registers, flags, all scalar event totals,
 * and time-resolved fixed/programmable/MSR samples every @p stride
 * cycles.
 */
void
expectSameObservables(Machine &threaded, const ExecStats &st,
                      Machine &reference, const ExecStats &sr,
                      Cycles stride = 3)
{
    EXPECT_EQ(st.instructions, sr.instructions);
    EXPECT_EQ(st.uops, sr.uops);
    EXPECT_EQ(st.startCycle, sr.startCycle);
    EXPECT_EQ(st.endCycle, sr.endCycle);
    EXPECT_EQ(st.interrupts, sr.interrupts);

    EXPECT_EQ(threaded.arch().gpr, reference.arch().gpr);
    EXPECT_EQ(threaded.arch().vec, reference.arch().vec);
    EXPECT_EQ(threaded.arch().zf, reference.arch().zf);
    EXPECT_EQ(threaded.arch().cf, reference.arch().cf);
    EXPECT_EQ(threaded.arch().sf, reference.arch().sf);
    EXPECT_EQ(threaded.arch().of, reference.arch().of);

    for (unsigned e = 0; e < kNumEvents; ++e) {
        EXPECT_EQ(threaded.pmu().total(static_cast<EventId>(e)),
                  reference.pmu().total(static_cast<EventId>(e)))
            << "event " << e;
    }

    // Time-resolved identity: batched accounting must not shift any
    // logged increment to a different cycle. Sweep sample points past
    // the end so post-retirement plateaus compare too.
    for (Cycles c = 0; c <= sr.endCycle + stride; c += stride) {
        for (unsigned i = 0; i < 3; ++i) {
            EXPECT_EQ(threaded.pmu().readFixed(i, c),
                      reference.pmu().readFixed(i, c))
                << "fixed " << i << " at cycle " << c;
        }
        for (unsigned i = 0; i < threaded.pmu().numProg(); ++i) {
            EXPECT_EQ(threaded.pmu().readProg(i, c),
                      reference.pmu().readProg(i, c))
                << "prog " << i << " at cycle " << c;
        }
        EXPECT_EQ(threaded.pmu().aperf(c), reference.pmu().aperf(c));
        EXPECT_EQ(threaded.pmu().mperf(c), reference.pmu().mperf(c));
    }
}

/**
 * Execute @p prog through both executors on machines prepared by
 * @p setup (applied identically to both) and compare every
 * observable (expectSameObservables).
 */
void
expectParity(const Program &prog,
             const std::function<void(Machine &)> &setup = {},
             bool kernel = true, bool interrupts = false)
{
    auto threaded = makeMachine(kernel, interrupts);
    auto reference = makeMachine(kernel, interrupts);
    if (setup) {
        setup(*threaded);
        setup(*reference);
    }

    ExecStats st = threaded->execute(prog);
    ExecStats sr = reference->executeReference(prog);
    expectSameObservables(*threaded, st, *reference, sr);
}

void
expectParity(const std::string &asm_code,
             const std::function<void(Machine &)> &setup = {},
             bool kernel = true, bool interrupts = false)
{
    expectParity(Program::decode(uarch::getMicroArch("Skylake"),
                                 assemble(asm_code)),
                 setup, kernel, interrupts);
}

/** Configure all four Skylake programmable counters so UopsIssued /
 *  UopsExecuted / port events are logged -- the widest loggedMask the
 *  batching has to preserve cycle-exactly. */
void
configureCounters(Machine &m)
{
    m.pmu().configureProg(0, EventCode{0x0E, 0x01}); // UopsIssued
    m.pmu().configureProg(1, EventCode{0xB1, 0x01}); // UopsExecuted
    m.pmu().configureProg(2, EventCode{0xA1, 0x01}); // port 0
    m.pmu().configureProg(3, EventCode{0xC4, 0x00}); // branches
}

// The parity workloads. All of them but the PFC-marker stretch run
// unpaused in kernel mode, so they double as the inputs of
// DispatchInvariant.ObserverMatchesPmuTotals.
const char *const kAluMix =
    "mov RAX, 7; mov RBX, RAX; add RBX, 5; imul RBX, RBX; "
    "sub RAX, 3; xor RCX, RCX; lea RDX, [RAX+RBX*4+8]; "
    "shl RDX, 3; popcnt RSI, RDX; neg RAX; not RBX; "
    "inc RCX; dec RDX; cmovz RDI, RAX; bswap RBX; "
    "test RDX, RDX; setz AL";
const char *const kLoadsAndStores =
    "mov R14, 0x10000; mov RBX, 77; mov [R14], RBX; "
    "mov RCX, [R14]; mov [R14+64], RCX; "
    "mov R14, 0x10000; mov [R14], R14; mov R14, [R14]; "
    "mov R14, [R14]; add RCX, [R14+64]; "
    "mov RDX, 0x10400; mov [RDX], RCX; mov RSI, [RDX]";
const char *const kFences = "mov RAX, 1; lfence; imul RAX, RAX; mfence; "
                            "add RAX, 2; sfence; imul RBX, RAX; lfence";
const char *const kCpuid = "mov RAX, 3; cpuid; imul RBX, RBX; cpuid; "
                           "add RCX, 1; cpuid";
const char *const kBranches =
    "mov R15, 50; l: add RAX, 1; imul RBX, RBX; dec R15; jnz l; "
    "mov RAX, 1; call f; add RAX, 100; jmp done; "
    "f: add RAX, 10; ret; done: nop";
const char *const kVectorOps =
    "pxor XMM1, XMM1; pxor XMM2, XMM2; paddd XMM1, XMM2; "
    "movaps [0x10080], XMM1; movaps XMM3, [0x10080]; "
    "addps XMM3, XMM1; mulps XMM3, XMM3; "
    "vaddps YMM4, YMM3, YMM3";
const char *const kCountedLoop = "mov R15, 30; l: add RAX, 1; "
                                 "imul RBX, RBX; mov RCX, [R14]; "
                                 "dec R15; jnz l";
/** WRMSRs to IA32_PERFEVTSELx mid-run (on counters configureCounters
 *  set up): counter 2 moves from port 0 to port 1, counter 1 from
 *  UopsExecuted to port 5, and counter 0 (UopsIssued) is disabled, so
 *  µop events switch between logged and tallied mid-run. */
const char *const kReselect =
    "add RAX, 1; imul RBX, RBX; add RSI, 2; "
    "mov RCX, 0x188; mov RAX, 0x4002A1; mov RDX, 0; wrmsr; "
    "add RSI, 1; imul RDI, RDI; add R8, 1; mov R9, [R14]; "
    "mov RCX, 0x187; mov RAX, 0x4020A1; wrmsr; "
    "add R10, 1; imul R11, R11; mov [R14+8], R10; "
    "mov RCX, 0x186; mov RAX, 0; wrmsr; "
    "add R12, 1; imul R13, R13; add RSI, R12";

void
setStack(Machine &m)
{
    m.arch().writeGpr(Reg::RSP, 64, 0x10000 + 32 * kPageSize);
}

void
countersAndR14(Machine &m)
{
    configureCounters(m);
    m.arch().writeGpr(Reg::R14, 64, 0x10000);
}

TEST(DispatchParity, AluMix)
{
    expectParity(kAluMix);
}

TEST(DispatchParity, LoadsAndStores)
{
    expectParity(kLoadsAndStores);
}

TEST(DispatchParity, FencesAndSerialization)
{
    expectParity(kFences);
}

TEST(DispatchParity, CpuidSerialization)
{
    // CPUID consumes the machine RNG (variable latency and µop count,
    // §IV-A1); identical seeds must give identical streams through
    // both executors.
    expectParity(kCpuid);
}

TEST(DispatchParity, BranchesCallsAndLoops)
{
    expectParity(kBranches, setStack);
}

TEST(DispatchParity, PfcMarkersPauseAndResume)
{
    expectParity("add RAX, 1; pfc_pause; add RAX, 1; imul RBX, RBX; "
                 "pfc_resume; add RAX, 1",
                 configureCounters);
}

TEST(DispatchParity, VectorOps)
{
    expectParity(kVectorOps);
}

TEST(DispatchParity, ConfiguredCountersTimeResolved)
{
    // The widest logged set: every programmable counter live, so
    // UopsIssued / UopsExecuted / port counts all take the immediate
    // (logged) path while the rest batch. Their interleaving must
    // stay cycle-exact.
    expectParity(kCountedLoop, countersAndR14);
}

TEST(DispatchParity, MidRunReselectionAndPausedStretch)
{
    // The executor tallies µop events between PMU sync points and
    // counts only the logged ones per µop. WRMSR and the PFC markers
    // are sync points: the reselections must split the tally exactly
    // where the reference's per-µop accounting switches, and the
    // paused stretch dispatches µops while all four counters are live
    // but must count none of them.
    expectParity(std::string(kReselect) +
                     "; mov RCX, 0x186; mov RAX, 0x40010E; wrmsr; "
                     "add RAX, 1; pfc_pause; add RBX, 1; "
                     "imul RCX, RCX; mov RDX, [R14]; add RSI, RDI; "
                     "pfc_resume; imul RDI, RDI; add R8, 3",
                 countersAndR14);
}

TEST(DispatchParity, UserModeTimerInterrupts)
{
    // User mode with interrupts enabled: the interrupt points derive
    // from the machine RNG, so parity here proves the threaded loop
    // polls (and advances) the interrupt state exactly like the
    // reference.
    auto prog = Program::decode(
        uarch::getMicroArch("Skylake"),
        assemble("mov R15, 20000; l: add RAX, 1; dec R15; jnz l"));
    expectParity(prog, {}, /*kernel=*/false, /*interrupts=*/true);
}

TEST(DispatchParity, LongLoadLoopThenResetMatchesFresh)
{
    // 20k iterations with a load push ~80k µops through the scheduler
    // window, whose FIFO compacts over and over; the loop branch and
    // the logged counters exercise the branch table and the PMU logs.
    // Both executors share those structures, so after the parity check
    // a reset machine must also replay the run exactly like a fresh
    // one.
    // Samples every 97 cycles: a read before an event's newest
    // increment scans its whole log.
    constexpr Cycles kStride = 97;
    auto prog = Program::decode(
        uarch::getMicroArch("Skylake"),
        assemble("mov R15, 20000; mov R14, 0x10000; mov [R14], R14; "
                 "l: mov R14, [R14]; add RAX, R14; dec R15; jnz l"));
    auto threaded = makeMachine();
    auto reference = makeMachine();
    configureCounters(*threaded);
    configureCounters(*reference);
    ExecStats st = threaded->execute(prog);
    ExecStats sr = reference->executeReference(prog);
    expectSameObservables(*threaded, st, *reference, sr, kStride);

    auto used = makeMachine();
    used->markResetPoint(); // keep the mapped pages across reset()
    configureCounters(*used);
    used->execute(prog);
    used->reset();
    configureCounters(*used);
    auto fresh = makeMachine();
    configureCounters(*fresh);
    ExecStats su = used->execute(prog);
    ExecStats sf = fresh->execute(prog);
    expectSameObservables(*used, su, *fresh, sf, kStride);
}

TEST(DispatchParity, RepeatEncodedMatchesMaterialized)
{
    // A repeat-encoded block through the threaded executor must be
    // indistinguishable from the same body materialized N times --
    // and from the reference executor on either encoding.
    std::vector<Program::Segment> segments(1);
    segments[0].code = assemble("add RAX, 1; imul RBX, RBX");
    segments[0].repeat = 100;
    Program repeat_prog = Program::decode(
        uarch::getMicroArch("Skylake"), std::move(segments));

    std::vector<x86::Instruction> body =
        assemble("add RAX, 1; imul RBX, RBX");
    std::vector<x86::Instruction> unrolled;
    for (int i = 0; i < 100; ++i)
        unrolled.insert(unrolled.end(), body.begin(), body.end());
    Program materialized = Program::decode(
        uarch::getMicroArch("Skylake"), unrolled);

    expectParity(repeat_prog);
    expectParity(materialized);

    auto a = makeMachine();
    auto b = makeMachine();
    ExecStats sa = a->execute(repeat_prog);
    ExecStats sb = b->execute(materialized);
    EXPECT_EQ(sa.instructions, sb.instructions);
    EXPECT_EQ(sa.uops, sb.uops);
    EXPECT_EQ(sa.endCycle, sb.endCycle);
    EXPECT_EQ(a->arch().gpr, b->arch().gpr);
    for (unsigned e = 0; e < kNumEvents; ++e) {
        EXPECT_EQ(a->pmu().total(static_cast<EventId>(e)),
                  b->pmu().total(static_cast<EventId>(e)));
    }
}


TEST(DispatchInvariant, ObserverMatchesPmuTotals)
{
    // The ExecObserver's µop counts and the PMU's µop events come from
    // one tally: over every unpaused kernel-mode parity workload (no
    // timer interrupts, whose handler counts µops the observer does
    // not see), UopsIssued equals the issued µops, each UopsPort<p>
    // the µops dispatched to port p, and UopsExecuted their sum --
    // whichever of those events were logged on a counter.
    struct Case
    {
        const char *name;
        const char *code;
        void (*setup)(Machine &);
    };
    const Case cases[] = {
        {"alu", kAluMix, nullptr},
        {"loads_stores", kLoadsAndStores, nullptr},
        {"fences", kFences, nullptr},
        {"cpuid", kCpuid, nullptr},
        {"branches", kBranches, setStack},
        {"vector", kVectorOps, nullptr},
        {"counted_loop", kCountedLoop, countersAndR14},
        {"reselect", kReselect, countersAndR14},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        auto m = makeMachine();
        if (c.setup)
            c.setup(*m);
        ExecObserver obs;
        m->setExecObserver(&obs);
        m->execute(Program::decode(m->uarch(), assemble(c.code)));

        const Pmu &pmu = m->pmu();
        EXPECT_GT(obs.uopsIssued, 0u);
        EXPECT_EQ(obs.uopsIssued, pmu.total(EventId::UopsIssued));
        std::uint64_t dispatched = 0;
        for (unsigned p = 0; p < ExecObserver::kMaxPorts; ++p) {
            dispatched += obs.portUops[p];
            if (p < 8) {
                EXPECT_EQ(obs.portUops[p], pmu.total(portEvent(p)))
                    << "port " << p;
            }
        }
        EXPECT_EQ(dispatched, pmu.total(EventId::UopsExecuted));
        EXPECT_GE(obs.uopsDispatched, dispatched);
    }
}

} // namespace
} // namespace nb::sim
