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

TEST(DispatchParity, AluMix)
{
    expectParity("mov RAX, 7; mov RBX, RAX; add RBX, 5; imul RBX, RBX; "
                 "sub RAX, 3; xor RCX, RCX; lea RDX, [RAX+RBX*4+8]; "
                 "shl RDX, 3; popcnt RSI, RDX; neg RAX; not RBX; "
                 "inc RCX; dec RDX; cmovz RDI, RAX; bswap RBX; "
                 "test RDX, RDX; setz AL");
}

TEST(DispatchParity, LoadsAndStores)
{
    expectParity("mov R14, 0x10000; mov RBX, 77; mov [R14], RBX; "
                 "mov RCX, [R14]; mov [R14+64], RCX; "
                 "mov R14, 0x10000; mov [R14], R14; mov R14, [R14]; "
                 "mov R14, [R14]; add RCX, [R14+64]; "
                 "mov RDX, 0x10400; mov [RDX], RCX; mov RSI, [RDX]");
}

TEST(DispatchParity, FencesAndSerialization)
{
    expectParity("mov RAX, 1; lfence; imul RAX, RAX; mfence; "
                 "add RAX, 2; sfence; imul RBX, RAX; lfence");
}

TEST(DispatchParity, CpuidSerialization)
{
    // CPUID consumes the machine RNG (variable latency and µop count,
    // §IV-A1); identical seeds must give identical streams through
    // both executors.
    expectParity("mov RAX, 3; cpuid; imul RBX, RBX; cpuid; "
                 "add RCX, 1; cpuid");
}

TEST(DispatchParity, BranchesCallsAndLoops)
{
    expectParity(
        "mov R15, 50; l: add RAX, 1; imul RBX, RBX; dec R15; jnz l; "
        "mov RAX, 1; call f; add RAX, 100; jmp done; "
        "f: add RAX, 10; ret; done: nop",
        [](Machine &m) {
            m.arch().writeGpr(Reg::RSP, 64, 0x10000 + 32 * kPageSize);
        });
}

TEST(DispatchParity, PfcMarkersPauseAndResume)
{
    expectParity("add RAX, 1; pfc_pause; add RAX, 1; imul RBX, RBX; "
                 "pfc_resume; add RAX, 1",
                 configureCounters);
}

TEST(DispatchParity, VectorOps)
{
    expectParity("pxor XMM1, XMM1; pxor XMM2, XMM2; paddd XMM1, XMM2; "
                 "movaps [0x10080], XMM1; movaps XMM3, [0x10080]; "
                 "addps XMM3, XMM1; mulps XMM3, XMM3; "
                 "vaddps YMM4, YMM3, YMM3");
}

TEST(DispatchParity, ConfiguredCountersTimeResolved)
{
    // The widest logged set: every programmable counter live, so
    // UopsIssued / UopsExecuted / port counts all take the immediate
    // (logged) path while the rest batch. Their interleaving must
    // stay cycle-exact.
    expectParity("mov R15, 30; l: add RAX, 1; imul RBX, RBX; "
                 "mov RCX, [R14]; dec R15; jnz l",
                 [](Machine &m) {
                     configureCounters(m);
                     m.arch().writeGpr(Reg::R14, 64, 0x10000);
                 });
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

} // namespace
} // namespace nb::sim
