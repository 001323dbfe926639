/**
 * @file
 * Tests for the predecoded program IR (sim/program.hh) and the
 * measurement-loop codegen hoisting built on it: decode structure
 * (repeat folding, cached timing, operand classification), execution
 * parity between the repeat-encoded and materialized paths, and the
 * Runner's one-decode-per-(round, unroll) contract / session-layer
 * assembly memo behaviour.
 */

#include <gtest/gtest.h>

#include "core/engine.hh"
#include "sim/machine.hh"
#include "sim/program.hh"
#include "uarch/timing.hh"
#include "uarch/uarch.hh"
#include "uops/characterize.hh"
#include "x86/assembler.hh"

namespace nb
{
namespace
{

using core::GenParams;
using core::ReadoutItem;
using sim::Machine;
using sim::Program;
using x86::assemble;
using x86::Instruction;
using x86::Opcode;
using x86::Reg;

// ----------------------------------------------------------- helpers --

/** A kernel-mode machine with a few identity-mapped pages. */
std::unique_ptr<Machine>
makeMachine(const std::string &uarch = "Skylake")
{
    auto m = std::make_unique<Machine>(uarch::getMicroArch(uarch), 42);
    m->setPrivilege(sim::Privilege::Kernel);
    m->setInterruptsEnabled(false);
    for (Addr page = 0; page < 64; ++page) {
        m->memory().pageTable().mapPage(0x10000 + page * kPageSize,
                                        0x10000 + page * kPageSize);
    }
    return m;
}

GenParams
baseParams()
{
    GenParams p;
    p.body = assemble("nop");
    p.resultBase = 0x1000;
    p.readouts = {{ReadoutItem::Kind::FixedPmc, 1, "Core cycles"}};
    return p;
}

/** Materialize `repeat` relocated copies of a body (the legacy
 *  unrolled encoding), with an optional prologue in front. */
std::vector<Instruction>
unrolled(const std::vector<Instruction> &prologue,
         const std::vector<Instruction> &body, std::uint64_t repeat)
{
    std::vector<Instruction> out = prologue;
    for (std::uint64_t u = 0; u < repeat; ++u) {
        std::size_t copy_start = out.size();
        for (Instruction insn : body) {
            if (insn.targetIdx >= 0)
                insn.targetIdx += static_cast<std::int32_t>(copy_start);
            out.push_back(std::move(insn));
        }
    }
    return out;
}

/** The same sequence as a repeat-encoded two-segment program. */
Program
repeatProgram(const std::string &uarch,
              const std::vector<Instruction> &prologue,
              const std::vector<Instruction> &body, std::uint64_t repeat)
{
    std::vector<Program::Segment> segments;
    if (!prologue.empty())
        segments.push_back({prologue, 1, false});
    segments.push_back({body, repeat, false});
    return Program::decode(uarch::getMicroArch(uarch),
                           std::move(segments));
}

/** GPR snapshot for state comparisons. */
std::vector<std::uint64_t>
gprs(Machine &m)
{
    std::vector<std::uint64_t> v;
    for (unsigned i = 0; i < x86::kNumGprs; ++i)
        v.push_back(m.arch().readGpr(static_cast<Reg>(i), 64));
    return v;
}

// --------------------------------------------------- decode structure --

TEST(ProgramDecode, RepeatFoldingKeepsStaticSizeConstant)
{
    auto p = baseParams();
    p.localUnrollCount = 500;
    const auto &ua = uarch::getMicroArch("Skylake");

    auto legacy = generateMeasurementCode(p);
    Program prog = core::buildMeasurementProgram(p, ua);

    // Dynamic layout identical, static decode independent of unroll.
    EXPECT_EQ(prog.virtualSize(), legacy.size());
    EXPECT_LT(prog.entryCount(), legacy.size());

    auto p1 = p;
    p1.localUnrollCount = 1;
    Program prog1 = core::buildMeasurementProgram(p1, ua);
    EXPECT_EQ(prog.entryCount(), prog1.entryCount());

    // The body block carries the repeat count.
    bool found_repeat = false;
    for (const auto &block : prog.blocks())
        found_repeat |= block.repeat == 500 && block.entryCount == 1;
    EXPECT_TRUE(found_repeat);
}

TEST(ProgramDecode, MaterializeMatchesLegacyCodegen)
{
    const auto &ua = uarch::getMicroArch("Skylake");
    std::vector<GenParams> cases;
    {
        auto p = baseParams();
        p.localUnrollCount = 7;
        cases.push_back(p);
    }
    {
        auto p = baseParams();
        p.body = assemble("l: dec RAX; jnz l");
        p.localUnrollCount = 3;
        p.loopCount = 10;
        cases.push_back(p);
    }
    {
        auto p = baseParams();
        p.noMem = true;
        p.resultBase = 0;
        p.serialize = core::SerializeMode::Cpuid;
        p.localUnrollCount = 4;
        cases.push_back(p);
    }
    {
        auto p = baseParams();
        p.localUnrollCount = 0; // basic mode: readouts only
        cases.push_back(p);
    }
    {
        auto p = baseParams();
        p.init = assemble("mov RAX, 1; mov RBX, 2");
        p.loopCount = 5;
        p.localUnrollCount = 2;
        cases.push_back(p);
    }
    for (std::size_t i = 0; i < cases.size(); ++i) {
        auto legacy = generateMeasurementCode(cases[i]);
        auto expanded =
            core::buildMeasurementProgram(cases[i], ua).materialize();
        EXPECT_EQ(expanded, legacy) << "case " << i;
    }
}

TEST(ProgramDecode, SharedLayoutMatchesEveryUnrollVersion)
{
    // One decode of the layout serves every unroll version: each
    // version's blocks expand to that version's legacy code, and all
    // of them read the same decoded entries.
    const auto &ua = uarch::getMicroArch("Skylake");
    for (std::uint64_t loop : {0u, 10u}) {
        auto p = baseParams();
        p.body = assemble("l: dec RAX; jnz l");
        p.init = assemble("mov RAX, 1");
        p.loopCount = loop;
        core::MeasurementLayout layout = core::buildMeasurementLayout(p);
        const std::vector<std::uint64_t> none = layout.repeatsFor(0);
        const Program decoded =
            Program::decode(ua, std::move(layout.segments));
        for (std::uint64_t u : {0u, 1u, 3u, 6u}) {
            SCOPED_TRACE("loop " + std::to_string(loop) + " unroll " +
                         std::to_string(u));
            Program version = decoded.withRepeats(layout.repeatsFor(u));
            auto legacy_params = p;
            legacy_params.localUnrollCount = u;
            auto legacy = generateMeasurementCode(legacy_params);
            EXPECT_EQ(version.virtualSize(), legacy.size());
            EXPECT_EQ(version.materialize(), legacy);
            EXPECT_EQ(version.plans(), decoded.plans());
        }
        // Unroll 0 keeps only the two readouts.
        EXPECT_EQ(decoded.withRepeats(none).blocks().size(), 2u);
    }
}

/** The decoded plan of one entry against the uarch layer's timing
 *  and the x86 layer's flag classification. */
void
expectPlanMatchesSources(const uarch::MicroArch &ua,
                         const sim::EntryPlan &plan,
                         const Instruction &insn)
{
    const std::string where = ua.name + ": " + insn.toString();
    auto timing = uarch::coreTiming(ua.family, insn);
    EXPECT_EQ(plan.latency, timing.latency) << where;
    EXPECT_EQ(plan.blockCycles, timing.blockCycles) << where;
    ASSERT_EQ(plan.nCore, timing.numUops) << where;
    for (unsigned u = 0; u < sim::kPlanCoreUops; ++u) {
        EXPECT_EQ(plan.core[u], u < timing.numUops ? timing.uopPorts[u]
                                                   : uarch::PortMask{0})
            << where << " uop " << u;
    }

    // The flags are one more slot of the src/dst lists; a zero idiom
    // has no sources at all.
    const x86::OpcodeInfo &info = insn.info();
    const bool zero_idiom = insn.isZeroIdiom();
    EXPECT_EQ((plan.flags & sim::planflag::kZeroIdiom) != 0, zero_idiom)
        << where;
    if (zero_idiom) {
        EXPECT_TRUE(sim::usedSlots(plan.src).empty()) << where;
    }
    EXPECT_EQ(sim::hasSlot(plan.src, sim::kFlagsSlot),
              info.readsFlags && !zero_idiom)
        << where;
    EXPECT_EQ(sim::hasSlot(plan.dst, sim::kFlagsSlot), info.writesFlags)
        << where;
}

TEST(ProgramDecode, CachedTimingMatchesCoreTiming)
{
    // Every catalog variant on every modelled uarch, plus the forms
    // the catalog leaves out (serializing, counter-reading, branch and
    // stack instructions).
    auto extra = assemble(
        "add RAX, RBX; imul RAX, RBX; shl RAX, 3; lea RAX, [RBX+RCX+8];"
        "mov RAX, [0x10000]; mov [0x10000], RAX; div RBX; cpuid;"
        "rdpmc; movaps XMM1, XMM2; jnz l; l: nop; push RAX; pop RBX");
    for (const std::string &name : uarch::allMicroArchNames()) {
        SCOPED_TRACE(name);
        Engine engine;
        SessionOptions opt;
        opt.uarch = name;
        opt.mode = core::Mode::Kernel;
        Session session = engine.session(opt);
        std::vector<Instruction> code =
            uops::Characterizer(session).variantCatalog();
        const std::size_t n_catalog = code.size();
        ASSERT_GT(n_catalog, 0u);
        const auto &ua = uarch::getMicroArch(name);
        for (const Instruction &insn : extra) {
            if (uarch::supportsOpcode(ua.family, insn.opcode))
                code.push_back(insn);
        }
        ASSERT_GT(code.size(), n_catalog);

        // No entry trips a capacity panic.
        Program prog;
        ASSERT_NO_THROW(prog = Program::decode(ua, code));
        ASSERT_EQ(prog.entryCount(), code.size());
        for (std::size_t i = 0; i < code.size(); ++i) {
            EXPECT_EQ(prog.insn(i), code[i]) << i;
            expectPlanMatchesSources(ua, prog.plan(i), code[i]);
        }
    }
}

TEST(ProgramDecode, ZeroIdiomAndDestReadParity)
{
    // The cached flags must match the x86-layer classification the
    // executor used to recompute per dynamic instruction.
    auto code = assemble("xor RAX, RAX; sub RBX, RBX; pxor XMM1, XMM1;"
                         "xor RAX, RBX; sub RAX, RBX; mov RAX, RBX;"
                         "add RAX, RBX; popcnt RAX, RBX");
    Program prog = Program::decode(uarch::getMicroArch("Skylake"), code);
    auto zero_idiom = [&](std::size_t i) {
        return (prog.plan(i).flags & sim::planflag::kZeroIdiom) != 0;
    };
    auto src = [&](std::size_t i) {
        return sim::usedSlots(prog.plan(i).src);
    };

    EXPECT_TRUE(zero_idiom(0));  // xor RAX, RAX
    EXPECT_TRUE(zero_idiom(1));  // sub RBX, RBX
    EXPECT_TRUE(zero_idiom(2));  // pxor XMM1, XMM1
    EXPECT_FALSE(zero_idiom(3)); // xor RAX, RBX
    EXPECT_FALSE(zero_idiom(4)); // sub RAX, RBX
    for (std::size_t i = 0; i < code.size(); ++i)
        EXPECT_EQ(zero_idiom(i), code[i].isZeroIdiom()) << i;

    // Zero idioms wait on no source registers at all.
    EXPECT_EQ(src(0).size(), 0u);

    // mov RAX, RBX: MOV does not read its destination -> only RBX
    // gates readiness. add RAX, RBX reads both (and writes the flags,
    // which it does not read).
    EXPECT_FALSE(code[5].destIsRead());
    ASSERT_EQ(src(5).size(), 1u);
    EXPECT_EQ(src(5)[0], sim::slotOf(Reg::RBX));
    EXPECT_TRUE(code[6].destIsRead());
    EXPECT_EQ(src(6).size(), 2u);
    // popcnt writes its destination without reading it.
    EXPECT_FALSE(code[7].destIsRead());
    ASSERT_EQ(src(7).size(), 1u);
    EXPECT_EQ(src(7)[0], sim::slotOf(Reg::RBX));

    // The written registers, flags included.
    auto dst = sim::usedSlots(prog.plan(6).dst);
    ASSERT_EQ(dst.size(), 2u);
    EXPECT_EQ(dst[0], sim::slotOf(Reg::RAX));
    EXPECT_EQ(dst[1], sim::kFlagsSlot);
}

TEST(ProgramDecode, LoadStoreDecomposition)
{
    auto code = assemble("mov RAX, [0x10000]; mov [0x10000], RAX;"
                         "add [0x10000], RAX; push RAX; pop RBX;"
                         "prefetcht0 [0x10000]");
    Program prog = Program::decode(uarch::getMicroArch("Skylake"), code);
    auto has = [&](std::size_t i, std::uint16_t bit) {
        return (prog.plan(i).flags & bit) != 0;
    };
    namespace pf = sim::planflag;

    EXPECT_TRUE(has(0, pf::kHasLoad));     // pure load
    EXPECT_TRUE(has(0, pf::kDoLoadUop));
    EXPECT_FALSE(has(0, pf::kStoreUops));
    EXPECT_TRUE(has(1, pf::kStoreUops));   // pure store
    EXPECT_TRUE(has(1, pf::kDoStoreUop));
    EXPECT_FALSE(has(1, pf::kHasLoad));
    EXPECT_TRUE(has(2, pf::kHasLoad));     // RMW: both
    EXPECT_TRUE(has(2, pf::kStoreUops));
    EXPECT_TRUE(has(3, pf::kStoreUops));   // push: implicit store...
    EXPECT_FALSE(has(3, pf::kDoStoreUop)); // ...handled inline
    EXPECT_TRUE(has(4, pf::kHasLoad));     // pop: implicit load...
    EXPECT_FALSE(has(4, pf::kDoLoadUop));  // ...handled inline
    EXPECT_TRUE(has(5, pf::kHasLoad));     // prefetch counts as load...
    EXPECT_FALSE(has(5, pf::kDoLoadUop));  // ...dispatched inline
}

TEST(ProgramDecode, UnsupportedOpcodeFaultsAtDecode)
{
    auto code = assemble("vaddps YMM1, YMM2, YMM3");
    EXPECT_THROW(
        Program::decode(uarch::getMicroArch("Nehalem"), code),
        FatalError);
}

TEST(ProgramDecode, EmptyProgramExecutesAsNoOp)
{
    auto m = makeMachine();
    Program empty;
    auto stats = m->execute(empty);
    EXPECT_EQ(stats.instructions, 0u);
    EXPECT_EQ(stats.cycles(), 0u);
}

// ------------------------------------------------- execution parity --

/**
 * Execute the materialized unrolled sequence on one machine and the
 * repeat-encoded program on another (same uarch + seed) and demand
 * bit-identical statistics, cycle counts, and register state.
 */
void
expectBitIdentical(const std::string &uarch,
                   const std::string &prologue_asm,
                   const std::string &body_asm, std::uint64_t repeat)
{
    std::vector<Instruction> prologue;
    if (!prologue_asm.empty())
        prologue = assemble(prologue_asm);
    auto body = assemble(body_asm);

    auto ma = makeMachine(uarch);
    auto mb = makeMachine(uarch);
    auto sa = ma->execute(Program::decode(
        ma->uarch(), unrolled(prologue, body, repeat)));
    auto sb = mb->execute(repeatProgram(uarch, prologue, body, repeat));

    EXPECT_EQ(sa.instructions, sb.instructions) << body_asm;
    EXPECT_EQ(sa.uops, sb.uops) << body_asm;
    EXPECT_EQ(sa.startCycle, sb.startCycle) << body_asm;
    EXPECT_EQ(sa.endCycle, sb.endCycle) << body_asm;
    EXPECT_EQ(ma->cycles(), mb->cycles()) << body_asm;
    EXPECT_EQ(gprs(*ma), gprs(*mb)) << body_asm;
}

TEST(ProgramExecution, BitIdenticalLoadsAndStores)
{
    expectBitIdentical("Skylake", "mov R14, 0x10000; xor RAX, RAX",
                       "mov [R14], RAX; mov RBX, [R14]; add R14, 64",
                       50);
}

TEST(ProgramExecution, BitIdenticalFences)
{
    expectBitIdentical("Skylake", "",
                       "lfence; add RAX, 1; mfence; sfence", 20);
}

TEST(ProgramExecution, BitIdenticalBranches)
{
    // Pattern-relative branch targets: each copy's JNZ spins on its
    // own copy's DEC, exactly like the relocated unrolled encoding.
    expectBitIdentical("Skylake", "mov RAX, 40",
                       "l: dec RAX; jnz l; add RAX, 4", 10);
}

TEST(ProgramExecution, BitIdenticalCallRet)
{
    expectBitIdentical("Skylake",
                       "mov RSP, 0x20000",
                       "call f; jmp done; f: add RAX, 1; ret; done: nop",
                       5);
}

TEST(ProgramExecution, BitIdenticalPfcMarkers)
{
    expectBitIdentical("Skylake", "",
                       "pfc_pause; add RAX, 1; pfc_resume; add RBX, 1",
                       10);
}

TEST(ProgramExecution, BitIdenticalCpuid)
{
    // CPUID draws from the machine RNG per dynamic execution; the
    // predecoded path must consume the stream in the same order.
    expectBitIdentical("Skylake", "", "cpuid; add RAX, RBX", 5);
}

TEST(ProgramExecution, BitIdenticalAcrossFamilies)
{
    for (const char *uarch : {"Nehalem", "SandyBridge", "Haswell",
                              "Zen"}) {
        expectBitIdentical(uarch, "mov R14, 0x10000",
                           "mov RBX, [R14]; imul RBX, RBX; dec RAX",
                           25);
    }
}

TEST(ProgramExecution, RdpmcCounterValuesIdentical)
{
    // Full counter readout through RDPMC on both paths.
    const std::string readout =
        "mov RCX, 0x40000001; rdpmc; mov RSI, RAX";
    auto body = assemble("add RAX, RAX; imul RBX, RBX");
    auto ma = makeMachine();
    auto mb = makeMachine();
    auto pre = assemble("xor RAX, RAX; mov RBX, 3");
    auto post = assemble(readout);

    auto code = unrolled(pre, body, 30);
    code.insert(code.end(), post.begin(), post.end());
    ma->execute(Program::decode(ma->uarch(), code));

    std::vector<Program::Segment> segments;
    segments.push_back({pre, 1, false});
    segments.push_back({body, 30, false});
    segments.push_back({post, 1, false});
    mb->execute(Program::decode(uarch::getMicroArch("Skylake"),
                                std::move(segments)));

    EXPECT_EQ(ma->arch().readGpr(Reg::RSI, 64),
              mb->arch().readGpr(Reg::RSI, 64));
}

// ---------------------------------------------- program decoding --

TEST(ProgramDecode, OneBuildPerRound)
{
    Engine engine;
    SessionOptions opt;
    opt.mode = core::Mode::Kernel;
    Session session = engine.session(opt);

    core::BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX";
    spec.warmUpCount = 3;
    // Five events on Skylake's four programmable counters: two rounds
    // (§III-J).
    spec.config = core::CounterConfig::parseString(
        "0E.01 A\nA1.01 B\nA1.02 C\nA1.04 D\nA1.08 E\n");

    // One build per round, shared by its two unroll versions -- NOT
    // one per measurement or per version: 2 rounds, whether each
    // program serves 13 executions or 53.
    auto &runner = session.runner();
    for (unsigned n : {10u, 50u}) {
        spec.nMeasurements = n;
        std::uint64_t before = runner.decodes();
        ASSERT_TRUE(session.run(spec).ok());
        EXPECT_EQ(runner.decodes() - before, 2u) << n;
    }
    EXPECT_EQ(engine.telemetry().program.misses, 4u);
}

TEST(ProgramDecode, RepeatedSpecDecodesAgain)
{
    // Nothing outlives a run: the same spec on the same session
    // generates and decodes its programs afresh, like nanoBench
    // generating new code for every benchmark run (§III-C).
    Engine engine;
    Session session = engine.session();
    core::BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX";
    spec.nMeasurements = 2;
    spec.warmUpCount = 0;
    ASSERT_TRUE(session.run(spec).ok());
    EXPECT_EQ(session.runner().decodes(), 1u);
    ASSERT_TRUE(session.run(spec).ok());
    EXPECT_EQ(session.runner().decodes(), 2u);
    CacheStats stats = engine.telemetry().program;
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 0u);

    // reset() returns the runner to its just-constructed count.
    session.runner().reset();
    EXPECT_EQ(session.runner().decodes(), 0u);
}

TEST(AssembleCache, RepeatedSpecTextParsedOnce)
{
    Engine engine;
    Session session = engine.session();
    core::BenchmarkSpec spec;
    // A text unlikely to be used by other tests (the memo is
    // process-wide), so the delta accounting below is exact.
    spec.asmCode = "add RAX, 4242; sub RAX, 4242; add RAX, 17";
    spec.nMeasurements = 2;
    spec.warmUpCount = 0;

    auto before = assembleCacheCounters();
    ASSERT_TRUE(session.run(spec).ok());
    ASSERT_TRUE(session.run(spec).ok());
    ASSERT_TRUE(session.run(spec).ok());
    auto after = assembleCacheCounters();
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_GE(after.hits - before.hits, 2u);
}

} // namespace
} // namespace nb
