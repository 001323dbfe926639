/**
 * @file
 * Tests for the nanoBench core: counter configs (§III-J), code
 * generation (Algorithm 1), the runner (Algorithm 2, §III-C), kernel vs
 * user mode (§III-D), noMem mode (§III-I), and the kernel-module
 * virtual-file interface (§IV-C).
 */

#include <gtest/gtest.h>

#include "core/engine.hh"
#include "core/module.hh"
#include "x86/assembler.hh"
#include "x86/encoding.hh"

namespace nb::core
{
namespace
{

using x86::Opcode;

// ------------------------------------------------------------ config --

TEST(Config, ParsesEventLines)
{
    auto cfg = CounterConfig::parseString(
        "# comment\n"
        "0E.01 UOPS_ISSUED.ANY\n"
        "A1.04 UOPS_DISPATCHED_PORT.PORT_2   # trailing\n"
        "\n"
        "D1.01 MEM_LOAD_RETIRED.L1_HIT\n");
    ASSERT_EQ(cfg.events().size(), 3u);
    EXPECT_EQ(cfg.events()[0].displayName, "UOPS_ISSUED.ANY");
    EXPECT_EQ(cfg.events()[1].id, sim::EventId::UopsPort2);
}

TEST(Config, SkipsUnknownEventsWithWarning)
{
    auto cfg = CounterConfig::parseString("FF.FF NOT_A_REAL_EVENT\n"
                                          "0E.01 UOPS_ISSUED.ANY\n");
    EXPECT_EQ(cfg.events().size(), 1u);
}

TEST(Config, RoundsSplitAtCounterCount)
{
    auto cfg = CounterConfig::parseString("0E.01 A\nA1.01 B\nA1.02 C\n"
                                          "A1.04 D\nA1.08 E\n");
    auto rounds = cfg.rounds(4);
    ASSERT_EQ(rounds.size(), 2u); // 5 events on 4 counters (§III-J)
    EXPECT_EQ(rounds[0].size(), 4u);
    EXPECT_EQ(rounds[1].size(), 1u);
}

TEST(Config, ShippedFilesParse)
{
    for (const auto &name : uarch::allMicroArchNames()) {
        auto cfg = CounterConfig::forMicroArch(name);
        EXPECT_FALSE(cfg.empty()) << name;
    }
}

// ----------------------------------------------------------- codegen --

GenParams
baseParams()
{
    GenParams p;
    p.body = x86::assemble("nop");
    p.resultBase = 0x1000;
    p.readouts = {{ReadoutItem::Kind::FixedPmc, 1, "Core cycles"}};
    return p;
}

unsigned
countOpcode(const std::vector<x86::Instruction> &code, Opcode op)
{
    unsigned n = 0;
    for (const auto &insn : code)
        n += insn.opcode == op ? 1 : 0;
    return n;
}

TEST(Codegen, UnrollsBody)
{
    auto p = baseParams();
    p.localUnrollCount = 7;
    auto code = generateMeasurementCode(p);
    EXPECT_EQ(countOpcode(code, Opcode::NOP), 7u);
}

TEST(Codegen, LoopUsesR15)
{
    // Algorithm 1 line 5: loop around the unrolled copies; R15 is the
    // loop counter (§III-B).
    auto p = baseParams();
    p.loopCount = 10;
    p.localUnrollCount = 2;
    auto code = generateMeasurementCode(p);
    EXPECT_EQ(countOpcode(code, Opcode::JNZ), 1u);
    EXPECT_EQ(countOpcode(code, Opcode::DEC), 1u);
    bool r15_init = false;
    for (const auto &insn : code) {
        if (insn.opcode == Opcode::MOV && insn.operands.size() == 2 &&
            insn.operands[0].kind == x86::OperandKind::Register &&
            insn.operands[0].reg == x86::Reg::R15 &&
            insn.operands[1].imm == 10)
            r15_init = true;
    }
    EXPECT_TRUE(r15_init);
}

TEST(Codegen, ZeroUnrollOmitsBody)
{
    auto p = baseParams();
    p.localUnrollCount = 0;
    auto code = generateMeasurementCode(p);
    EXPECT_EQ(countOpcode(code, Opcode::NOP), 0u);
    // Still contains the two readouts.
    EXPECT_EQ(countOpcode(code, Opcode::RDPMC), 2u);
}

TEST(Codegen, SerializationModes)
{
    auto p = baseParams();
    p.serialize = SerializeMode::Lfence;
    EXPECT_GE(countOpcode(generateMeasurementCode(p), Opcode::LFENCE),
              4u);
    p.serialize = SerializeMode::Cpuid;
    auto cpuid_code = generateMeasurementCode(p);
    EXPECT_GE(countOpcode(cpuid_code, Opcode::CPUID), 4u);
    EXPECT_EQ(countOpcode(cpuid_code, Opcode::LFENCE), 0u);
    p.serialize = SerializeMode::None;
    EXPECT_EQ(countOpcode(generateMeasurementCode(p), Opcode::LFENCE),
              0u);
}

TEST(Codegen, NoMemModeAvoidsMemoryOperands)
{
    auto p = baseParams();
    p.noMem = true;
    p.resultBase = 0;
    auto code = generateMeasurementCode(p);
    for (const auto &insn : code) {
        EXPECT_EQ(insn.memOperand(), nullptr)
            << insn.toString() << " accesses memory in noMem mode";
    }
    // Accumulator updates: SUB on the first read, ADD on the second.
    EXPECT_EQ(countOpcode(code, Opcode::SUB), 1u);
    EXPECT_EQ(countOpcode(code, Opcode::ADD), 1u);
}

TEST(Codegen, NoMemLimitsReadoutCount)
{
    auto p = baseParams();
    p.noMem = true;
    p.resultBase = 0;
    for (unsigned i = 0; i < maxNoMemReadouts() + 1; ++i)
        p.readouts.push_back({ReadoutItem::Kind::ProgPmc, i, "X"});
    EXPECT_THROW(generateMeasurementCode(p), PanicError);
}

TEST(Codegen, BodyBranchesRelocatedPerCopy)
{
    auto p = baseParams();
    p.body = x86::assemble("l: dec RAX; jnz l");
    p.localUnrollCount = 3;
    auto code = generateMeasurementCode(p);
    // Each copy's JNZ must target its own copy's DEC.
    std::vector<std::size_t> dec_idx, jnz_idx;
    for (std::size_t i = 0; i < code.size(); ++i) {
        if (code[i].opcode == Opcode::DEC)
            dec_idx.push_back(i);
        if (code[i].opcode == Opcode::JNZ)
            jnz_idx.push_back(i);
    }
    ASSERT_EQ(dec_idx.size(), 3u);
    ASSERT_EQ(jnz_idx.size(), 3u);
    for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_EQ(static_cast<std::size_t>(code[jnz_idx[k]].targetIdx),
                  dec_idx[k]);
    }
}

// ------------------------------------------------------------ runner --

Session
makeSession(Mode mode = Mode::Kernel, const std::string &uarch = "Skylake")
{
    // A throwaway Engine per helper call: every test gets a fresh,
    // private machine (the session's lease outlives the engine).
    Engine engine;
    SessionOptions opt;
    opt.uarch = uarch;
    opt.mode = mode;
    return engine.session(opt);
}

TEST(Runner, PaperSectionIIIAExample)
{
    // ./nanoBench.sh -asm "mov R14, [R14]" -asm_init "mov [R14], R14"
    // -config cfg_Skylake.txt   ->  §III-A output.
    auto session = makeSession();
    BenchmarkSpec spec;
    spec.asmCode = "mov R14, [R14]";
    spec.asmInit = "mov [R14], R14";
    spec.unrollCount = 100;
    spec.warmUpCount = 2;
    spec.config = CounterConfig::forMicroArch("Skylake");
    auto result = session.runOrThrow(spec);

    EXPECT_NEAR(result["Instructions retired"], 1.00, 0.02);
    EXPECT_NEAR(result["Core cycles"], 4.00, 0.05);
    EXPECT_NEAR(result["Reference cycles"], 3.52, 0.06);
    EXPECT_NEAR(result["UOPS_ISSUED.ANY"], 1.00, 0.03);
    EXPECT_NEAR(result["UOPS_DISPATCHED_PORT.PORT_2"], 0.50, 0.05);
    EXPECT_NEAR(result["UOPS_DISPATCHED_PORT.PORT_3"], 0.50, 0.05);
    EXPECT_NEAR(result["UOPS_DISPATCHED_PORT.PORT_0"], 0.00, 0.05);
    EXPECT_NEAR(result["MEM_LOAD_RETIRED.L1_HIT"], 1.00, 0.02);
    EXPECT_NEAR(result["MEM_LOAD_RETIRED.L1_MISS"], 0.00, 0.02);
}

TEST(Runner, MultiRoundCountersAllReported)
{
    // 19 events on 4 programmable counters -> 5 rounds, automatically
    // (§III-J).
    auto session = makeSession();
    BenchmarkSpec spec;
    spec.asmCode = "nop";
    spec.unrollCount = 10;
    spec.config = CounterConfig::forMicroArch("Skylake");
    auto result = session.runOrThrow(spec);
    // 3 fixed + all configured events.
    EXPECT_EQ(result.lines.size(),
              3 + CounterConfig::forMicroArch("Skylake").events().size());
}

TEST(Runner, LastRunRoundsCountsExecutedRounds)
{
    // observeSpec scales its per-copy deltas by this count.
    auto session = makeSession();
    core::Runner &runner = session.runner();
    BenchmarkSpec spec;
    spec.asmCode = "nop";
    spec.config = CounterConfig::forMicroArch("Skylake");
    runner.run(spec);
    const unsigned counters = runner.machine().pmu().numProg();
    EXPECT_GT(spec.config.rounds(counters).size(), 1u);
    EXPECT_EQ(runner.lastRunRounds(), spec.config.rounds(counters).size());
    // Fixed counters only: one round that programs nothing.
    spec.config = CounterConfig();
    runner.run(spec);
    EXPECT_EQ(runner.lastRunRounds(), 1u);
    // Nothing to read: the round is skipped.
    spec.fixedCounters = false;
    EXPECT_TRUE(runner.run(spec).lines.empty());
    EXPECT_EQ(runner.lastRunRounds(), 0u);
}

TEST(Runner, BasicModeMatchesDefault)
{
    auto session = makeSession();
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX";
    spec.unrollCount = 64;
    spec.warmUpCount = 1;
    auto normal = session.runOrThrow(spec)["Core cycles"];
    spec.basicMode = true;
    auto basic = session.runOrThrow(spec)["Core cycles"];
    EXPECT_NEAR(normal, basic, 0.1);
    EXPECT_NEAR(normal, 1.0, 0.05); // 1-cycle dependency chain
}

TEST(Runner, LoopAndUnrollCombination)
{
    // §III-F: loop_count * unroll_count executions, normalized.
    auto session = makeSession();
    BenchmarkSpec spec;
    spec.asmCode = "imul RAX, RAX";
    spec.unrollCount = 10;
    spec.loopCount = 20;
    spec.warmUpCount = 2;
    auto cycles = session.runOrThrow(spec)["Core cycles"];
    EXPECT_NEAR(cycles, 3.0, 0.25);
}

TEST(Runner, RegistersRestoredAfterRun)
{
    auto session = makeSession();
    auto &arch = session.machine().arch();
    arch.writeGpr(x86::Reg::RBX, 64, 0x1234567890ULL);
    BenchmarkSpec spec;
    spec.asmCode = "mov RBX, 1; mov RSP, 2; mov R14, 3";
    spec.unrollCount = 4;
    session.runOrThrow(spec);
    // §III: "After executing the microbenchmark, nanoBench
    // automatically resets them to their previous values."
    EXPECT_EQ(arch.readGpr(x86::Reg::RBX, 64), 0x1234567890ULL);
}

TEST(Runner, MemoryAreasInitialized)
{
    // §III-G: RSP, RBP, RDI, RSI, R14 point into dedicated 1 MB areas.
    auto session = makeSession();
    BenchmarkSpec spec;
    spec.asmCode = "mov [R14], R14; mov [RDI], RDI; mov [RSI], RSI; "
                   "mov [RBP], RBP; push RAX; pop RBX";
    spec.unrollCount = 2;
    EXPECT_NO_THROW(session.runOrThrow(spec));
}

TEST(Runner, UserModeRejectsPrivileged)
{
    auto session = makeSession(Mode::User);
    BenchmarkSpec spec;
    spec.asmCode = "wbinvd";
    spec.unrollCount = 1;
    EXPECT_THROW(session.runOrThrow(spec), FatalError);
}

TEST(Runner, KernelModeRunsPrivileged)
{
    auto session = makeSession(Mode::Kernel);
    BenchmarkSpec spec;
    spec.asmCode = "cli; sti";
    spec.unrollCount = 2;
    EXPECT_NO_THROW(session.runOrThrow(spec));
}

TEST(Runner, AperfMperfKernelOnly)
{
    BenchmarkSpec spec;
    spec.asmCode = "nop";
    spec.unrollCount = 8;
    spec.aperfMperf = true;
    auto kernel = makeSession(Mode::Kernel);
    auto result = kernel.runOrThrow(spec);
    EXPECT_TRUE(result.has("APERF"));
    EXPECT_TRUE(result.has("MPERF"));
    auto user = makeSession(Mode::User);
    EXPECT_THROW(user.runOrThrow(spec), FatalError);
}

TEST(Runner, UserModeNoisierThanKernel)
{
    // §III-D: the kernel version disables interrupts; user-space runs
    // are perturbed. Use min aggregate over several runs: the MINIMUM
    // should still be close, while single user runs fluctuate more.
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX";
    spec.unrollCount = 500;
    spec.loopCount = 40;
    spec.nMeasurements = 7;
    spec.warmUpCount = 1;
    spec.agg = Aggregate::Median;

    auto kernel = makeSession(Mode::Kernel);
    double k = kernel.runOrThrow(spec)["Core cycles"];
    EXPECT_NEAR(k, 1.0, 0.05);

    auto user = makeSession(Mode::User);
    double u = user.runOrThrow(spec)["Core cycles"];
    // The median still recovers a sane value (§III: repetition +
    // aggregates), just with wider tolerance.
    EXPECT_NEAR(u, 1.0, 0.4);
}

TEST(Runner, NoMemModeProducesSameCounts)
{
    // §III-I: storing counters in registers instead of memory.
    auto session = makeSession();
    BenchmarkSpec spec;
    spec.asmCode = "mov R14, [R14]";
    spec.asmInit = "mov [R14], R14";
    spec.unrollCount = 50;
    spec.warmUpCount = 1;
    spec.fixedCounters = false;
    spec.noMem = true;
    spec.config = CounterConfig::parseString(
        "D1.01 MEM_LOAD_RETIRED.L1_HIT\nD1.08 MEM_LOAD_RETIRED.L1_MISS");
    auto result = session.runOrThrow(spec);
    EXPECT_NEAR(result["MEM_LOAD_RETIRED.L1_HIT"], 1.0, 0.05);
    EXPECT_NEAR(result["MEM_LOAD_RETIRED.L1_MISS"], 0.0, 0.05);
}

TEST(Runner, ReservePhysicallyContiguousR14)
{
    auto kernel = makeSession(Mode::Kernel);
    EXPECT_TRUE(kernel.runner().reserveR14Area(16 * 1024 * 1024));
    EXPECT_GE(kernel.runner().r14AreaSize(), 16u * 1024 * 1024);
    // Contiguity check through the page table.
    auto &mem = kernel.machine().memory();
    Addr base = kernel.runner().r14Area();
    Addr pbase = mem.translate(base);
    EXPECT_EQ(mem.translate(base + 8 * 1024 * 1024),
              pbase + 8 * 1024 * 1024);

    auto user = makeSession(Mode::User);
    EXPECT_FALSE(user.runner().reserveR14Area(16 * 1024 * 1024));
}

TEST(Runner, EmptyBodyIsFatal)
{
    auto session = makeSession();
    BenchmarkSpec spec;
    EXPECT_THROW(session.runOrThrow(spec), FatalError);
}

// ------------------------------------------------------------ module --

TEST(Module, VirtualFileRoundTrip)
{
    sim::Machine machine(uarch::getMicroArch("Skylake"), 42);
    NanoBenchModule module(machine);
    // The raw module defaults stay 1/0 (the 100/2 defaults belong to
    // the shell front end / BenchmarkSpec, §III-E).
    EXPECT_EQ(module.readFile("/sys/nb/unroll_count"), "1");
    EXPECT_EQ(module.readFile("/sys/nb/warm_up_count"), "0");
    module.writeFile("/sys/nb/loop_count", "12");
    EXPECT_EQ(module.readFile("/sys/nb/loop_count"), "12");
    module.writeFile("/sys/nb/agg", "min");
    EXPECT_EQ(module.readFile("/sys/nb/agg"), "min");
    EXPECT_THROW(module.writeFile("/sys/nb/nope", "1"), FatalError);
    EXPECT_THROW(module.writeFile("/sys/nb/loop_count", "abc"),
                 FatalError);
}

TEST(Module, ProcNanoBenchRunsBenchmark)
{
    // §IV-C: reading /proc/nanoBench generates the code, runs the
    // benchmark, and returns the result.
    sim::Machine machine(uarch::getMicroArch("Skylake"), 42);
    NanoBenchModule module(machine);
    module.writeFile("/sys/nb/code", "mov R14, [R14]");
    module.writeFile("/sys/nb/init", "mov [R14], R14");
    module.writeFile("/sys/nb/unroll_count", "100");
    module.writeFile("/sys/nb/warm_up_count", "2");
    module.writeFile("/sys/nb/config",
                     "D1.01 MEM_LOAD_RETIRED.L1_HIT");
    std::string out = module.readFile("/proc/nanoBench");
    EXPECT_NE(out.find("Core cycles: 4.0"), std::string::npos) << out;
    EXPECT_NE(out.find("MEM_LOAD_RETIRED.L1_HIT: 1.00"),
              std::string::npos)
        << out;
}

TEST(Module, AcceptsRawCodeBytes)
{
    // The machine-code path (§III-E / §IV-B): encoded bytes written to
    // the code file.
    sim::Machine machine(uarch::getMicroArch("Skylake"), 42);
    NanoBenchModule module(machine);
    auto bytes = x86::encode(x86::assemble("add RAX, RAX"));
    module.writeFile("/sys/nb/code_bytes",
                     std::string(bytes.begin(), bytes.end()));
    module.writeFile("/sys/nb/unroll_count", "50");
    std::string out = module.readFile("/proc/nanoBench");
    EXPECT_NE(out.find("Core cycles: 1.0"), std::string::npos) << out;
}

} // namespace
} // namespace nb::core
