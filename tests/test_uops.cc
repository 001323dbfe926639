/**
 * @file
 * Tests for case study I (§V): the measured latency/throughput/port
 * characteristics must recover the microarchitectural ground truth.
 */

#include <gtest/gtest.h>

#include "core/engine.hh"
#include "uarch/timing.hh"
#include "uops/characterize.hh"
#include "x86/assembler.hh"

namespace nb::uops
{
namespace
{

Session &
skylakeSession()
{
    // One pooled Skylake machine shared by all variants.
    static Engine engine;
    static Session session = engine.session({});
    return session;
}

VariantResult
characterize(const std::string &asm_text)
{
    Characterizer tool(skylakeSession());
    return tool.characterize(x86::assemble(asm_text)[0]);
}

TEST(Uops, AddRegReg)
{
    auto r = characterize("add RAX, RBX");
    ASSERT_TRUE(r.latency.has_value());
    EXPECT_NEAR(*r.latency, 1.0, 0.1);
    EXPECT_NEAR(r.throughput, 0.25, 0.08); // 4 ALU ports
    EXPECT_NEAR(r.uops, 1.0, 0.1);
}

TEST(Uops, ImulLatencyThree)
{
    auto r = characterize("imul RAX, RBX");
    ASSERT_TRUE(r.latency.has_value());
    EXPECT_NEAR(*r.latency, 3.0, 0.15);
    // Only one multiplier port -> throughput 1/cycle.
    EXPECT_NEAR(r.throughput, 1.0, 0.15);
    ASSERT_TRUE(r.portUsage.count(1));
    EXPECT_NEAR(r.portUsage.at(1), 1.0, 0.1);
}

TEST(Uops, LoadLatencyAndPorts)
{
    auto r = characterize("mov RAX, [R14]");
    ASSERT_TRUE(r.latency.has_value());
    EXPECT_NEAR(*r.latency, 4.0, 0.2); // L1 latency (§III-A)
    EXPECT_NEAR(r.throughput, 0.5, 0.1); // two load ports
    double p2 = r.portUsage.count(2) ? r.portUsage.at(2) : 0.0;
    double p3 = r.portUsage.count(3) ? r.portUsage.at(3) : 0.0;
    EXPECT_NEAR(p2 + p3, 1.0, 0.15);
}

TEST(Uops, StoreThroughputOnePerCycle)
{
    auto r = characterize("mov [R14], RAX");
    EXPECT_FALSE(r.latency.has_value());
    EXPECT_NEAR(r.throughput, 1.0, 0.2); // single store-data port
    ASSERT_TRUE(r.portUsage.count(4));
}

TEST(Uops, NopThroughputIssueBound)
{
    auto r = characterize("nop");
    EXPECT_NEAR(r.throughput, 0.25, 0.08); // 4-wide issue, no ports
    EXPECT_TRUE(r.portUsage.empty());
}

TEST(Uops, DivIsSlowAndBlocking)
{
    auto r = characterize("div RBX");
    ASSERT_TRUE(r.latency.has_value());
    EXPECT_GT(*r.latency, 25.0);
    EXPECT_GT(r.throughput, 15.0); // non-pipelined divider
}

TEST(Uops, PrivilegedNeedKernelMode)
{
    Engine engine;
    SessionOptions opt;
    opt.uarch = "Skylake";
    opt.mode = core::Mode::User;
    Session user = engine.session(opt);
    Characterizer tool(user);
    auto r = tool.characterize(x86::assemble("rdmsr")[0]);
    EXPECT_TRUE(r.requiresKernelMode);

    // In kernel mode (the nanoBench contribution, §V) it works.
    auto k = characterize("wbinvd");
    EXPECT_FALSE(k.requiresKernelMode);
    EXPECT_GT(k.throughput, 1000.0);
}

TEST(Uops, AvxRequiresPostNehalem)
{
    Engine engine;
    SessionOptions opt;
    opt.uarch = "Nehalem";
    opt.mode = core::Mode::Kernel;
    Session nehalem = engine.session(opt);
    Characterizer tool(nehalem);
    auto catalog = tool.variantCatalog();
    for (const auto &insn : catalog) {
        EXPECT_NE(insn.opcode, x86::Opcode::VADDPS);
        EXPECT_NE(insn.opcode, x86::Opcode::VFMADD231PS);
    }
}

TEST(Uops, CatalogIsSubstantial)
{
    Characterizer tool(skylakeSession());
    EXPECT_GE(tool.variantCatalog().size(), 90u);
}

TEST(Uops, TableFormatting)
{
    auto r = characterize("add RAX, RBX");
    auto row = r.tableRow();
    EXPECT_NE(row.find("add RAX, RBX"), std::string::npos);
    EXPECT_FALSE(Characterizer::tableHeader().empty());
}

/**
 * Property sweep: for register-only single-µop forms, the measured
 * latency must equal the ground-truth table latency exactly -- this is
 * the closed-loop validation of the whole measurement stack.
 */
class LatencyRecovery : public ::testing::TestWithParam<const char *>
{
};

TEST_P(LatencyRecovery, MeasuredMatchesGroundTruth)
{
    auto insn = x86::assemble(GetParam())[0];
    auto truth = uarch::coreTiming(uarch::PortFamily::Skylake, insn);
    auto r = characterize(GetParam());
    ASSERT_TRUE(r.latency.has_value()) << GetParam();
    EXPECT_NEAR(*r.latency, truth.latency, 0.2) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    RegisterForms, LatencyRecovery,
    ::testing::Values("add RAX, RBX", "adc RAX, RBX", "sub RAX, RBX",
                      "and RAX, RBX", "xor RAX, RBX", "inc RAX",
                      "neg RAX", "imul RAX, RBX", "shl RAX, 3",
                      "rol RAX, 3", "popcnt RAX, RBX", "lzcnt RAX, RBX",
                      "bsf RAX, RBX", "bswap RAX", "cmovz RAX, RBX",
                      "movaps XMM1, XMM2", "pxor XMM1, XMM2",
                      "paddd XMM1, XMM2", "addps XMM1, XMM2",
                      "mulps XMM1, XMM2"));

/** Throughput is never better than the port bound allows. */
class ThroughputSanity : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ThroughputSanity, AboveIssueBound)
{
    auto r = characterize(GetParam());
    EXPECT_GE(r.throughput, 0.2) << GetParam(); // 4-wide issue floor
    EXPECT_LT(r.throughput, 100.0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    CommonForms, ThroughputSanity,
    ::testing::Values("add RAX, RBX", "mov RAX, [R14]", "mov [R14], RAX",
                      "imul RAX, RBX", "vaddps YMM1, YMM2, YMM3",
                      "lea RAX, [RBX+8]", "setz AL", "push RAX"));

} // namespace
} // namespace nb::uops
