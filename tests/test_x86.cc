/**
 * @file
 * Unit and property tests for the x86 module: register parsing, the
 * assembler, and the encode/decode round-trip.
 */

#include <cstdio>
#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "x86/assembler.hh"
#include "x86/encoding.hh"

namespace nb::x86
{
namespace
{

TEST(Reg, ParseWidths)
{
    EXPECT_EQ(parseReg("RAX")->reg, Reg::RAX);
    EXPECT_EQ(parseReg("RAX")->widthBits, 64u);
    EXPECT_EQ(parseReg("eax")->reg, Reg::RAX);
    EXPECT_EQ(parseReg("eax")->widthBits, 32u);
    EXPECT_EQ(parseReg("ax")->widthBits, 16u);
    EXPECT_EQ(parseReg("al")->widthBits, 8u);
    EXPECT_EQ(parseReg("r14b")->reg, Reg::R14);
    EXPECT_EQ(parseReg("r14b")->widthBits, 8u);
    EXPECT_EQ(parseReg("xmm5")->reg, Reg::XMM5);
    EXPECT_EQ(parseReg("ymm5")->widthBits, 256u);
    EXPECT_FALSE(parseReg("rax2").has_value());
    EXPECT_FALSE(parseReg("xmm16").has_value());
}

TEST(Reg, NamesRoundTrip)
{
    for (unsigned i = 0; i < kNumGprs; ++i) {
        Reg r = static_cast<Reg>(i);
        for (unsigned w : {8u, 16u, 32u, 64u}) {
            auto parsed = parseReg(regName(r, w));
            ASSERT_TRUE(parsed.has_value()) << regName(r, w);
            EXPECT_EQ(parsed->reg, r);
            EXPECT_EQ(parsed->widthBits, w);
        }
    }
}

TEST(Assembler, PaperExample)
{
    // The exact §III-A invocation.
    auto code = assemble("mov R14, [R14]");
    ASSERT_EQ(code.size(), 1u);
    EXPECT_EQ(code[0].opcode, Opcode::MOV);
    ASSERT_EQ(code[0].operands.size(), 2u);
    EXPECT_EQ(code[0].operands[0].reg, Reg::R14);
    EXPECT_EQ(code[0].operands[1].kind, OperandKind::Memory);
    EXPECT_EQ(code[0].operands[1].mem.base, Reg::R14);
    EXPECT_TRUE(code[0].isLoad());
    EXPECT_FALSE(code[0].isStore());
}

TEST(Assembler, StoreForm)
{
    auto code = assemble("mov [R14], R14");
    ASSERT_EQ(code.size(), 1u);
    EXPECT_TRUE(code[0].isStore());
    EXPECT_FALSE(code[0].isLoad());
}

TEST(Assembler, MultipleStatements)
{
    auto code = assemble("nop; add RAX, 5\nxor rbx, rbx");
    ASSERT_EQ(code.size(), 3u);
    EXPECT_EQ(code[1].opcode, Opcode::ADD);
    EXPECT_EQ(code[1].operands[1].imm, 5);
}

TEST(Assembler, Comments)
{
    auto code = assemble("nop # trailing comment\n# full line\nnop");
    EXPECT_EQ(code.size(), 2u);
}

TEST(Assembler, ComplexMemoryOperand)
{
    auto code = assemble("mov RAX, qword ptr [R14+RSI*4+16]");
    ASSERT_EQ(code.size(), 1u);
    const auto &m = code[0].operands[1].mem;
    EXPECT_EQ(m.base, Reg::R14);
    EXPECT_EQ(m.index, Reg::RSI);
    EXPECT_EQ(m.scale, 4);
    EXPECT_EQ(m.disp, 16);
}

TEST(Assembler, NegativeDisplacement)
{
    auto code = assemble("mov RAX, [RBP-8]");
    EXPECT_EQ(code[0].operands[1].mem.disp, -8);
}

TEST(Assembler, AbsoluteAddress)
{
    auto code = assemble("mov RAX, [0x1000]");
    EXPECT_EQ(code[0].operands[1].mem.base, Reg::Invalid);
    EXPECT_EQ(code[0].operands[1].mem.disp, 0x1000);
}

TEST(Assembler, LabelsAndBranches)
{
    auto code = assemble("mov R15, 10; loop: dec R15; jnz loop; nop");
    ASSERT_EQ(code.size(), 4u);
    EXPECT_EQ(code[2].opcode, Opcode::JNZ);
    EXPECT_EQ(code[2].targetIdx, 1);
}

TEST(Assembler, ForwardLabel)
{
    auto code = assemble("jmp end; nop; end: nop");
    EXPECT_EQ(code[0].targetIdx, 2);
}

TEST(Assembler, Errors)
{
    EXPECT_THROW(assemble("bogus RAX"), FatalError);
    EXPECT_THROW(assemble("mov RAX, [RBX"), FatalError);
    EXPECT_THROW(assemble("jnz nowhere"), FatalError);
    EXPECT_THROW(assemble("mov RAX, RBX, RCX, RDX, R8"), FatalError);
    EXPECT_THROW(assemble("l: nop; l: nop"), FatalError);
}

TEST(Assembler, PrivilegedAndMagicMnemonics)
{
    auto code = assemble("wbinvd; rdmsr; pfc_pause; pfc_resume; lfence");
    ASSERT_EQ(code.size(), 5u);
    EXPECT_TRUE(code[0].info().privileged);
    EXPECT_TRUE(code[1].info().privileged);
    EXPECT_EQ(code[2].opcode, Opcode::PFC_PAUSE);
    EXPECT_EQ(code[3].opcode, Opcode::PFC_RESUME);
    EXPECT_TRUE(code[4].info().dispatchFence);
}

TEST(Encoding, RoundTripSimple)
{
    auto code = assemble(
        "mov R14, [R14]; add RAX, 5; loop: dec R15; jnz loop");
    auto bytes = encode(code);
    auto decoded = decode(bytes);
    EXPECT_EQ(code, decoded);
}

TEST(Encoding, MagicBytesAreLiteral)
{
    auto code = assemble("nop; pfc_pause; nop; pfc_resume");
    auto bytes = encode(code);
    // The magic sequences appear verbatim in the byte stream (§III-I).
    auto find = [&](const std::array<std::uint8_t, 8> &magic) {
        return std::search(bytes.begin(), bytes.end(), magic.begin(),
                           magic.end()) != bytes.end();
    };
    EXPECT_TRUE(find(kMagicPause));
    EXPECT_TRUE(find(kMagicResume));
    EXPECT_EQ(decode(bytes), code);
}

TEST(Encoding, RejectsGarbage)
{
    std::vector<std::uint8_t> garbage = {'N', 'O', 'P', 'E', 1, 2, 3};
    EXPECT_THROW(decode(garbage), FatalError);
    EXPECT_THROW(decode(std::vector<std::uint8_t>{}), FatalError);
}

TEST(Encoding, RejectsTruncation)
{
    auto bytes = encode(assemble("add RAX, 5"));
    bytes.pop_back();
    EXPECT_THROW(decode(bytes), FatalError);
}

/** Property test: random instructions survive the byte round-trip. */
class EncodingRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EncodingRoundTrip, RandomInstructions)
{
    Rng rng(GetParam());
    std::vector<Instruction> code;
    for (int i = 0; i < 200; ++i) {
        Instruction insn;
        insn.opcode = static_cast<Opcode>(
            rng.nextBelow(static_cast<unsigned>(Opcode::NumOpcodes)));
        unsigned n_ops = static_cast<unsigned>(rng.nextBelow(3));
        for (unsigned k = 0; k < n_ops; ++k) {
            switch (rng.nextBelow(3)) {
              case 0:
                insn.operands.push_back(Operand::makeReg(
                    static_cast<Reg>(rng.nextBelow(32)),
                    rng.oneIn(2) ? 64 : 32));
                break;
              case 1:
                insn.operands.push_back(Operand::makeImm(
                    static_cast<std::int64_t>(rng.next())));
                break;
              default: {
                MemRef m;
                m.base = static_cast<Reg>(rng.nextBelow(16));
                m.disp = static_cast<std::int64_t>(rng.nextBelow(4096));
                insn.operands.push_back(Operand::makeMem(m));
              }
            }
        }
        if (rng.oneIn(8))
            insn.targetIdx = static_cast<std::int32_t>(rng.nextBelow(100));
        code.push_back(std::move(insn));
    }
    // Magic markers carry no operands; normalize before comparing.
    for (auto &insn : code) {
        if (insn.opcode == Opcode::PFC_PAUSE ||
            insn.opcode == Opcode::PFC_RESUME) {
            insn.operands.clear();
            insn.targetIdx = -1;
        }
    }
    EXPECT_EQ(decode(encode(code)), code);

    // writeHex spells the same bytes in exactly hexSize() chars.
    auto bytes = encode(code);
    std::string expected;
    for (std::uint8_t b : bytes) {
        char digits[3];
        std::snprintf(digits, sizeof digits, "%02x", b);
        expected += digits;
    }
    std::string hex(hexSize(code), '?');
    ASSERT_EQ(hex.size(), expected.size());
    EXPECT_EQ(writeHex(hex.data(), code), hex.data() + hex.size());
    EXPECT_EQ(hex, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 1234));

TEST(Instruction, FormSignatures)
{
    EXPECT_EQ(assemble("add RAX, RBX")[0].formSignature(), "ADD_R64_R64");
    EXPECT_EQ(assemble("add EAX, 1")[0].formSignature(), "ADD_R32_I");
    EXPECT_EQ(assemble("mov RAX, [R14]")[0].formSignature(),
              "MOV_R64_M64");
    EXPECT_EQ(assemble("addps XMM1, XMM2")[0].formSignature(),
              "ADDPS_X_X");
    EXPECT_EQ(assemble("vaddps YMM1, YMM2, YMM3")[0].formSignature(),
              "VADDPS_Y_Y_Y");
}

TEST(Instruction, ToStringRoundTrips)
{
    for (const char *text :
         {"mov R14, [R14]", "add RAX, 5", "lea RAX, [RBX+RCX*8+16]",
          "vaddps YMM1, YMM2, YMM3", "wbinvd", "setz AL"}) {
        auto code = assemble(text);
        auto re = assemble(code[0].toString());
        EXPECT_EQ(code[0], re[0]) << text << " vs " << code[0].toString();
    }
}

TEST(Instruction, LoadStoreClassification)
{
    EXPECT_TRUE(assemble("add RAX, [R14]")[0].isLoad());
    // Read-modify-write: both load and store.
    auto rmw = assemble("add [R14], RAX")[0];
    EXPECT_TRUE(rmw.isLoad());
    EXPECT_TRUE(rmw.isStore());
    // Pure store.
    auto st = assemble("mov [R14], RAX")[0];
    EXPECT_FALSE(st.isLoad());
    EXPECT_TRUE(st.isStore());
    // CMP with memory destination operand only reads.
    auto cmp = assemble("cmp [R14], RAX")[0];
    EXPECT_TRUE(cmp.isLoad());
    EXPECT_FALSE(cmp.isStore());
    // LEA does not access memory at all.
    auto lea = assemble("lea RAX, [R14+8]")[0];
    EXPECT_FALSE(lea.isLoad());
    EXPECT_FALSE(lea.isStore());
    // PUSH stores, POP loads.
    EXPECT_TRUE(assemble("push RAX")[0].isStore());
    EXPECT_TRUE(assemble("pop RAX")[0].isLoad());
}

} // namespace
} // namespace nb::x86
