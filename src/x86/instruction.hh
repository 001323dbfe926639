/**
 * @file
 * Instruction IR for the simulated x86-64 subset.
 *
 * The subset covers everything the paper's microbenchmarks need: integer
 * ALU, multiply/divide, loads/stores with full addressing modes, flags and
 * conditional branches (for the generated measurement loop), SSE/AVX
 * arithmetic, fences and serializing instructions, and the privileged
 * instructions that motivate nanoBench's kernel-space version (RDMSR,
 * WRMSR, WBINVD, CLI/STI, ...).
 */

#ifndef NB_X86_INSTRUCTION_HH
#define NB_X86_INSTRUCTION_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "x86/operand.hh"

namespace nb::x86
{

/** Opcodes of the modelled subset. */
enum class Opcode : std::uint16_t
{
    // Data movement
    MOV, MOVZX, MOVSX, LEA, XCHG, PUSH, POP, BSWAP, MOVNTI,
    CMOVZ, CMOVNZ, CMOVC, CMOVNC,
    // Integer ALU
    ADD, ADC, SUB, SBB, AND, OR, XOR, CMP, TEST,
    INC, DEC, NEG, NOT,
    IMUL, MUL, DIV, IDIV,
    SHL, SHR, SAR, ROL, ROR,
    POPCNT, LZCNT, TZCNT, BSF, BSR,
    BT, BTS, BTR,
    SETZ, SETNZ,
    // Control flow
    JMP, JZ, JNZ, JC, JNC, JL, JGE, JLE, JG, CALL, RET,
    // SSE / AVX
    MOVAPS, MOVUPS, PXOR, PADDD,
    ADDPS, ADDPD, MULPS, MULPD, DIVPS, DIVPD,
    VADDPS, VMULPS, VFMADD231PS,
    // Fences and serialization
    LFENCE, MFENCE, SFENCE, CPUID, PAUSE,
    // Counters and system (privilege-sensitive)
    RDTSC, RDPMC, RDMSR, WRMSR, WBINVD, CLFLUSH,
    PREFETCHT0, PREFETCHNTA, CLI, STI,
    NOP,
    // nanoBench magic markers (paper §III-I): pause/resume counting.
    PFC_PAUSE, PFC_RESUME,
    NumOpcodes,
};

/** Coarse instruction class used for default timing assignment. */
enum class InstrClass : std::uint8_t
{
    Move, Alu, Lea, Mul, Div, Shift, BitScan, SetCC, CMov,
    Branch, CallRet, PushPop,
    VecMove, VecAlu, VecMul, VecDiv, Fma,
    Fence, Serialize, CounterRead, System, Nop, Magic,
};

/** Static properties of an opcode. */
struct OpcodeInfo
{
    const char *mnemonic;
    InstrClass cls;
    bool readsFlags;
    bool writesFlags;
    bool privileged;
    /** Fully serializing (CPUID-style). */
    bool serializing;
    /** Dispatch-serializing like LFENCE (waits for older, blocks newer). */
    bool dispatchFence;
    std::vector<Reg> implicitReads;
    std::vector<Reg> implicitWrites;
};

/** Look up the static properties of an opcode. */
const OpcodeInfo &opcodeInfo(Opcode op);

/** Parse a mnemonic (case-insensitive); Invalid count if unknown. */
Opcode parseMnemonic(std::string_view mnemonic, bool *ok);

/** A decoded/assembled instruction. */
struct Instruction
{
    Opcode opcode = Opcode::NOP;
    std::vector<Operand> operands;

    /** Branch target: index into the instruction sequence; -1 if none or
     *  unresolved. The assembler resolves labels to indices. */
    std::int32_t targetIdx = -1;
    /** Unresolved label name (assembler-internal). */
    std::string label;

    bool operator==(const Instruction &other) const
    {
        return opcode == other.opcode && operands == other.operands &&
               targetIdx == other.targetIdx;
    }

    const OpcodeInfo &info() const { return opcodeInfo(opcode); }

    bool isBranch() const;
    bool isCondBranch() const;
    /** True if any operand (or implicit behaviour) loads from memory. */
    bool isLoad() const;
    /** True if any operand (or implicit behaviour) stores to memory. */
    bool isStore() const;

    /** Does this instruction read its destination operand (operand 0)?
     *  False for pure writers (MOV, LEA, SETcc, POPCNT, ...). */
    bool destIsRead() const;
    /** Zero idiom: XOR/SUB/PXOR of a register with itself breaks the
     *  dependency on the old value (as on real Intel/AMD cores). */
    bool isZeroIdiom() const;

    /** Memory operand, if any (at most one in this subset). */
    const Operand *memOperand() const;

    /**
     * Instruction-form signature, e.g. "ADD_R64_R64" or "MOV_R64_M64";
     * used to key per-microarchitecture timing tables.
     */
    std::string formSignature() const;

    /** Intel-syntax rendering. */
    std::string toString() const;
};

/** Render a whole instruction sequence, "; "-separated. */
std::string toString(const std::vector<Instruction> &code);

// Instruction builders: the one vocabulary the code generator and
// every planner spell generated instructions in.

/** An instruction from its opcode and operands. */
inline Instruction
ins(Opcode op, std::vector<Operand> operands = {})
{
    Instruction insn;
    insn.opcode = op;
    insn.operands = std::move(operands);
    return insn;
}

/** A register operand of @p width_bits. */
inline Operand
reg(Reg r, unsigned width_bits = 64)
{
    return Operand::makeReg(r, width_bits);
}

/** An immediate operand. */
inline Operand
imm(std::int64_t value)
{
    return Operand::makeImm(value);
}

/** A memory operand [base + disp]. */
inline Operand
memAt(Reg base, std::int64_t disp = 0, unsigned width_bits = 64)
{
    MemRef m;
    m.base = base;
    m.disp = disp;
    return Operand::makeMem(m, width_bits);
}

/** A memory operand at an absolute address, [addr]. */
inline Operand
memAbs(Addr addr, unsigned width_bits = 64)
{
    MemRef m;
    m.disp = static_cast<std::int64_t>(addr);
    return Operand::makeMem(m, width_bits);
}

} // namespace nb::x86

#endif // NB_X86_INSTRUCTION_HH
