/**
 * @file
 * Predecoded program IR for the simulator hot path.
 *
 * Every static fact about an instruction -- uarch::coreTiming, µop
 * counts, operand classification, zero-idiom and dest-read checks,
 * implicit reads and writes, flag dependencies -- is derived once, at
 * decode time, instead of once per *dynamic* instruction, and an
 * unrolled measurement body is decoded once instead of being copied
 * localUnrollCount times:
 *
 *  - Each static instruction decodes to one fixed-size EntryPlan: the
 *    resolved core timing and core-µop port masks, the readiness slots
 *    it waits on (sources with the flags as kFlagsSlot, address
 *    registers), the registers it writes (flags included), one-bit
 *    facts (load/store µop decomposition, zero idiom, branch,
 *    privileged), the predecoded operands, and a PlanShape saying
 *    which part of the shared per-instruction work it needs. Both
 *    executors, the static analyzer and the bound analyzer read this
 *    one record; uarch::coreTiming is never called on the hot path.
 *    The source instruction is kept alongside, at the same index, for
 *    the reference executor's semantics and for diagnostics.
 *
 *  - A Program is a sequence of *blocks*, each a pattern of entries
 *    executed `repeat` times in a row. An unrolled measurement loop
 *    body is decoded ONCE and iterated localUnrollCount times instead
 *    of being copied localUnrollCount times. Execution happens in a
 *    *virtual* instruction index space identical to the fully
 *    materialized sequence: branch-predictor keys, CALL return
 *    addresses, the RET bounds check, and the front-end footprint
 *    model all see exactly the indices the materialized sequence
 *    would, so predecoding is measurement-invariant by construction
 *    (the golden table/profile gates prove it).
 *
 * Branch targets: an entry's `target` is relative to the start of the
 * current pattern copy unless planflag::kTargetAbsolute is set (used by
 * the measurement loop's back edge, which jumps from the loop-tail
 * block into the repeated body block). The single-segment decode of a
 * plain instruction vector starts at virtual index 0, where relative
 * and absolute targets coincide.
 */

#ifndef NB_SIM_PROGRAM_HH
#define NB_SIM_PROGRAM_HH

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "uarch/timing.hh"
#include "uarch/uarch.hh"
#include "x86/instruction.hh"

namespace nb::sim
{

/**
 * Handler class of a decoded instruction: one value per semantics
 * handler of the threaded executor (sim/dispatch.cc), assigned at
 * decode time so the hot loop dispatches with a single computed goto
 * instead of re-switching on the opcode per dynamic instruction.
 * Opcodes sharing one switch body in the reference executor share one
 * class; the handler disambiguates on the opcode where needed.
 */
enum class OpClass : std::uint8_t
{
    Nop,        ///< NOP, PAUSE
    Mov,        ///< MOV, MOVNTI, MOVZX
    Movsx,
    Lea,
    Xchg,
    Bswap,
    Cmov,       ///< CMOVZ/NZ/C/NC
    AddAdc,     ///< ADD, ADC
    SubSbbCmp,  ///< SUB, SBB, CMP
    Logic,      ///< AND, OR, XOR, TEST
    IncDec,
    Neg,
    Not,
    Imul,
    Mul,
    Div,        ///< DIV, IDIV
    Shift,      ///< SHL, SHR, SAR, ROL, ROR
    Popcnt,
    Lzcnt,
    Tzcnt,
    Bitscan,    ///< BSF, BSR
    BitTest,    ///< BT, BTS, BTR
    Setz,
    Setnz,
    Jmp,
    Jcc,        ///< JZ/NZ/C/NC/L/GE/LE/G
    Call,
    Ret,
    Push,
    Pop,
    MovVec,     ///< MOVAPS, MOVUPS
    Pxor,
    Paddd,
    Addps,
    Mulps,
    Divps,
    Addpd,
    Mulpd,
    Divpd,
    Vaddps,
    Vmulps,
    Vfma,       ///< VFMADD231PS
    Rdtsc,
    Rdpmc,
    Rdmsr,
    Wrmsr,
    Wbinvd,
    Clflush,
    Prefetch,   ///< PREFETCHT0, PREFETCHNTA
    Cli,
    Sti,
    PfcMarker,  ///< PFC_PAUSE, PFC_RESUME (§III-I)
    Fence,      ///< LFENCE, MFENCE
    SFence,
    Cpuid,
    Unhandled,  ///< supported by the uarch, no executor semantics
    NumClasses,
};

inline constexpr std::size_t kNumOpClasses =
    static_cast<std::size_t>(OpClass::NumClasses);

/**
 * The classes whose handlers skip the threaded executor's shared
 * prologue (source/address readiness, issue slots, the load µop, the
 * core µops): the serializing fences and markers, which do their own
 * issue and retire, and Unhandled, which panics. The executor runs the
 * prologue ahead of its computed goto for every other class.
 * tools/check_dispatch_lockstep.py checks this list against the
 * "fences and markers" handlers of sim/dispatch.cc.
 */
inline constexpr OpClass kPrologueFreeClasses[] = {
    OpClass::PfcMarker, OpClass::Fence,     OpClass::SFence,
    OpClass::Cpuid,     OpClass::Unhandled,
};

/** Whether the threaded executor runs the shared prologue for @p c. */
constexpr bool
hasPrologue(OpClass c)
{
    static_assert(kNumOpClasses <= 64, "the mask below is 64 bits");
    constexpr std::uint64_t kFreeMask = [] {
        std::uint64_t mask = 0;
        for (OpClass free : kPrologueFreeClasses)
            mask |= std::uint64_t{1} << static_cast<unsigned>(free);
        return mask;
    }();
    return (kFreeMask >> static_cast<unsigned>(c) & 1) == 0;
}

/** The readiness slot of a register: its Reg value. The slot lists of
 *  an EntryPlan, the Scheduler's readiness array and the analyzers'
 *  per-register state are all indexed by it. */
constexpr std::uint8_t
slotOf(x86::Reg r)
{
    return static_cast<std::uint8_t>(r);
}

/**
 * The readiness slot the executors keep for the status flags (the
 * Scheduler's per-register readiness array has one slot per Reg, and
 * RFLAGS is never an explicit operand of the modelled subset), so a
 * flags dependency is one more entry of a source list.
 */
inline constexpr std::uint8_t kFlagsSlot = slotOf(x86::Reg::RFLAGS);

/** A readiness slot that is never written, so it always reads 0: it
 *  pads the fixed-size slot lists of an EntryPlan, after the used
 *  slots. */
inline constexpr std::uint8_t kIdleSlot =
    static_cast<std::uint8_t>(x86::Reg::NumRegs);

/** Readiness slots the Scheduler keeps: one per Reg, plus kIdleSlot. */
inline constexpr unsigned kNumReadySlots = kIdleSlot + 1u;

/** How the threaded executor runs an entry's timing. */
enum class PlanShape : std::uint8_t
{
    /** One issue slot and one core µop; no memory operand, no branch,
     *  not privileged. The executor runs issue -> dispatch as a
     *  straight line and goes to retirement without the store/branch
     *  epilogue. */
    Simple,
    /** Everything else that runs the shared prologue. */
    General,
    /** kPrologueFreeClasses: the handler issues and retires itself. */
    Serial,
};

/** Bits of EntryPlan::flags (the one-bit facts the General shape, the
 *  rare handlers and the analyzers test). */
namespace planflag
{
inline constexpr std::uint16_t kHasMem = 1u << 0;      ///< memory operand
inline constexpr std::uint16_t kDoLoadUop = 1u << 1;   ///< load µop
inline constexpr std::uint16_t kDoStoreUop = 1u << 2;  ///< store µops + write
inline constexpr std::uint16_t kHasLoad = 1u << 3;     ///< isLoad()
inline constexpr std::uint16_t kStoreUops = 1u << 4;   ///< isStore()
inline constexpr std::uint16_t kIsBranch = 1u << 5;
/** JMP/CALL/RET: predicted as they go (unconditional / return stack). */
inline constexpr std::uint16_t kUncondBranch = 1u << 6;
inline constexpr std::uint16_t kTargetAbsolute = 1u << 7;
inline constexpr std::uint16_t kPrivileged = 1u << 8;
/** Dependency-breaking idiom (xor/sub/pxor of a register with itself):
 *  its src list is empty. */
inline constexpr std::uint16_t kZeroIdiom = 1u << 9;
} // namespace planflag

/** Fixed capacities of an EntryPlan (checked at decode). */
inline constexpr unsigned kPlanSrcSlots = 4;  ///< flags included
inline constexpr unsigned kPlanAddrSlots = 3; ///< base, index, RSP
inline constexpr unsigned kPlanDstSlots = 4;  ///< flags included
inline constexpr unsigned kPlanCoreUops = uarch::kMaxCoreUops;
inline constexpr unsigned kPlanOperands = 3;

/** One predecoded operand of an EntryPlan. */
struct PlanOperand
{
    /** widthMask(width) (all ones for vector widths). */
    std::uint64_t mask = ~std::uint64_t{0};
    /** Immediate: the value, already masked to the width. Register:
     *  the bits a GPR write at this width keeps (the 8/16-bit forms
     *  merge into the old value; 32/64-bit writes keep nothing). */
    std::uint64_t aux = 0;
    x86::OperandKind kind = x86::OperandKind::None;
    std::uint8_t reg = 0; ///< Register kind only
    std::uint16_t width = 64;
};

/**
 * Everything decoded about one entry, in one fixed-size record: the
 * µop plan (readiness slots inline, the flags dependency as
 * kFlagsSlot, zero idioms already stripped of sources, core-µop port
 * masks inline), the registers written, and the predecoded operands of
 * the semantics. Unused list slots hold kIdleSlot / port mask 0, after
 * the used ones. The hot fields come first.
 */
struct EntryPlan
{
    // --- timing
    /** Source readiness: explicit register operands that are read (a
     *  destination only when the instruction reads it), the implicit
     *  reads, and kFlagsSlot for a flags reader; empty for a zero
     *  idiom. No duplicates. */
    std::uint8_t src[kPlanSrcSlots] = {kIdleSlot, kIdleSlot, kIdleSlot,
                                       kIdleSlot};
    /** Address readiness: base/index of the memory operand, RSP for
     *  the stack opcodes. */
    std::uint8_t addr[kPlanAddrSlots] = {kIdleSlot, kIdleSlot, kIdleSlot};
    OpClass cls = OpClass::Unhandled;
    PlanShape shape = PlanShape::General;
    std::uint8_t nIssue = 1;   ///< issue slots
    std::uint8_t nCore = 0;    ///< core µops
    std::uint8_t nOps = 0;     ///< predecoded operands (semantics)
    std::uint16_t flags = 0;   ///< planflag:: bits
    std::uint16_t latency = 1; ///< of the first core µop
    std::uint16_t blockCycles = 0;
    uarch::PortMask core[kPlanCoreUops] = {};
    /** Registers written: the written explicit destination(s), the
     *  implicit writes, and kFlagsSlot for a flags writer. The
     *  executors write readiness in their semantics and ignore it;
     *  the analyzers read it. No duplicates. */
    std::uint8_t dst[kPlanDstSlots] = {kIdleSlot, kIdleSlot, kIdleSlot,
                                       kIdleSlot};
    x86::Opcode opcode = x86::Opcode::NOP;
    /** Branch target (see the file comment); -1 if none. */
    std::int32_t target = -1;

    // --- semantics
    std::uint16_t opWidth = 64; ///< width of operand 0 (64 if none)
    std::uint16_t memWidth = 0; ///< width of the memory operand
    std::uint64_t mask = ~std::uint64_t{0}; ///< widthMask(opWidth)
    std::uint64_t sign = 0;     ///< signBit(opWidth); 0 above 64 bits
    PlanOperand ops[kPlanOperands];
    x86::MemRef mem;            ///< the memory operand's address
};

static_assert(sizeof(EntryPlan) == 144,
              "EntryPlan fields fill its padding; keep it 144 bytes");
static_assert(std::is_trivially_copyable_v<EntryPlan>);

/** The used slots of an EntryPlan slot list (src, addr or dst). */
template <std::size_t N>
constexpr std::span<const std::uint8_t>
usedSlots(const std::uint8_t (&list)[N])
{
    std::size_t n = 0;
    while (n < N && list[n] != kIdleSlot)
        ++n;
    return {list, n};
}

/** Whether an EntryPlan slot list holds @p slot. */
template <std::size_t N>
constexpr bool
hasSlot(const std::uint8_t (&list)[N], std::uint8_t slot)
{
    for (std::uint8_t s : list) {
        if (s == slot)
            return true;
    }
    return false;
}

/**
 * A predecoded, repeat-encoded instruction sequence bound to one
 * microarchitecture family: one EntryPlan and one source instruction
 * per static entry, at the same index, and a list of blocks over them.
 * Programs derived with withRepeats() share their entries (immutable
 * once decoded) and differ only in their blocks. Move-only (the
 * executors hold pointers into its arrays).
 */
class Program
{
  public:
    /** One decode input: a pattern executed `repeat` times in a row.
     *  Branch targets inside `code` are pattern-relative (assembler
     *  output indices) unless `absoluteTargets` marks them as virtual
     *  indices into the whole program. */
    struct Segment
    {
        std::vector<x86::Instruction> code;
        std::uint64_t repeat = 1;
        bool absoluteTargets = false;
    };

    /** One repeat block of the decoded program. */
    struct Block
    {
        std::uint32_t entryBegin = 0; ///< first entry of the pattern
        std::uint32_t entryCount = 0; ///< pattern length
        std::uint64_t repeat = 1;     ///< dynamic copies of the pattern
        std::uint64_t firstVirtual = 0; ///< virtual index of copy 0
    };

    Program() = default;
    Program(Program &&) = default;
    Program &operator=(Program &&) = default;
    Program(const Program &) = delete;
    Program &operator=(const Program &) = delete;

    /**
     * Decode a sequence of segments against a microarchitecture.
     * Segments with repeat == 0 or empty code contribute nothing.
     *
     * @throws nb::FatalError for opcodes the family does not support
     *         (same message the legacy executor produced; raised at
     *         decode time instead of first dynamic execution).
     */
    static Program decode(const uarch::MicroArch &ua,
                          std::vector<Segment> segments);

    /** Decode a plain instruction vector: one block, repeat 1. */
    static Program decode(const uarch::MicroArch &ua,
                          std::vector<x86::Instruction> code);

    /**
     * The same entries run with other repeat counts: @p repeats holds
     * one count per block of this program, and a count of 0 leaves its
     * block out. Nothing is decoded or copied but the block list. An
     * absolute branch target (planflag::kTargetAbsolute) is a virtual
     * index, so the blocks before it must keep their virtual sizes in
     * every program that keeps its block.
     */
    Program withRepeats(std::span<const std::uint64_t> repeats) const;

    /** Dynamic length: total instructions when fully expanded. */
    std::uint64_t virtualSize() const { return virtualSize_; }

    /** Static length: decoded entries across all patterns. */
    std::size_t entryCount() const
    {
        return entries_ ? entries_->plans.size() : 0;
    }

    const std::vector<Block> &blocks() const { return blocks_; }

    /** The decoded record of an entry. */
    const EntryPlan &plan(std::size_t idx) const
    {
        return entries_->plans[idx];
    }
    /** The source instruction of an entry (semantics, diagnostics). */
    const x86::Instruction &insn(std::size_t idx) const
    {
        return entries_->insns[idx];
    }

    /** The arrays behind plan() and insn(), for the executors. */
    const EntryPlan *plans() const
    {
        return entries_ ? entries_->plans.data() : nullptr;
    }
    const x86::Instruction *insnArray() const
    {
        return entries_ ? entries_->insns.data() : nullptr;
    }

    /**
     * Expand back to the materialized instruction vector: patterns
     * copied `repeat` times, relative branch targets relocated to
     * absolute indices. For tests and debugging; the executors never
     * materialize.
     */
    std::vector<x86::Instruction> materialize() const;

  private:
    /** The decoded entries, shared with every withRepeats() program. */
    struct Entries
    {
        std::vector<EntryPlan> plans;
        std::vector<x86::Instruction> insns; ///< same index space
    };

    std::shared_ptr<const Entries> entries_;
    std::vector<Block> blocks_;
    std::uint64_t virtualSize_ = 0;
};

} // namespace nb::sim

#endif // NB_SIM_PROGRAM_HH
