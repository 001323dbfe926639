/**
 * @file
 * Program decoder: static-fact extraction, done once per static
 * instruction instead of once per dynamic instruction.
 */

#include "program.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/arch_state.hh"
#include "sim/semantics.hh"

namespace nb::sim
{

using x86::Instruction;
using x86::Opcode;
using x86::Operand;
using x86::OperandKind;
using x86::Reg;

namespace
{

/** Append a slot to a kIdleSlot-padded EntryPlan list, skipping
 *  duplicates (readiness is a max over the list, so duplicates are
 *  redundant work). */
template <std::size_t N>
void
addSlot(std::uint8_t (&list)[N], std::uint8_t slot, const char *what,
        const Instruction &insn)
{
    for (std::uint8_t &s : list) {
        if (s == slot)
            return;
        if (s == kIdleSlot) {
            s = slot;
            return;
        }
    }
    panic("too many ", what, " registers for an EntryPlan: ",
          insn.toString());
}

template <std::size_t N>
void
addSlot(std::uint8_t (&list)[N], Reg r, const char *what,
        const Instruction &insn)
{
    addSlot(list, slotOf(r), what, insn);
}

/** Handler class of an opcode (one computed-goto label per class in
 *  the executor; opcodes sharing a handler share a class). */
OpClass
opcodeClass(Opcode op)
{
    switch (op) {
      case Opcode::NOP:
      case Opcode::PAUSE:
        return OpClass::Nop;
      case Opcode::MOV:
      case Opcode::MOVNTI:
      case Opcode::MOVZX:
        return OpClass::Mov;
      case Opcode::MOVSX:
        return OpClass::Movsx;
      case Opcode::LEA:
        return OpClass::Lea;
      case Opcode::XCHG:
        return OpClass::Xchg;
      case Opcode::BSWAP:
        return OpClass::Bswap;
      case Opcode::CMOVZ:
      case Opcode::CMOVNZ:
      case Opcode::CMOVC:
      case Opcode::CMOVNC:
        return OpClass::Cmov;
      case Opcode::ADD:
      case Opcode::ADC:
        return OpClass::AddAdc;
      case Opcode::SUB:
      case Opcode::SBB:
      case Opcode::CMP:
        return OpClass::SubSbbCmp;
      case Opcode::AND:
      case Opcode::OR:
      case Opcode::XOR:
      case Opcode::TEST:
        return OpClass::Logic;
      case Opcode::INC:
      case Opcode::DEC:
        return OpClass::IncDec;
      case Opcode::NEG:
        return OpClass::Neg;
      case Opcode::NOT:
        return OpClass::Not;
      case Opcode::IMUL:
        return OpClass::Imul;
      case Opcode::MUL:
        return OpClass::Mul;
      case Opcode::DIV:
      case Opcode::IDIV:
        return OpClass::Div;
      case Opcode::SHL:
      case Opcode::SHR:
      case Opcode::SAR:
      case Opcode::ROL:
      case Opcode::ROR:
        return OpClass::Shift;
      case Opcode::POPCNT:
        return OpClass::Popcnt;
      case Opcode::LZCNT:
        return OpClass::Lzcnt;
      case Opcode::TZCNT:
        return OpClass::Tzcnt;
      case Opcode::BSF:
      case Opcode::BSR:
        return OpClass::Bitscan;
      case Opcode::BT:
      case Opcode::BTS:
      case Opcode::BTR:
        return OpClass::BitTest;
      case Opcode::SETZ:
        return OpClass::Setz;
      case Opcode::SETNZ:
        return OpClass::Setnz;
      case Opcode::JMP:
        return OpClass::Jmp;
      case Opcode::JZ:
      case Opcode::JNZ:
      case Opcode::JC:
      case Opcode::JNC:
      case Opcode::JL:
      case Opcode::JGE:
      case Opcode::JLE:
      case Opcode::JG:
        return OpClass::Jcc;
      case Opcode::CALL:
        return OpClass::Call;
      case Opcode::RET:
        return OpClass::Ret;
      case Opcode::PUSH:
        return OpClass::Push;
      case Opcode::POP:
        return OpClass::Pop;
      case Opcode::MOVAPS:
      case Opcode::MOVUPS:
        return OpClass::MovVec;
      case Opcode::PXOR:
        return OpClass::Pxor;
      case Opcode::PADDD:
        return OpClass::Paddd;
      case Opcode::ADDPS:
        return OpClass::Addps;
      case Opcode::MULPS:
        return OpClass::Mulps;
      case Opcode::DIVPS:
        return OpClass::Divps;
      case Opcode::ADDPD:
        return OpClass::Addpd;
      case Opcode::MULPD:
        return OpClass::Mulpd;
      case Opcode::DIVPD:
        return OpClass::Divpd;
      case Opcode::VADDPS:
        return OpClass::Vaddps;
      case Opcode::VMULPS:
        return OpClass::Vmulps;
      case Opcode::VFMADD231PS:
        return OpClass::Vfma;
      case Opcode::RDTSC:
        return OpClass::Rdtsc;
      case Opcode::RDPMC:
        return OpClass::Rdpmc;
      case Opcode::RDMSR:
        return OpClass::Rdmsr;
      case Opcode::WRMSR:
        return OpClass::Wrmsr;
      case Opcode::WBINVD:
        return OpClass::Wbinvd;
      case Opcode::CLFLUSH:
        return OpClass::Clflush;
      case Opcode::PREFETCHT0:
      case Opcode::PREFETCHNTA:
        return OpClass::Prefetch;
      case Opcode::CLI:
        return OpClass::Cli;
      case Opcode::STI:
        return OpClass::Sti;
      case Opcode::PFC_PAUSE:
      case Opcode::PFC_RESUME:
        return OpClass::PfcMarker;
      case Opcode::LFENCE:
      case Opcode::MFENCE:
        return OpClass::Fence;
      case Opcode::SFENCE:
        return OpClass::SFence;
      case Opcode::CPUID:
        return OpClass::Cpuid;
      default:
        return OpClass::Unhandled;
    }
}

/** Whether the handler of @p c reads and writes vector registers. */
bool
isVectorClass(OpClass c)
{
    return c >= OpClass::MovVec && c <= OpClass::Vfma;
}

/** A predecoded operand (see PlanOperand). A register of the wrong
 *  file for its handler (a vector register in a scalar handler, or the
 *  reverse) decodes to kind None, which the executor rejects with a
 *  panic. */
PlanOperand
planOperand(const Operand &op, bool vector_class)
{
    PlanOperand p;
    p.kind = op.kind;
    p.width = static_cast<std::uint16_t>(op.widthBits);
    p.mask = widthMask(op.widthBits);
    if (op.kind == OperandKind::Register &&
        (vector_class ? !x86::isVec(op.reg) : !x86::isGpr(op.reg)))
        p.kind = OperandKind::None;
    if (p.kind == OperandKind::Register) {
        p.reg = static_cast<std::uint8_t>(op.reg);
        p.aux = op.widthBits >= 32 ? 0 : ~p.mask;
    } else if (op.kind == OperandKind::Immediate) {
        p.aux = static_cast<std::uint64_t>(op.imm) & p.mask;
    }
    return p;
}

/** Fill the (default-constructed) plan of one entry. */
void
fillPlan(EntryPlan &plan, const Instruction &insn, uarch::PortFamily family,
         bool absolute_targets)
{
    const x86::OpcodeInfo &info = insn.info();
    const Opcode opcode = insn.opcode;
    plan.cls = opcodeClass(opcode);
    plan.opcode = opcode;
    plan.target = insn.targetIdx;

    // The memory operand (at most one in this subset).
    const Operand *mem_op = insn.memOperand();
    const bool has_load = insn.isLoad();
    const bool has_store = insn.isStore();
    const bool zero_idiom = insn.isZeroIdiom();

    // Resolved core timing.
    const uarch::CoreTiming timing = uarch::coreTiming(family, insn);
    plan.latency = static_cast<std::uint16_t>(timing.latency);
    plan.blockCycles = static_cast<std::uint16_t>(timing.blockCycles);
    plan.nCore = static_cast<std::uint8_t>(timing.numUops);
    for (unsigned i = 0; i < timing.numUops; ++i)
        plan.core[i] = timing.uopPorts[i];
    plan.nIssue = static_cast<std::uint8_t>(
        std::max(1u, timing.numUops + (has_load ? 1u : 0u) +
                         (has_store ? 2u : 0u)));

    // Source-readiness slots: explicit register operands that are read
    // (a destination counts only when the instruction reads it), the
    // implicit reads, and the flags. A zero idiom reads nothing.
    if (!zero_idiom) {
        for (std::size_t i = 0; i < insn.operands.size(); ++i) {
            const Operand &op = insn.operands[i];
            if (op.kind != OperandKind::Register)
                continue;
            bool is_dest = i == 0 && opcode != Opcode::CMP &&
                           opcode != Opcode::TEST &&
                           opcode != Opcode::BT && opcode != Opcode::PUSH;
            if (!is_dest || insn.destIsRead())
                addSlot(plan.src, op.reg, "source", insn);
        }
        for (Reg r : info.implicitReads)
            addSlot(plan.src, r, "source", insn);
        if (info.readsFlags)
            addSlot(plan.src, kFlagsSlot, "source", insn);
    }

    // Address-readiness slots: base/index of the memory operand; the
    // stack opcodes also wait on RSP.
    if (mem_op) {
        if (mem_op->mem.base != Reg::Invalid)
            addSlot(plan.addr, mem_op->mem.base, "address", insn);
        if (mem_op->mem.index != Reg::Invalid)
            addSlot(plan.addr, mem_op->mem.index, "address", insn);
    }
    if (opcode == Opcode::PUSH || opcode == Opcode::POP ||
        opcode == Opcode::CALL || opcode == Opcode::RET)
        addSlot(plan.addr, Reg::RSP, "address", insn);

    // Written registers (the analyzers' definition set; the executor
    // writes readiness in its semantics): the written explicit
    // destination(s), the implicit writes and the flags. The
    // one-operand multiply/divide group takes a pure source operand
    // and writes RDX:RAX instead -- MUL/DIV carry that in OpcodeInfo,
    // one-operand IMUL does not, so it is spelled out here.
    bool one_op_imul =
        opcode == Opcode::IMUL && insn.operands.size() == 1;
    bool dest_written =
        !insn.operands.empty() &&
        insn.operands[0].kind == OperandKind::Register &&
        opcode != Opcode::CMP && opcode != Opcode::TEST &&
        opcode != Opcode::BT && opcode != Opcode::PUSH &&
        opcode != Opcode::MUL && opcode != Opcode::DIV &&
        opcode != Opcode::IDIV && !one_op_imul;
    if (dest_written)
        addSlot(plan.dst, insn.operands[0].reg, "destination", insn);
    if (opcode == Opcode::XCHG && insn.operands.size() > 1 &&
        insn.operands[1].kind == OperandKind::Register)
        addSlot(plan.dst, insn.operands[1].reg, "destination", insn);
    for (Reg r : info.implicitWrites)
        addSlot(plan.dst, r, "destination", insn);
    if (one_op_imul) {
        addSlot(plan.dst, Reg::RAX, "destination", insn);
        addSlot(plan.dst, Reg::RDX, "destination", insn);
    }
    if (info.writesFlags)
        addSlot(plan.dst, kFlagsSlot, "destination", insn);

    // One-bit facts. The explicit load/store µops leave out the stack
    // and prefetch opcodes, whose handlers do their memory traffic
    // inline.
    std::uint16_t flags = 0;
    if (mem_op)
        flags |= planflag::kHasMem;
    if (has_load && opcode != Opcode::POP && opcode != Opcode::RET &&
        opcode != Opcode::PREFETCHT0 && opcode != Opcode::PREFETCHNTA)
        flags |= planflag::kDoLoadUop;
    if (has_store && opcode != Opcode::PUSH && opcode != Opcode::CALL)
        flags |= planflag::kDoStoreUop;
    if (has_load)
        flags |= planflag::kHasLoad;
    if (has_store)
        flags |= planflag::kStoreUops;
    if (insn.isBranch())
        flags |= planflag::kIsBranch;
    if (opcode == Opcode::JMP || opcode == Opcode::CALL ||
        opcode == Opcode::RET)
        flags |= planflag::kUncondBranch;
    if (absolute_targets)
        flags |= planflag::kTargetAbsolute;
    if (info.privileged)
        flags |= planflag::kPrivileged;
    if (zero_idiom)
        flags |= planflag::kZeroIdiom;
    plan.flags = flags;

    if (!hasPrologue(plan.cls))
        plan.shape = PlanShape::Serial;
    else if (plan.nIssue == 1 && plan.nCore == 1 &&
             !(flags & planflag::kHasMem) &&
             !(flags & planflag::kHasLoad) &&
             !(flags & planflag::kStoreUops) &&
             !(flags & planflag::kIsBranch) &&
             !(flags & planflag::kPrivileged))
        plan.shape = PlanShape::Simple;
    else
        plan.shape = PlanShape::General;

    // Predecoded operands.
    plan.nOps = static_cast<std::uint8_t>(
        std::min<std::size_t>(insn.operands.size(), kPlanOperands));
    for (unsigned i = 0; i < plan.nOps; ++i)
        plan.ops[i] =
            planOperand(insn.operands[i], isVectorClass(plan.cls));
    plan.opWidth = static_cast<std::uint16_t>(
        insn.operands.empty() ? 64 : insn.operands[0].widthBits);
    plan.mask = widthMask(plan.opWidth);
    plan.sign = plan.opWidth <= 64 ? signBit(plan.opWidth) : 0;
    if (mem_op) {
        plan.mem = mem_op->mem;
        plan.memWidth = static_cast<std::uint16_t>(mem_op->widthBits);
    }
}

} // namespace

Program
Program::decode(const uarch::MicroArch &ua, std::vector<Segment> segments)
{
    Program prog;
    auto entries = std::make_shared<Entries>();
    const uarch::PortFamily family = ua.family;

    // Size the per-entry arrays once; the instructions themselves are
    // moved in (each copy would reallocate its operand vector).
    std::size_t n_entries = 0;
    for (const auto &seg : segments) {
        if (seg.repeat != 0)
            n_entries += seg.code.size();
    }
    entries->plans.reserve(n_entries);
    entries->insns.reserve(n_entries);

    for (auto &seg : segments) {
        if (seg.repeat == 0 || seg.code.empty())
            continue;

        Block block;
        block.entryBegin =
            static_cast<std::uint32_t>(entries->plans.size());
        block.entryCount = static_cast<std::uint32_t>(seg.code.size());
        block.repeat = seg.repeat;
        block.firstVirtual = prog.virtualSize_;

        for (Instruction &insn : seg.code) {
            if (!uarch::supportsOpcode(family, insn.opcode)) {
                fatal("invalid opcode: ", insn.info().mnemonic,
                      " is not supported on ", ua.name);
            }
            fillPlan(entries->plans.emplace_back(), insn, family,
                     seg.absoluteTargets);
            entries->insns.push_back(std::move(insn));
        }

        prog.virtualSize_ +=
            static_cast<std::uint64_t>(block.entryCount) * block.repeat;
        prog.blocks_.push_back(block);
    }

    prog.entries_ = std::move(entries);
    return prog;
}

Program
Program::withRepeats(std::span<const std::uint64_t> repeats) const
{
    NB_ASSERT(repeats.size() == blocks_.size(), "withRepeats: ",
              repeats.size(), " counts for ", blocks_.size(), " blocks");
    Program prog;
    prog.entries_ = entries_;
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        if (repeats[i] == 0)
            continue;
        Block block = blocks_[i];
        block.repeat = repeats[i];
        block.firstVirtual = prog.virtualSize_;
        prog.virtualSize_ +=
            static_cast<std::uint64_t>(block.entryCount) * block.repeat;
        prog.blocks_.push_back(block);
    }
    return prog;
}

Program
Program::decode(const uarch::MicroArch &ua,
                std::vector<x86::Instruction> code)
{
    std::vector<Segment> segments(1);
    segments[0].code = std::move(code);
    return decode(ua, std::move(segments));
}

std::vector<Instruction>
Program::materialize() const
{
    std::vector<Instruction> out;
    out.reserve(virtualSize_);
    for (const Block &block : blocks_) {
        for (std::uint64_t iter = 0; iter < block.repeat; ++iter) {
            std::uint64_t copy_base =
                block.firstVirtual + iter * block.entryCount;
            for (std::uint32_t e = block.entryBegin;
                 e < block.entryBegin + block.entryCount; ++e) {
                Instruction insn = entries_->insns[e];
                if (insn.targetIdx >= 0 &&
                    !(entries_->plans[e].flags &
                      planflag::kTargetAbsolute)) {
                    insn.targetIdx = static_cast<std::int32_t>(
                        insn.targetIdx +
                        static_cast<std::int64_t>(copy_base));
                }
                out.push_back(std::move(insn));
            }
        }
    }
    return out;
}

} // namespace nb::sim
