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

/** Append a register to a pool slice, skipping duplicates (readiness
 *  is a max over the slice, so duplicates are redundant work). */
void
addReg(std::vector<Reg> &pool, std::uint32_t begin, Reg r)
{
    for (std::size_t i = begin; i < pool.size(); ++i) {
        if (pool[i] == r)
            return;
    }
    pool.push_back(r);
}

/** Handler class of an opcode (one computed-goto label per class in
 *  the threaded executor; opcodes sharing a reference-switch body
 *  share a class). */
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
 *  panic, as the reference's register accessors do. */
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

/** Fill the (default-constructed) executor plan of one decoded
 *  entry. */
void
fillPlan(EntryPlan &plan, const Instruction &insn, const DecodedInsn &d,
         const uarch::PortMask *uop_ports, const Reg *reg_pool)
{
    plan.cls = opcodeClass(insn.opcode);

    // Readiness slots. The pools hold no duplicates; a zero idiom has
    // no sources, and a flags reader waits on kFlagsSlot.
    unsigned n_src = 0;
    auto add_src = [&](std::uint8_t slot) {
        if (n_src == kPlanSrcSlots)
            panic("too many source registers for an EntryPlan: ",
                  insn.toString());
        plan.src[n_src++] = slot;
    };
    if (!d.zeroIdiom) {
        for (unsigned i = 0; i < d.srcCount; ++i)
            add_src(static_cast<std::uint8_t>(reg_pool[d.srcBegin + i]));
        if (d.readsFlags)
            add_src(kFlagsSlot);
    }
    if (d.addrCount > kPlanAddrSlots)
        panic("too many address registers for an EntryPlan: ",
              insn.toString());
    for (unsigned i = 0; i < d.addrCount; ++i)
        plan.addr[i] = static_cast<std::uint8_t>(reg_pool[d.addrBegin + i]);

    if (d.uopCount > kPlanCoreUops)
        panic("too many core µops for an EntryPlan: ", insn.toString());
    plan.nCore = static_cast<std::uint8_t>(d.uopCount);
    for (unsigned i = 0; i < d.uopCount; ++i)
        plan.core[i] = uop_ports[i];
    plan.nIssue = d.nIssueUops;
    plan.latency = d.latency;
    plan.blockCycles = d.blockCycles;
    plan.target = d.target;

    std::uint16_t flags = 0;
    if (d.memOpIdx >= 0)
        flags |= planflag::kHasMem;
    if (d.doLoadUop)
        flags |= planflag::kDoLoadUop;
    if (d.doStoreUop)
        flags |= planflag::kDoStoreUop;
    if (d.hasLoad)
        flags |= planflag::kHasLoad;
    if (d.hasStore)
        flags |= planflag::kStoreUops;
    if (d.isBranch)
        flags |= planflag::kIsBranch;
    if (insn.opcode == Opcode::JMP || insn.opcode == Opcode::CALL ||
        insn.opcode == Opcode::RET)
        flags |= planflag::kUncondBranch;
    if (d.targetAbsolute)
        flags |= planflag::kTargetAbsolute;
    if (d.privileged)
        flags |= planflag::kPrivileged;
    plan.flags = flags;

    if (!hasPrologue(plan.cls))
        plan.shape = PlanShape::Serial;
    else if (d.nIssueUops == 1 && d.uopCount == 1 && d.memOpIdx < 0 &&
             !d.hasLoad && !d.hasStore && !d.isBranch && !d.privileged)
        plan.shape = PlanShape::Simple;
    else
        plan.shape = PlanShape::General;

    plan.opcode = insn.opcode;
    plan.nOps = static_cast<std::uint8_t>(
        std::min<std::size_t>(insn.operands.size(), kPlanOperands));
    for (unsigned i = 0; i < plan.nOps; ++i)
        plan.ops[i] =
            planOperand(insn.operands[i], isVectorClass(plan.cls));
    plan.opWidth = d.opWidth;
    plan.mask = widthMask(d.opWidth);
    plan.sign = d.opWidth <= 64 ? signBit(d.opWidth) : 0;
    if (d.memOpIdx >= 0) {
        const Operand &mem_op = insn.operands[d.memOpIdx];
        plan.mem = mem_op.mem;
        plan.memWidth = static_cast<std::uint16_t>(mem_op.widthBits);
    }
}

} // namespace

Program
Program::decode(const uarch::MicroArch &ua, std::vector<Segment> segments)
{
    Program prog;
    const uarch::PortFamily family = ua.family;

    // Size the per-entry arrays once; the instructions themselves are
    // moved in (each copy would reallocate its operand vector).
    std::size_t n_entries = 0;
    for (const auto &seg : segments) {
        if (seg.repeat != 0)
            n_entries += seg.code.size();
    }
    prog.insns_.reserve(n_entries);
    prog.entries_.reserve(n_entries);
    prog.plans_.reserve(n_entries);

    for (auto &seg : segments) {
        if (seg.repeat == 0 || seg.code.empty())
            continue;

        Block block;
        block.entryBegin = static_cast<std::uint32_t>(
            prog.entries_.size());
        block.entryCount = static_cast<std::uint32_t>(seg.code.size());
        block.repeat = seg.repeat;
        block.firstVirtual = prog.virtualSize_;

        for (Instruction &insn : seg.code) {
            const x86::OpcodeInfo &info = insn.info();
            if (!uarch::supportsOpcode(family, insn.opcode)) {
                fatal("invalid opcode: ", info.mnemonic,
                      " is not supported on ", ua.name);
            }

            DecodedInsn d;
            d.insnIdx = static_cast<std::uint32_t>(prog.insns_.size());
            d.target = insn.targetIdx;
            d.targetAbsolute = seg.absoluteTargets;
            d.privileged = info.privileged;
            d.readsFlags = info.readsFlags;
            d.writesFlags = info.writesFlags;
            d.isBranch = insn.isBranch();
            d.zeroIdiom = insn.isZeroIdiom();
            d.hasLoad = insn.isLoad();
            d.hasStore = insn.isStore();
            d.opWidth = static_cast<std::uint16_t>(
                insn.operands.empty() ? 64
                                      : insn.operands[0].widthBits);

            // Memory operand position (at most one in this subset).
            for (std::size_t i = 0; i < insn.operands.size(); ++i) {
                if (insn.operands[i].kind == OperandKind::Memory) {
                    d.memOpIdx = static_cast<std::int8_t>(i);
                    break;
                }
            }

            // Resolved core timing + µop port pool slice.
            uarch::CoreTiming timing = uarch::coreTiming(family, insn);
            d.latency = static_cast<std::uint16_t>(timing.latency);
            d.blockCycles =
                static_cast<std::uint16_t>(timing.blockCycles);
            d.uopBegin = static_cast<std::uint32_t>(
                prog.portPool_.size());
            d.uopCount = static_cast<std::uint16_t>(
                timing.uopPorts.size());
            prog.portPool_.insert(prog.portPool_.end(),
                                  timing.uopPorts.begin(),
                                  timing.uopPorts.end());

            // Memory µop decomposition (mirrors the executor's
            // special cases for stack/prefetch opcodes, which handle
            // their memory traffic inline).
            d.doLoadUop = d.hasLoad && insn.opcode != Opcode::POP &&
                          insn.opcode != Opcode::RET &&
                          insn.opcode != Opcode::PREFETCHT0 &&
                          insn.opcode != Opcode::PREFETCHNTA;
            d.doStoreUop = d.hasStore && insn.opcode != Opcode::PUSH &&
                           insn.opcode != Opcode::CALL;

            unsigned n_uops = static_cast<unsigned>(d.uopCount) +
                              (d.hasLoad ? 1u : 0u) +
                              (d.hasStore ? 2u : 0u);
            d.nIssueUops = static_cast<std::uint8_t>(
                std::max(1u, n_uops));

            // Source-readiness registers: explicit register operands
            // that are read (a destination counts only when the
            // instruction reads it), plus the implicit reads. A zero
            // idiom reads nothing.
            d.srcBegin = static_cast<std::uint32_t>(
                prog.regPool_.size());
            if (!d.zeroIdiom) {
                for (std::size_t i = 0; i < insn.operands.size(); ++i) {
                    const Operand &op = insn.operands[i];
                    if (op.kind != OperandKind::Register)
                        continue;
                    bool is_dest = i == 0 &&
                                   insn.opcode != Opcode::CMP &&
                                   insn.opcode != Opcode::TEST &&
                                   insn.opcode != Opcode::BT &&
                                   insn.opcode != Opcode::PUSH;
                    if (!is_dest || insn.destIsRead())
                        addReg(prog.regPool_, d.srcBegin, op.reg);
                }
                for (Reg r : info.implicitReads)
                    addReg(prog.regPool_, d.srcBegin, r);
            }
            d.srcCount = static_cast<std::uint16_t>(
                prog.regPool_.size() - d.srcBegin);

            // Address-readiness registers: base/index of the memory
            // operand; the stack opcodes also wait on RSP.
            d.addrBegin = static_cast<std::uint32_t>(
                prog.regPool_.size());
            if (d.memOpIdx >= 0) {
                const x86::MemRef &mem =
                    insn.operands[d.memOpIdx].mem;
                if (mem.base != Reg::Invalid)
                    addReg(prog.regPool_, d.addrBegin, mem.base);
                if (mem.index != Reg::Invalid)
                    addReg(prog.regPool_, d.addrBegin, mem.index);
            }
            if (insn.opcode == Opcode::PUSH ||
                insn.opcode == Opcode::POP ||
                insn.opcode == Opcode::CALL ||
                insn.opcode == Opcode::RET) {
                addReg(prog.regPool_, d.addrBegin, Reg::RSP);
            }
            d.addrCount = static_cast<std::uint16_t>(
                prog.regPool_.size() - d.addrBegin);

            // Definition set (consumed by the static analyzer; the
            // executor keys readiness on the slices above): the
            // written explicit destination(s) plus the implicit
            // writes. The one-operand multiply/divide group takes a
            // pure source operand and writes RDX:RAX instead --
            // MUL/DIV carry that in OpcodeInfo, one-operand IMUL
            // does not, so it is spelled out here.
            d.dstBegin = static_cast<std::uint32_t>(
                prog.regPool_.size());
            bool one_op_imul = insn.opcode == Opcode::IMUL &&
                               insn.operands.size() == 1;
            bool dest_written =
                !insn.operands.empty() &&
                insn.operands[0].kind == OperandKind::Register &&
                insn.opcode != Opcode::CMP &&
                insn.opcode != Opcode::TEST &&
                insn.opcode != Opcode::BT &&
                insn.opcode != Opcode::PUSH &&
                insn.opcode != Opcode::MUL &&
                insn.opcode != Opcode::DIV &&
                insn.opcode != Opcode::IDIV && !one_op_imul;
            if (dest_written)
                addReg(prog.regPool_, d.dstBegin, insn.operands[0].reg);
            if (insn.opcode == Opcode::XCHG &&
                insn.operands.size() > 1 &&
                insn.operands[1].kind == OperandKind::Register) {
                addReg(prog.regPool_, d.dstBegin, insn.operands[1].reg);
            }
            for (Reg r : info.implicitWrites)
                addReg(prog.regPool_, d.dstBegin, r);
            if (one_op_imul) {
                addReg(prog.regPool_, d.dstBegin, Reg::RAX);
                addReg(prog.regPool_, d.dstBegin, Reg::RDX);
            }
            d.dstCount = static_cast<std::uint16_t>(
                prog.regPool_.size() - d.dstBegin);

            prog.entries_.push_back(d);

            fillPlan(prog.plans_.emplace_back(), insn, d,
                     prog.portPool_.data() + d.uopBegin,
                     prog.regPool_.data());
            prog.insns_.push_back(std::move(insn));
        }

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
            for (std::uint32_t i = 0; i < block.entryCount; ++i) {
                const DecodedInsn &d = entries_[block.entryBegin + i];
                Instruction insn = insns_[d.insnIdx];
                if (insn.targetIdx >= 0 && !d.targetAbsolute) {
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
