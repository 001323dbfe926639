/**
 * @file
 * Code-generator implementation.
 */

#include "codegen.hh"

#include "common/logging.hh"
#include "sim/pmu.hh"

namespace nb::core
{

using x86::imm;
using x86::ins;
using x86::Instruction;
using x86::memAbs;
using x86::Opcode;
using x86::Reg;
using x86::reg;

SerializeMode
parseSerializeMode(const std::string &name)
{
    if (name == "none")
        return SerializeMode::None;
    if (name == "cpuid")
        return SerializeMode::Cpuid;
    if (name == "lfence")
        return SerializeMode::Lfence;
    fatal("unknown serialize mode '", name,
          "' (expected none, cpuid, or lfence)");
}

const std::vector<Reg> &
noMemAccumulators()
{
    static const std::vector<Reg> regs = {Reg::R8,  Reg::R9,  Reg::R10,
                                          Reg::R11, Reg::R12, Reg::R13};
    return regs;
}

unsigned
maxNoMemReadouts()
{
    return static_cast<unsigned>(noMemAccumulators().size());
}

namespace
{

void
emitFence(std::vector<Instruction> &out, SerializeMode mode)
{
    switch (mode) {
      case SerializeMode::None:
        break;
      case SerializeMode::Cpuid:
        // Setting RAX to a fixed value first reduces (but does not
        // eliminate) CPUID's variance (§IV-A1 / Paoloni).
        out.push_back(ins(Opcode::MOV, {reg(Reg::RAX), imm(0)}));
        out.push_back(ins(Opcode::CPUID));
        break;
      case SerializeMode::Lfence:
        out.push_back(ins(Opcode::LFENCE));
        break;
    }
}

/** Emit "read counter into RAX" for one readout item. */
void
emitReadValue(std::vector<Instruction> &out, const ReadoutItem &item)
{
    std::uint64_t index = item.index;
    Opcode read_op = Opcode::RDPMC;
    switch (item.kind) {
      case ReadoutItem::Kind::FixedPmc:
        index |= sim::kRdpmcFixedBase;
        break;
      case ReadoutItem::Kind::ProgPmc:
        break;
      case ReadoutItem::Kind::Msr:
        read_op = Opcode::RDMSR;
        break;
    }
    out.push_back(ins(Opcode::MOV, {reg(Reg::RCX),
                                    imm(static_cast<std::int64_t>(index))}));
    out.push_back(ins(read_op));
    // Combine EDX:EAX into RAX.
    out.push_back(ins(Opcode::SHL, {reg(Reg::RDX), imm(32)}));
    out.push_back(ins(Opcode::OR, {reg(Reg::RAX), reg(Reg::RDX)}));
}

/**
 * Emit a full readout block. In memory mode, values go to the m1/m2
 * slots and RAX/RCX/RDX are spilled/restored around the block so the
 * microbenchmark's registers survive (§III-B). In noMem mode, the first
 * readout subtracts from the accumulators and the second adds, leaving
 * m2-m1 in the accumulator registers (§III-I).
 */
void
emitReadout(std::vector<Instruction> &out, const GenParams &p,
            bool is_second)
{
    emitFence(out, p.serialize);

    if (p.noMem) {
        for (std::size_t i = 0; i < p.readouts.size(); ++i) {
            emitReadValue(out, p.readouts[i]);
            Reg accum = noMemAccumulators()[i];
            out.push_back(ins(is_second ? Opcode::ADD : Opcode::SUB,
                              {reg(accum), reg(Reg::RAX)}));
        }
        emitFence(out, p.serialize);
        return;
    }

    // Spill the registers the readout clobbers.
    Addr spill = p.resultBase + layout::kSpillOffset;
    out.push_back(ins(Opcode::MOV, {memAbs(spill + 0), reg(Reg::RAX)}));
    out.push_back(ins(Opcode::MOV, {memAbs(spill + 8), reg(Reg::RCX)}));
    out.push_back(ins(Opcode::MOV, {memAbs(spill + 16), reg(Reg::RDX)}));

    Addr slot_base = p.resultBase +
                     (is_second ? layout::kM2Offset : layout::kM1Offset);
    for (std::size_t i = 0; i < p.readouts.size(); ++i) {
        emitReadValue(out, p.readouts[i]);
        out.push_back(
            ins(Opcode::MOV, {memAbs(slot_base + 8 * i), reg(Reg::RAX)}));
    }

    // Restore the spilled registers.
    out.push_back(ins(Opcode::MOV, {reg(Reg::RAX), memAbs(spill + 0)}));
    out.push_back(ins(Opcode::MOV, {reg(Reg::RCX), memAbs(spill + 8)}));
    out.push_back(ins(Opcode::MOV, {reg(Reg::RDX), memAbs(spill + 16)}));

    emitFence(out, p.serialize);
}

void
checkGenParams(const GenParams &p)
{
    NB_ASSERT(!p.noMem || p.readouts.size() <= maxNoMemReadouts(),
              "too many readout items for noMem mode (max ",
              maxNoMemReadouts(), ")");
    NB_ASSERT(p.noMem || p.resultBase != 0,
              "memory-mode codegen needs a results area");
}

/** Whether the generated code wraps the body in the R15 loop. */
bool
hasLoop(const GenParams &p)
{
    return p.loopCount > 0 && p.localUnrollCount > 0;
}

/**
 * Everything before the loop-counter setup and the body copies: init
 * (line 3 of Algorithm 1), the noMem accumulator zeroing and the m1
 * readout (line 4).
 */
std::vector<Instruction>
emitPreamble(const GenParams &p)
{
    std::vector<Instruction> out;
    out.insert(out.end(), p.init.begin(), p.init.end());

    // noMem: zero the accumulators before the first read.
    if (p.noMem) {
        for (std::size_t i = 0; i < p.readouts.size(); ++i) {
            Reg accum = noMemAccumulators()[i];
            out.push_back(ins(Opcode::XOR, {reg(accum), reg(accum)}));
        }
    }

    emitReadout(out, p, false);
    return out;
}

/** The loop-counter setup ahead of the first body copy. */
Instruction
emitLoopSetup(const GenParams &p)
{
    return ins(Opcode::MOV,
               {reg(Reg::R15), imm(static_cast<std::int64_t>(p.loopCount))});
}

/** The loop tail: decrement R15, jump back to the first body copy
 *  (the target is an absolute index into the full sequence). */
std::vector<Instruction>
emitLoopTail(std::uint64_t loop_head)
{
    std::vector<Instruction> out;
    out.push_back(ins(Opcode::DEC, {reg(Reg::R15)}));
    Instruction jnz = ins(Opcode::JNZ);
    jnz.targetIdx = static_cast<std::int32_t>(loop_head);
    out.push_back(jnz);
    return out;
}

/** The m2 readout (line 10 of Algorithm 1). */
std::vector<Instruction>
emitPostamble(const GenParams &p)
{
    std::vector<Instruction> out;
    emitReadout(out, p, true);
    return out;
}

} // namespace

std::vector<Instruction>
generateMeasurementCode(const GenParams &p)
{
    checkGenParams(p);

    std::vector<Instruction> out = emitPreamble(p);
    if (hasLoop(p))
        out.push_back(emitLoopSetup(p));

    // Lines 5-9: the (possibly looped) unrolled body. Body-internal
    // branch targets are indices relative to the body start and are
    // relocated for each unrolled copy. localUnrollCount = 0 (basic
    // mode): no instructions at all between the two readouts, not
    // even the loop (§III-C).
    std::size_t loop_head = out.size();
    for (std::uint64_t u = 0; u < p.localUnrollCount; ++u) {
        std::size_t copy_start = out.size();
        for (const Instruction &insn : p.body) {
            Instruction relocated = insn;
            if (relocated.targetIdx >= 0) {
                relocated.targetIdx += static_cast<std::int32_t>(
                    copy_start);
            }
            out.push_back(std::move(relocated));
        }
    }
    if (hasLoop(p)) {
        auto tail = emitLoopTail(loop_head);
        out.insert(out.end(), tail.begin(), tail.end());
    }

    auto post = emitPostamble(p);
    out.insert(out.end(), post.begin(), post.end());
    return out;
}

MeasurementLayout
buildMeasurementLayout(const GenParams &p)
{
    checkGenParams(p);

    MeasurementLayout layout;
    layout.loop = p.loopCount > 0;
    std::vector<sim::Program::Segment> &segments = layout.segments;
    segments.reserve(5);

    segments.emplace_back().code = emitPreamble(p);
    std::uint64_t loop_head = segments.back().code.size();
    if (layout.loop) {
        segments.emplace_back().code = {emitLoopSetup(p)};
        ++loop_head;
    }

    // The whole point: the body is decoded once and repeated, instead
    // of being copied localUnrollCount times. Body-internal branch
    // targets stay pattern-relative; the executor rebases them per
    // copy.
    segments.emplace_back().code = p.body;

    if (layout.loop) {
        sim::Program::Segment &tail = segments.emplace_back();
        tail.code = emitLoopTail(loop_head);
        tail.absoluteTargets = true; // back edge into the body block
    }

    segments.emplace_back().code = emitPostamble(p);
    return layout;
}

std::vector<std::uint64_t>
MeasurementLayout::repeatsFor(std::uint64_t u) const
{
    // localUnrollCount = 0 (basic mode): no instructions at all
    // between the two readouts, not even the loop (§III-C).
    const std::uint64_t looped = u > 0 ? 1 : 0;
    if (loop)
        return {1, looped, u, looped, 1};
    return {1, u, 1};
}

std::vector<sim::Program::Segment>
buildMeasurementSegments(const GenParams &p)
{
    MeasurementLayout layout = buildMeasurementLayout(p);
    const std::vector<std::uint64_t> repeats =
        layout.repeatsFor(p.localUnrollCount);
    for (std::size_t i = 0; i < repeats.size(); ++i)
        layout.segments[i].repeat = repeats[i];
    return std::move(layout.segments);
}

sim::Program
buildMeasurementProgram(const GenParams &p, const uarch::MicroArch &ua)
{
    return sim::Program::decode(ua, buildMeasurementSegments(p));
}

} // namespace nb::core
