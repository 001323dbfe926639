/**
 * @file
 * Instruction-characterization implementation.
 */

#include "characterize.hh"

#include <iomanip>
#include <sstream>

#include "common/logging.hh"
#include "core/campaign.hh"
#include "uarch/timing.hh"
#include "x86/assembler.hh"

namespace nb::uops
{

using x86::imm;
using x86::ins;
using x86::Instruction;
using x86::memAt;
using x86::MemRef;
using x86::Opcode;
using x86::Operand;
using x86::OperandKind;
using x86::Reg;
using x86::reg;

namespace
{

/** Destination-register pool for throughput benchmarks. */
const std::vector<Reg> kGprPool = {Reg::RAX, Reg::RBX, Reg::RSI,
                                   Reg::RDI, Reg::R8,  Reg::R9,
                                   Reg::R10, Reg::R11, Reg::R12,
                                   Reg::R13};
const std::vector<Reg> kVecPool = {
    Reg::XMM1, Reg::XMM2, Reg::XMM3, Reg::XMM4, Reg::XMM5,
    Reg::XMM6, Reg::XMM7, Reg::XMM8, Reg::XMM9, Reg::XMM10};

/** Independent instances per throughput benchmark iteration. */
constexpr unsigned kTputCopies = 10;

bool
isVecInsn(const Instruction &insn)
{
    for (const auto &op : insn.operands) {
        if (op.kind == OperandKind::Register && x86::isVec(op.reg))
            return true;
    }
    return false;
}

/** Cycles line of a result: the fixed counter, or APERF (§II-A1). */
std::optional<double>
cyclesOf(const core::BenchmarkResult &result, bool has_fixed)
{
    return result.find(has_fixed ? "Core cycles" : "APERF");
}

} // namespace

std::string
VariantResult::portString() const
{
    std::ostringstream os;
    bool first = true;
    for (const auto &[port, usage] : portUsage) {
        if (usage < 0.05)
            continue;
        if (!first)
            os << " ";
        os << "p" << port << ":" << std::fixed << std::setprecision(2)
           << usage;
        first = false;
    }
    return os.str();
}

std::string
Characterizer::tableHeader()
{
    std::ostringstream os;
    os << std::left << std::setw(22) << "Instruction" << std::right
       << std::setw(8) << "Lat" << std::setw(8) << "Tput" << std::setw(7)
       << "Uops"
       << "  Ports";
    return os.str();
}

std::string
VariantResult::tableRow() const
{
    std::ostringstream os;
    os << std::left << std::setw(22) << asmText << std::right;
    if (requiresKernelMode) {
        os << "  (requires kernel mode)";
        return os.str();
    }
    if (!ok()) {
        os << "  (error: " << error << ")";
        return os.str();
    }
    if (latency) {
        os << std::setw(8) << std::fixed << std::setprecision(2)
           << *latency;
    } else {
        os << std::setw(8) << "-";
    }
    os << std::setw(8) << std::fixed << std::setprecision(2)
       << throughput;
    os << std::setw(7) << std::fixed << std::setprecision(2) << uops;
    os << "  " << portString();
    return os.str();
}

Characterizer::Characterizer(core::Runner &runner) : runner_(runner) {}

Characterizer::Characterizer(Session &session)
    : Characterizer(session.runner())
{
}

std::optional<Characterizer::ChainSpec>
Characterizer::buildLatencyChain(const Instruction &insn) const
{
    ChainSpec spec;
    const auto &info = insn.info();
    using IC = x86::InstrClass;

    switch (info.cls) {
      case IC::Branch:
      case IC::CallRet:
      case IC::Fence:
      case IC::Serialize:
      case IC::System:
      case IC::Nop:
      case IC::Magic:
      case IC::CounterRead:
        return std::nullopt;
      default:
        break;
    }

    // Loads: pointer chase through R14 (§III-A example). Pure moves
    // chase the stored pointer; read-modify-write forms instead apply
    // the operation's identity element (0 for ADD/SUB/OR/XOR/ADC/SBB,
    // all-ones for AND) so the pointer register survives the chain.
    if (insn.isLoad() && insn.memOperand()) {
        if (insn.operands.empty() ||
            insn.operands[0].kind != OperandKind::Register ||
            insn.operands[0].widthBits != 64 ||
            !x86::isGpr(insn.operands[0].reg))
            return std::nullopt; // no 64-bit pointer to chase through
        bool pure_move = insn.opcode == Opcode::MOV;
        std::int64_t identity;
        switch (insn.opcode) {
          case Opcode::MOV:
            identity = 0;
            break;
          case Opcode::ADD:
          case Opcode::ADC:
          case Opcode::SUB:
          case Opcode::SBB:
          case Opcode::OR:
          case Opcode::XOR:
            identity = 0;
            break;
          case Opcode::AND:
            identity = -1;
            break;
          default:
            return std::nullopt; // no register result to chain (CMP...)
        }
        Instruction chase = insn;
        chase.operands[0] = reg(Reg::R14);
        for (auto &op : chase.operands) {
            if (op.kind == OperandKind::Memory) {
                op.mem.base = Reg::R14;
                op.mem.index = Reg::Invalid;
                op.mem.disp = 0;
            }
        }
        spec.body = {chase};
        if (pure_move) {
            spec.init = {
                ins(Opcode::MOV, {memAt(Reg::R14), reg(Reg::R14)})};
        } else {
            spec.init = {
                ins(Opcode::MOV, {reg(Reg::RBX), imm(identity)}),
                ins(Opcode::MOV, {memAt(Reg::R14), reg(Reg::RBX)}),
                // Clear CF so ADC/SBB chains do not drift the pointer.
                ins(Opcode::TEST, {reg(Reg::RBX), reg(Reg::RBX)})};
        }
        return spec;
    }
    if (insn.isStore())
        return std::nullopt;

    // CMP/TEST/BT write only flags: tying the operands to one
    // register leaves no result to thread back into the next copy,
    // so the "chain" degenerates to independent instructions and
    // measures throughput. Decline, like the memory forms above.
    if (insn.opcode == Opcode::CMP || insn.opcode == Opcode::TEST ||
        insn.opcode == Opcode::BT)
        return std::nullopt;

    // MUL/DIV chain through the implicit RAX/RDX operands.
    if (insn.opcode == Opcode::MUL || insn.opcode == Opcode::DIV ||
        insn.opcode == Opcode::IDIV ||
        (insn.opcode == Opcode::IMUL && insn.operands.size() == 1)) {
        Instruction op = insn;
        op.operands = {reg(Reg::RBX)};
        spec.body = {op};
        spec.init = {ins(Opcode::MOV, {reg(Reg::RBX), imm(3)}),
                     ins(Opcode::MOV, {reg(Reg::RAX), imm(1000)}),
                     ins(Opcode::XOR, {reg(Reg::RDX), reg(Reg::RDX)})};
        return spec;
    }

    // SETcc: chain through the flags (SETZ -> TEST -> SETZ ...).
    if (info.cls == IC::SetCC) {
        Instruction set = insn;
        set.operands = {reg(Reg::RAX, 8)};
        spec.body = {set, ins(Opcode::TEST, {reg(Reg::RAX, 8),
                                             reg(Reg::RAX, 8)})};
        spec.overheadCycles = 1.0; // the TEST link
        return spec;
    }

    // SUB/XOR/PXOR with identical registers are dependency-breaking
    // zero idioms; chain through a register pair with a MOV link
    // instead. Only relevant for two-register forms.
    unsigned reg_count = 0;
    for (const auto &op : insn.operands)
        reg_count += op.kind == OperandKind::Register ? 1 : 0;
    bool zero_idiom = (insn.opcode == Opcode::SUB ||
                       insn.opcode == Opcode::XOR ||
                       insn.opcode == Opcode::PXOR) &&
                      reg_count >= 2;
    // BSF/BSR leave the destination unwritten for zero inputs; keep
    // the chained value non-zero with an OR link.
    bool bit_scan = insn.opcode == Opcode::BSF ||
                    insn.opcode == Opcode::BSR;

    // Generic register chain: tie the destination and a register
    // source to the same register.
    if (insn.operands.empty() ||
        insn.operands[0].kind != OperandKind::Register)
        return std::nullopt;
    // A plain move from an immediate has no input to thread the chain
    // through -- each copy is independent by design.
    if (insn.opcode == Opcode::MOV && insn.operands.size() == 2 &&
        insn.operands[1].kind == OperandKind::Immediate)
        return std::nullopt;
    bool vec = x86::isVec(insn.operands[0].reg);
    Reg chain_reg = vec ? Reg::XMM1 : Reg::RAX;
    Reg alt_reg = vec ? Reg::XMM2 : Reg::RBX;
    Instruction chained = insn;
    bool first = true;
    for (auto &op : chained.operands) {
        if (op.kind != OperandKind::Register)
            continue;
        if (zero_idiom && !first) {
            op.reg = alt_reg;
        } else {
            op.reg = chain_reg;
        }
        first = false;
    }
    spec.body = {chained};
    if (zero_idiom) {
        // Feed the result back through the second register.
        spec.body.push_back(
            vec ? ins(Opcode::MOVAPS, {reg(alt_reg, 128), reg(chain_reg, 128)})
                : ins(Opcode::MOV, {reg(alt_reg), reg(chain_reg)}));
        spec.overheadCycles = 1.0;
    } else if (bit_scan) {
        spec.body.push_back(ins(Opcode::OR, {reg(chain_reg), imm(2)}));
        spec.overheadCycles = 1.0;
    }
    if (!vec) {
        spec.init = {ins(Opcode::MOV, {reg(Reg::RAX), imm(2)}),
                     ins(Opcode::MOV, {reg(Reg::RBX), imm(2)})};
    }
    return spec;
}

Characterizer::ChainSpec
Characterizer::buildThroughputBench(const Instruction &insn,
                                    unsigned copies) const
{
    ChainSpec spec;
    const auto &pool = isVecInsn(insn) ? kVecPool : kGprPool;
    Reg shared_src = isVecInsn(insn) ? Reg::XMM0 : Reg::RBP;

    // DIV needs explicit dependency breaking (uops.info does the same).
    if (insn.opcode == Opcode::DIV || insn.opcode == Opcode::IDIV ||
        insn.opcode == Opcode::MUL ||
        (insn.opcode == Opcode::IMUL && insn.operands.size() == 1)) {
        for (unsigned c = 0; c < copies; ++c) {
            unsigned w = insn.operands.empty()
                             ? 64
                             : insn.operands[0].widthBits;
            spec.body.push_back(
                ins(Opcode::MOV, {reg(Reg::RAX), imm(1000)}));
            spec.body.push_back(
                ins(Opcode::XOR, {reg(Reg::RDX), reg(Reg::RDX)}));
            Instruction op = insn;
            op.operands = {reg(Reg::RBX, w)};
            spec.body.push_back(op);
        }
        spec.init = {ins(Opcode::MOV, {reg(Reg::RBX), imm(3)})};
        return spec;
    }

    // Counter-reading instructions take the counter index in RCX; point
    // them at a harmless source (APERF / fixed counter 0).
    if (insn.opcode == Opcode::RDMSR) {
        spec.init.push_back(
            ins(Opcode::MOV, {reg(Reg::RCX), imm(0xE8)})); // APERF
    } else if (insn.opcode == Opcode::RDPMC) {
        spec.init.push_back(ins(
            Opcode::MOV,
            {reg(Reg::RCX), imm(static_cast<std::int64_t>(
                                sim::kRdpmcFixedBase))}));
    }

    for (unsigned c = 0; c < copies; ++c) {
        Instruction copy = insn;
        bool first_reg = true;
        for (auto &op : copy.operands) {
            if (op.kind == OperandKind::Register) {
                if (first_reg) {
                    op.reg = pool[c % pool.size()];
                    first_reg = false;
                } else {
                    op.reg = shared_src;
                }
            } else if (op.kind == OperandKind::Memory &&
                       op.mem.base != Reg::Invalid) {
                op.mem.base = Reg::R14;
                op.mem.disp = static_cast<std::int64_t>(c) * 64;
            }
        }
        spec.body.push_back(copy);
    }
    spec.linksPerIteration = copies;
    return spec;
}

CharacterizationPlan
Characterizer::plan(const std::vector<Instruction> &variants) const
{
    CharacterizationPlan out;
    out.catalog = variants;
    out.rows.resize(variants.size());
    out.hasFixedCounters = runner_.machine().pmu().hasFixed();
    out.numPorts =
        std::min(runner_.machine().uarch().ports().numPorts, 8u);

    // Port-dispatch and µop events of every throughput spec.
    core::CounterConfig tput_config;
    for (unsigned p = 0; p < out.numPorts; ++p)
        tput_config.add("UOPS_DISPATCHED_PORT.PORT_" + std::to_string(p));
    tput_config.add("UOPS_EXECUTED.THREAD");

    for (std::size_t v = 0; v < variants.size(); ++v) {
        const Instruction &insn = variants[v];
        VariantResult &row = out.rows[v];
        row.signature = insn.formSignature();
        row.asmText = insn.toString();

        if (insn.info().privileged &&
            runner_.mode() != core::Mode::Kernel) {
            // The key nanoBench capability (§III-D): only the
            // kernel-space version can benchmark these at all.
            row.requiresKernelMode = true;
            continue;
        }

        // ---------------- latency ----------------
        if (auto chain = buildLatencyChain(insn)) {
            PlannedSpec planned;
            planned.spec.code = chain->body;
            planned.spec.init = chain->init;
            planned.spec.unrollCount = 50;
            planned.spec.nMeasurements = 5;
            planned.spec.warmUpCount = 2;
            planned.spec.agg = Aggregate::Median;
            planned.spec.aperfMperf = !out.hasFixedCounters;
            planned.role = PlannedSpec::Role::Latency;
            planned.variant = v;
            planned.overheadCycles = chain->overheadCycles;
            planned.linksPerIteration = chain->linksPerIteration;
            out.specs.push_back(std::move(planned));
        }

        // ---------------- throughput and ports ----------------
        auto tput = buildThroughputBench(insn, kTputCopies);
        PlannedSpec planned;
        planned.role = PlannedSpec::Role::Throughput;
        planned.spec.code = tput.body;
        planned.spec.init = tput.init;
        planned.spec.unrollCount = 20;
        planned.spec.nMeasurements = 5;
        planned.spec.warmUpCount = 3;
        planned.spec.agg = Aggregate::Median;
        planned.spec.aperfMperf = !out.hasFixedCounters;
        planned.spec.config = tput_config;
        planned.variant = v;
        planned.copies = kTputCopies;
        // DIV-style benchmarks carry 2 dependency-breaking extra
        // instructions per copy; decode() subtracts their µops/ports.
        planned.depBroken = tput.body.size() == 3 * kTputCopies;
        out.specs.push_back(std::move(planned));
    }
    return out;
}

CharacterizationPlan
Characterizer::plan() const
{
    return plan(variantCatalog());
}

std::vector<core::BenchmarkSpec>
Characterizer::planSpecs(const CharacterizationPlan &plan)
{
    std::vector<core::BenchmarkSpec> specs;
    specs.reserve(plan.specs.size());
    for (const auto &planned : plan.specs)
        specs.push_back(planned.spec);
    return specs;
}

std::vector<VariantResult>
Characterizer::decode(const CharacterizationPlan &plan,
                      std::span<const RunOutcome> outcomes)
{
    NB_ASSERT(outcomes.size() == plan.specs.size(),
              "decode: got ", outcomes.size(), " outcomes for ",
              plan.specs.size(), " planned specs");

    std::vector<VariantResult> rows = plan.rows;
    auto mark_error = [](VariantResult &row, const RunError &error) {
        if (row.ok()) {
            row.error = std::string(runErrorCodeName(error.code)) +
                        ": " + error.message;
        }
    };

    for (std::size_t i = 0; i < plan.specs.size(); ++i) {
        const PlannedSpec &planned = plan.specs[i];
        VariantResult &row = rows[planned.variant];
        const RunOutcome &outcome = outcomes[i];

        if (planned.role == PlannedSpec::Role::Latency) {
            // A failed chain only loses the latency column.
            if (!outcome.ok())
                continue;
            auto cycles = cyclesOf(outcome.result(),
                                   plan.hasFixedCounters);
            if (cycles) {
                row.latency = (*cycles - planned.overheadCycles) /
                              planned.linksPerIteration;
            }
            continue;
        }

        if (!outcome.ok()) {
            mark_error(row, outcome.error());
            continue;
        }
        const core::BenchmarkResult &result = outcome.result();
        double denom = planned.copies;

        for (unsigned p = 0; p < plan.numPorts; ++p) {
            auto usage = result.find("UOPS_DISPATCHED_PORT.PORT_" +
                                     std::to_string(p));
            if (!usage)
                continue;
            double v = *usage / denom;
            if (v > 0.02)
                row.portUsage[p] = v;
        }
        auto cycles = cyclesOf(result, plan.hasFixedCounters);
        auto uops = result.find("UOPS_EXECUTED.THREAD");
        if (!cycles || !uops) {
            mark_error(row, {RunError::Code::ExecutionError,
                             "cycle/µop counters missing from result"});
            continue;
        }
        row.throughput = *cycles / denom;
        row.uops = *uops / denom - (planned.depBroken ? 2.0 : 0.0);
    }
    return rows;
}

VariantResult
Characterizer::characterize(const Instruction &insn)
{
    auto one = plan(std::vector<Instruction>{insn});
    std::vector<RunOutcome> outcomes;
    for (const auto &planned : one.specs)
        outcomes.push_back(runSpecOnRunner(runner_, planned.spec));
    return decode(one, outcomes)[0];
}

std::vector<Instruction>
Characterizer::variantCatalog() const
{
    const auto &ua = runner_.machine().uarch();
    std::vector<Instruction> catalog;

    auto add = [&](Instruction insn) {
        if (uarch::supportsOpcode(ua.family, insn.opcode))
            catalog.push_back(std::move(insn));
    };

    // Integer ALU, common forms.
    for (Opcode op : {Opcode::ADD, Opcode::ADC, Opcode::SUB, Opcode::SBB,
                      Opcode::AND, Opcode::OR, Opcode::XOR, Opcode::CMP,
                      Opcode::TEST}) {
        add(ins(op, {reg(Reg::RAX), reg(Reg::RBX)}));
        add(ins(op, {reg(Reg::RAX), imm(42)}));
        add(ins(op, {reg(Reg::RAX, 32), reg(Reg::RBX, 32)}));
        add(ins(op, {reg(Reg::RAX), memAt(Reg::R14)}));
    }
    add(ins(Opcode::ADD, {memAt(Reg::R14), reg(Reg::RAX)}));

    // Moves and address generation.
    add(ins(Opcode::MOV, {reg(Reg::RAX), reg(Reg::RBX)}));
    add(ins(Opcode::MOV, {reg(Reg::RAX), imm(42)}));
    add(ins(Opcode::MOV, {reg(Reg::RAX), memAt(Reg::R14)}));
    add(ins(Opcode::MOV, {memAt(Reg::R14), reg(Reg::RAX)}));
    add(ins(Opcode::MOVZX, {reg(Reg::RAX), reg(Reg::RBX, 8)}));
    add(ins(Opcode::MOVSX, {reg(Reg::RAX), reg(Reg::RBX, 8)}));
    add(ins(Opcode::MOVNTI, {memAt(Reg::R14), reg(Reg::RAX)}));
    add(ins(Opcode::LEA, {reg(Reg::RAX), memAt(Reg::RAX, 8)}));
    {
        MemRef slow;
        slow.base = Reg::RAX;
        slow.index = Reg::RBX;
        slow.scale = 4;
        slow.disp = 8;
        add(ins(Opcode::LEA, {reg(Reg::RAX), Operand::makeMem(slow)}));
    }
    add(ins(Opcode::XCHG, {reg(Reg::RAX), reg(Reg::RBX)}));
    add(ins(Opcode::BSWAP, {reg(Reg::RAX)}));
    add(ins(Opcode::PUSH, {reg(Reg::RAX)}));
    add(ins(Opcode::POP, {reg(Reg::RAX)}));
    for (Opcode op : {Opcode::CMOVZ, Opcode::CMOVNZ, Opcode::CMOVC,
                      Opcode::CMOVNC})
        add(ins(op, {reg(Reg::RAX), reg(Reg::RBX)}));

    // Unary ALU.
    for (Opcode op :
         {Opcode::INC, Opcode::DEC, Opcode::NEG, Opcode::NOT})
        add(ins(op, {reg(Reg::RAX)}));

    // Multiply / divide.
    add(ins(Opcode::IMUL, {reg(Reg::RAX), reg(Reg::RBX)}));
    add(ins(Opcode::IMUL, {reg(Reg::RAX), reg(Reg::RBX), imm(19)}));
    add(ins(Opcode::IMUL, {reg(Reg::RBX)}));
    add(ins(Opcode::MUL, {reg(Reg::RBX)}));
    add(ins(Opcode::DIV, {reg(Reg::RBX)}));
    add(ins(Opcode::DIV, {reg(Reg::RBX, 32)}));
    add(ins(Opcode::IDIV, {reg(Reg::RBX)}));

    // Shifts and bit manipulation.
    for (Opcode op : {Opcode::SHL, Opcode::SHR, Opcode::SAR, Opcode::ROL,
                      Opcode::ROR})
        add(ins(op, {reg(Reg::RAX), imm(7)}));
    add(ins(Opcode::SHL, {reg(Reg::RAX), reg(Reg::RCX, 8)}));
    for (Opcode op : {Opcode::POPCNT, Opcode::LZCNT, Opcode::TZCNT,
                      Opcode::BSF, Opcode::BSR})
        add(ins(op, {reg(Reg::RAX), reg(Reg::RBX)}));
    for (Opcode op : {Opcode::BT, Opcode::BTS, Opcode::BTR})
        add(ins(op, {reg(Reg::RAX), reg(Reg::RBX)}));
    add(ins(Opcode::SETZ, {reg(Reg::RAX, 8)}));
    add(ins(Opcode::SETNZ, {reg(Reg::RAX, 8)}));

    // Branches (fall-through conditional: body-internal target).
    {
        Instruction jz = ins(Opcode::JZ);
        jz.targetIdx = 1; // next instruction within the body copy
        add(jz);
    }

    // SSE/AVX.
    add(ins(Opcode::MOVAPS, {reg(Reg::XMM1, 128), reg(Reg::XMM2, 128)}));
    add(ins(Opcode::MOVAPS,
            {reg(Reg::XMM1, 128), memAt(Reg::R14, 0, 128)}));
    add(ins(Opcode::MOVAPS,
            {memAt(Reg::R14, 0, 128), reg(Reg::XMM1, 128)}));
    add(ins(Opcode::PXOR, {reg(Reg::XMM1, 128), reg(Reg::XMM2, 128)}));
    add(ins(Opcode::PADDD, {reg(Reg::XMM1, 128), reg(Reg::XMM2, 128)}));
    for (Opcode op : {Opcode::ADDPS, Opcode::ADDPD, Opcode::MULPS,
                      Opcode::MULPD, Opcode::DIVPS, Opcode::DIVPD})
        add(ins(op, {reg(Reg::XMM1, 128), reg(Reg::XMM2, 128)}));
    add(ins(Opcode::VADDPS, {reg(Reg::XMM1, 256), reg(Reg::XMM2, 256),
                             reg(Reg::XMM3, 256)}));
    add(ins(Opcode::VMULPS, {reg(Reg::XMM1, 256), reg(Reg::XMM2, 256),
                             reg(Reg::XMM3, 256)}));
    add(ins(Opcode::VFMADD231PS, {reg(Reg::XMM1, 256),
                                  reg(Reg::XMM2, 256),
                                  reg(Reg::XMM3, 256)}));

    // Fences, serialization, counters, system (privileged included:
    // the point of the kernel-space version, §V).
    add(ins(Opcode::NOP));
    add(ins(Opcode::PAUSE));
    add(ins(Opcode::LFENCE));
    add(ins(Opcode::MFENCE));
    add(ins(Opcode::SFENCE));
    add(ins(Opcode::CPUID));
    add(ins(Opcode::RDTSC));
    add(ins(Opcode::RDPMC));
    add(ins(Opcode::RDMSR));
    add(ins(Opcode::CLFLUSH, {memAt(Reg::R14)}));
    add(ins(Opcode::PREFETCHT0, {memAt(Reg::R14)}));
    add(ins(Opcode::PREFETCHNTA, {memAt(Reg::R14)}));
    add(ins(Opcode::WBINVD));
    add(ins(Opcode::CLI));
    add(ins(Opcode::STI));

    return catalog;
}

} // namespace nb::uops
