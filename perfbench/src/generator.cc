#include "generator.hh"

#include <algorithm>
#include <cmath>

#include "analysis/bound.hh"
#include "common/rng.hh"
#include "x86/assembler.hh"

namespace perfbench
{

using nb::x86::Instruction;
using nb::x86::Opcode;

namespace
{

/** Whether a catalog variant may appear in a generated body. */
bool
usable(const Instruction &insn)
{
    if (insn.info().privileged || insn.isBranch() ||
        insn.info().cls == nb::x86::InstrClass::CallRet)
        return false;
    switch (insn.opcode) {
      case Opcode::DIV:
      case Opcode::IDIV:
      case Opcode::PUSH:
      case Opcode::POP:
      case Opcode::RDPMC:
        return false;
      default:
        return true;
    }
}

} // namespace

std::vector<nb::core::BenchmarkSpec>
generateBatch(const std::vector<Instruction> &catalog, std::uint64_t seed)
{
    std::vector<Instruction> regs;
    std::vector<Instruction> mems;
    for (const Instruction &insn : catalog) {
        if (usable(insn))
            (insn.memOperand() ? mems : regs).push_back(insn);
    }

    // (unroll, loop) shapes: loop-free, short and long loops, each at
    // 16, 32 and 64 body copies. Shapes and body lengths cycle through
    // every combination and only the instructions are drawn, so the
    // batch's total work barely depends on the seed.
    static constexpr std::pair<std::uint64_t, std::uint64_t> kShapes[] = {
        {16, 0}, {32, 0}, {64, 0}, {4, 4}, {8, 4},
        {16, 4}, {1, 16}, {2, 16}, {4, 16},
    };
    constexpr std::size_t kMaxLength = 6;

    nb::Rng rng(seed);
    std::vector<nb::core::BenchmarkSpec> specs;
    specs.reserve(kBatchSpecs);
    for (std::size_t k = 0; specs.size() < kBatchSpecs; ++k) {
        if (k % 5 == 4) {
            specs.push_back(specs[rng.nextBelow(specs.size())]);
            continue;
        }
        nb::core::BenchmarkSpec spec;
        std::size_t length = 1 + k % kMaxLength;
        for (std::size_t i = 0; i < length; ++i) {
            const auto &pool = !mems.empty() && rng.oneIn(6) ? mems : regs;
            if (i)
                spec.asmCode += "; ";
            spec.asmCode += pool[rng.nextBelow(pool.size())].toString();
        }
        auto [unroll, loop] =
            kShapes[k / kMaxLength % std::size(kShapes)];
        spec.unrollCount = unroll;
        spec.loopCount = loop;
        specs.push_back(std::move(spec));
    }
    return specs;
}

std::string
checkBatchResult(const nb::uarch::MicroArch &ua,
                 const nb::core::BenchmarkSpec &spec,
                 const nb::RunOutcome &outcome)
{
    if (!outcome.ok())
        return "run failed: " + outcome.error().message;
    const nb::core::BenchmarkResult &result = outcome.result();
    auto retired = result.find("Instructions retired");
    auto body = static_cast<double>(nb::x86::assemble(spec.asmCode).size());
    auto copies = static_cast<double>(
        spec.unrollCount * std::max<std::uint64_t>(1, spec.loopCount));
    // Loop-free code retires exactly body * copies more instructions
    // in the doubled version. In loop mode one instruction at the loop
    // boundary may retire on either side of the counter read, depending
    // on the branch history, so one instruction of slack is allowed.
    double slack = spec.loopCount ? 1.0 : 0.0;
    if (!retired || std::abs(*retired - body) * copies > slack)
        return "retired instructions per copy " +
               std::to_string(retired.value_or(-1)) + " != body length " +
               std::to_string(body) + " (unroll " +
               std::to_string(spec.unrollCount) + ", loop " +
               std::to_string(spec.loopCount) + ")";
    auto bound = nb::analysis::measurementCycleBound(
        nb::analysis::analyzeBounds(ua, spec), spec.unrollCount,
        std::max<std::uint64_t>(1, spec.loopCount));
    if (static_cast<double>(result.lastRunCycles) < bound - 1e-6)
        return "simulated cycles " + std::to_string(result.lastRunCycles) +
               " below the static bound " + std::to_string(bound);
    return {};
}

} // namespace perfbench
