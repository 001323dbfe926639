/**
 * @file
 * Invariants over generated specs. A seeded draw of short
 * microbenchmarks from the instruction catalog -- the population of
 * the end-to-end benchmark's batch workload: no privileged,
 * control-flow, DIV/IDIV, PUSH/POP or RDPMC variants, 1-6 instructions,
 * some [R14] operands, mixed unroll/loop shapes -- must, spec by spec:
 *
 *  - run ok;
 *  - simulate at least analysis::measurementCycleBound cycles in its
 *    last measurement execution;
 *  - give the same result with an ExecObserver attached as without;
 *  - give the same result on a used-then-reset machine as on a fresh
 *    one;
 *  - give byte-identical result JSON through runCampaign at -jobs 1
 *    and -jobs 4.
 *
 * The draw uses the fault plans' xorshift stream. Its seed is fixed,
 * so the ctest is one deterministic draw; under --gtest_shuffle it
 * also mixes in gtest's random seed, so --gtest_repeat=N
 * --gtest_shuffle sweeps N draws, and a failing one replays with the
 * --gtest_random_seed that gtest printed for its iteration.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/bound.hh"
#include "core/campaign.hh"
#include "core/engine.hh"
#include "core/runner.hh"
#include "fault/fault.hh"
#include "sim/machine.hh"
#include "uops/characterize.hh"

namespace nb
{
namespace
{

using core::BenchmarkSpec;
using x86::Instruction;
using x86::Opcode;

/** Specs per draw. */
constexpr std::size_t kSpecs = 200;

/** Whether a catalog variant may appear in a generated body: it must
 *  run on arbitrary register state, any number of times in a row
 *  (see the file comment). */
bool
usable(const Instruction &insn)
{
    if (insn.info().privileged || insn.isBranch() ||
        insn.info().cls == x86::InstrClass::CallRet)
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

/** kSpecs specs drawn from @p catalog with the xorshift stream seeded
 *  by @p seed (non-zero). */
std::vector<BenchmarkSpec>
drawSpecs(const std::vector<Instruction> &catalog, std::uint64_t seed)
{
    std::vector<const Instruction *> regs;
    std::vector<const Instruction *> mems;
    for (const Instruction &insn : catalog) {
        if (usable(insn))
            (insn.memOperand() ? mems : regs).push_back(&insn);
    }
    // (unroll, loop): loop-free, short and long loops.
    static constexpr std::pair<std::uint64_t, std::uint64_t> kShapes[] = {
        {16, 0}, {32, 0}, {64, 0}, {4, 4}, {8, 4},
        {16, 4}, {1, 16}, {2, 16}, {4, 16},
    };

    std::uint64_t state = seed;
    auto below = [&](std::size_t n) {
        return static_cast<std::size_t>(fault::xorshift64(state) % n);
    };
    std::vector<BenchmarkSpec> specs(kSpecs);
    for (BenchmarkSpec &spec : specs) {
        const std::size_t length = 1 + below(6);
        for (std::size_t i = 0; i < length; ++i) {
            const auto &pool = below(6) == 0 ? mems : regs;
            if (i)
                spec.asmCode += "; ";
            spec.asmCode += pool[below(pool.size())]->toString();
        }
        const auto [unroll, loop] = kShapes[below(std::size(kShapes))];
        spec.unrollCount = unroll;
        spec.loopCount = loop;
    }
    return specs;
}

/** The draw's seed: fixed, mixed with gtest's random seed when gtest
 *  shuffles (it is 0 otherwise). */
std::uint64_t
drawSeed()
{
    const auto gtest_seed = static_cast<std::uint64_t>(
        testing::UnitTest::GetInstance()->random_seed());
    return 0x6E616E6F42656E63ULL ^ (gtest_seed << 32 | gtest_seed);
}

/** Run @p spec on a just-built machine + runner, with @p observer
 *  attached if given. */
RunOutcome
runFresh(const SessionOptions &opt, const BenchmarkSpec &spec,
         sim::ExecObserver *observer = nullptr)
{
    sim::Machine machine(uarch::getMicroArch(opt.uarch), opt.seed);
    core::Runner runner(machine, opt.mode);
    machine.setExecObserver(observer);
    return runSpecOnRunner(runner, spec);
}

TEST(GeneratedSpecs, HoldEveryInvariant)
{
    Engine engine;
    const SessionOptions session_opt;
    Session session = engine.session(session_opt);
    const std::vector<Instruction> catalog =
        uops::Characterizer(session).variantCatalog();
    const std::uint64_t seed = drawSeed();
    SCOPED_TRACE("draw seed " + std::to_string(seed));
    const std::vector<BenchmarkSpec> specs = drawSpecs(catalog, seed);
    const auto &ua = uarch::getMicroArch(session_opt.uarch);

    CampaignOptions opt;
    opt.session = session_opt;
    opt.jobs = 1;
    const CampaignResult serial = engine.runCampaign(specs, opt);
    opt.jobs = 4;
    const CampaignResult parallel = engine.runCampaign(specs, opt);
    ASSERT_EQ(serial.outcomes.size(), specs.size());
    ASSERT_EQ(parallel.outcomes.size(), specs.size());

    // One rig runs every spec after a reset, so from the second spec on
    // it is a used machine.
    sim::Machine used_machine(ua, session_opt.seed);
    core::Runner used(used_machine, session_opt.mode);

    std::size_t mem_specs = 0;
    std::size_t loop_specs = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const BenchmarkSpec &spec = specs[i];
        SCOPED_TRACE(spec.summary());
        mem_specs += spec.asmCode.find("[R14") != std::string::npos;
        loop_specs += spec.loopCount != 0;

        const RunOutcome &out = serial.outcomes[i];
        ASSERT_TRUE(out.ok()) << out.error().message;
        const core::BenchmarkResult &result = out.result();
        const std::string json = result.toJson();

        // -jobs 1 ≡ -jobs 4.
        ASSERT_TRUE(parallel.outcomes[i].ok());
        EXPECT_EQ(parallel.outcomes[i].result().toJson(), json);

        // Simulated cycles ≥ the static bound.
        const double bound = analysis::measurementCycleBound(
            analysis::analyzeBounds(ua, spec), spec.unrollCount,
            std::max<std::uint64_t>(1, spec.loopCount));
        EXPECT_GE(static_cast<double>(result.lastRunCycles), bound - 1e-6);

        // A fresh machine gives what the campaign's reset worker gave.
        const RunOutcome fresh = runFresh(session_opt, spec);
        ASSERT_TRUE(fresh.ok());
        EXPECT_EQ(fresh.result().toJson(), json);
        EXPECT_EQ(fresh.result().lastRunCycles, result.lastRunCycles);

        // Observer attached ≡ detached.
        sim::ExecObserver observer;
        const RunOutcome observed = runFresh(session_opt, spec, &observer);
        ASSERT_TRUE(observed.ok());
        EXPECT_EQ(observed.result().toJson(), json);
        EXPECT_EQ(observed.result().lastRunCycles, result.lastRunCycles);
        EXPECT_GT(observer.instructions, 0u);

        // Used, then reset ≡ fresh.
        used.reset();
        const RunOutcome again = runSpecOnRunner(used, spec);
        ASSERT_TRUE(again.ok());
        EXPECT_EQ(again.result().toJson(), json);
        EXPECT_EQ(again.result().lastRunCycles, result.lastRunCycles);
    }
    // The draw covers the population: memory operands and loops.
    EXPECT_GT(mem_specs, 0u);
    EXPECT_GT(loop_specs, 0u);
}

} // namespace
} // namespace nb
