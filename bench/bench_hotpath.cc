/**
 * @file
 * Hot-path microbenchmarks of the decode/execute split: simulated-
 * instruction throughput and per-measurement setup cost across the
 * three generations of the hot path --
 *
 *  - legacy: re-materialize the unrolled measurement code and decode
 *    every instruction on every measurement (pre-predecode);
 *  - switch dispatch: the predecoded Program through the frozen
 *    switch-based reference executor (Machine::executeReference);
 *  - threaded dispatch: the predecoded Program through the threaded
 *    computed-goto SoA executor with batched PMU accounting
 *    (Machine::execute, the production path).
 *
 * BM_HotpathL2Chase runs the same executor over a pointer chase through
 * an L2-resident ring, so every instruction takes the memory-access path
 * (translation, an L1 miss, an L2 hit, the L1 fill).
 * BM_HotpathPortCounters runs the instruction table's throughput shape
 * with port events on the programmable counters, so the PMU logs every
 * port dispatch.
 *
 * check_bench.py enforces four ratios from these numbers:
 * predecode_vs_legacy (BM_HotpathPredecoded / BM_HotpathLegacy, the
 * end-to-end win over the pre-predecode path),
 * dispatch_vs_predecode (BM_HotpathPredecoded /
 * BM_HotpathSwitchDispatch, the threaded executor's >= 1.5x win over
 * switch dispatch on the same predecoded program) and
 * chase_vs_register (ns per instruction of BM_HotpathL2Chase over
 * BM_HotpathPredecoded, the cost of the memory-access path) and
 * ports_vs_register (the same for BM_HotpathPortCounters, the cost of
 * logged PMU accounting).
 */

#include <benchmark/benchmark.h>

#include "core/codegen.hh"
#include "core/engine.hh"
#include "kernel/kalloc.hh"
#include "uarch/uarch.hh"
#include "x86/assembler.hh"

namespace
{

using namespace nb;

/** The measurement shape both paths run: a noMem readout around an
 *  unrolled ALU body -- no loop, so every dynamic instruction is a
 *  static instruction and the legacy path pays decode per dynamic
 *  instruction, exactly what the old executor did. */
core::GenParams
hotpathParams()
{
    core::GenParams p;
    p.body = x86::assemble("add RAX, RAX; imul RBX, RBX");
    p.localUnrollCount = 200;
    p.noMem = true;
    p.readouts = {{core::ReadoutItem::Kind::FixedPmc, 0, "Instructions"},
                  {core::ReadoutItem::Kind::FixedPmc, 1, "Core cycles"}};
    return p;
}

sim::Machine
hotpathMachine()
{
    sim::Machine machine(uarch::getMicroArch("Skylake"), 42);
    machine.setPrivilege(sim::Privilege::Kernel);
    machine.setInterruptsEnabled(false);
    return machine;
}

void
BM_HotpathLegacy(benchmark::State &state)
{
    setQuiet(true);
    auto machine = hotpathMachine();
    auto params = hotpathParams();
    std::uint64_t dynamic = 0;
    for (auto _ : state) {
        // What Runner::executeOnce did per measurement: materialize
        // unroll x body, then decode every instruction on the way in.
        machine.pmu().beginEpoch(); // as the Runner does per run
        auto code = core::generateMeasurementCode(params);
        auto stats =
            machine.execute(sim::Program::decode(machine.uarch(), code));
        dynamic += stats.instructions;
        benchmark::DoNotOptimize(stats.endCycle);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(dynamic));
}
BENCHMARK(BM_HotpathLegacy);

void
BM_HotpathSwitchDispatch(benchmark::State &state)
{
    // The predecoded program through the frozen switch-based reference
    // executor: the PR 5 hot path, kept as the parity baseline. The
    // dispatch_vs_predecode gate measures the threaded executor
    // against this.
    setQuiet(true);
    auto machine = hotpathMachine();
    auto params = hotpathParams();
    sim::Program prog =
        core::buildMeasurementProgram(params, machine.uarch());
    std::uint64_t dynamic = 0;
    for (auto _ : state) {
        machine.pmu().beginEpoch(); // as the Runner does per run
        auto stats = machine.executeReference(prog);
        dynamic += stats.instructions;
        benchmark::DoNotOptimize(stats.endCycle);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(dynamic));
}
BENCHMARK(BM_HotpathSwitchDispatch);

void
BM_HotpathPredecoded(benchmark::State &state)
{
    setQuiet(true);
    auto machine = hotpathMachine();
    auto params = hotpathParams();
    // Built once (per round/unroll version in the Runner), reused by
    // every measurement.
    sim::Program prog =
        core::buildMeasurementProgram(params, machine.uarch());
    std::uint64_t dynamic = 0;
    for (auto _ : state) {
        machine.pmu().beginEpoch(); // as the Runner does per run
        auto stats = machine.execute(prog);
        dynamic += stats.instructions;
        benchmark::DoNotOptimize(stats.endCycle);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(dynamic));
}
BENCHMARK(BM_HotpathPredecoded);

void
BM_HotpathL2Chase(benchmark::State &state)
{
    // "mov R14, [R14]" over a 128 KB ring of sequential lines: bigger
    // than Skylake's 32 KB L1, inside its 256 KB L2. With the
    // prefetchers off, every load misses L1 and hits L2.
    setQuiet(true);
    constexpr Addr kRingBytes = 128 * 1024;
    auto machine = hotpathMachine();
    machine.caches().setPrefetcherControl(cache::pf::kDisableAll);
    kernel::KernelAllocator alloc(machine.memory(), &machine.rng());
    Addr ring = alloc.allocContiguous(kRingBytes).value().vaddr;
    for (Addr off = 0; off < kRingBytes; off += kCacheLineSize) {
        machine.memory().writeVirt(
            ring + off, ring + (off + kCacheLineSize) % kRingBytes, 8);
    }
    machine.arch().writeGpr(x86::Reg::R14, 64, ring);

    auto params = hotpathParams();
    params.body = x86::assemble("mov R14, [R14]");
    params.localUnrollCount = 400;
    sim::Program prog =
        core::buildMeasurementProgram(params, machine.uarch());
    // Warm up: bring the whole ring into L2 and L3.
    for (Addr i = 0; i < 2 * kRingBytes / kCacheLineSize / 400 + 1; ++i)
        machine.execute(prog);
    std::uint64_t dynamic = 0;
    for (auto _ : state) {
        machine.pmu().beginEpoch(); // as the Runner does per run
        auto stats = machine.execute(prog);
        dynamic += stats.instructions;
        benchmark::DoNotOptimize(stats.endCycle);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(dynamic));
}
BENCHMARK(BM_HotpathL2Chase);

void
BM_HotpathPortCounters(benchmark::State &state)
{
    // The instruction-table throughput shape (10 independent copies,
    // unroll 20) with a port event on each of the four programmable
    // counters, as a characterization run programs them: every
    // dispatched µop on ports 0/1/5/6 takes the PMU's time-resolved
    // (logged) path, and the readout samples them.
    setQuiet(true);
    auto machine = hotpathMachine();
    const std::uint8_t port_umasks[] = {0x01, 0x02, 0x20, 0x40};
    for (unsigned i = 0; i < 4; ++i)
        machine.pmu().configureProg(i, sim::EventCode{0xA1, port_umasks[i]});

    auto params = hotpathParams();
    params.body = x86::assemble(
        "add RAX, 1; add RBX, 1; add RCX, 1; add RDX, 1; add RSI, 1; "
        "add RDI, 1; add R8, 1; add R9, 1; add R10, 1; add R11, 1");
    params.localUnrollCount = 20;
    for (std::uint32_t i = 0; i < 4; ++i) {
        params.readouts.push_back(
            {core::ReadoutItem::Kind::ProgPmc, i, "port"});
    }
    sim::Program prog =
        core::buildMeasurementProgram(params, machine.uarch());
    std::uint64_t dynamic = 0;
    for (auto _ : state) {
        machine.pmu().beginEpoch(); // as the Runner does per run
        auto stats = machine.execute(prog);
        dynamic += stats.instructions;
        benchmark::DoNotOptimize(stats.endCycle);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(dynamic));
}
BENCHMARK(BM_HotpathPortCounters);

void
BM_HotpathBudget(benchmark::State &state)
{
    // BM_HotpathPredecoded with the cycle budget disarmed (Arg 0) vs
    // armed with a never-tripping budget (Arg 1). check_bench.py pins
    // the budget_overhead ratio (1 / 0) at <= 1.05x: the amortized
    // deadline check in the dispatch loop must stay in the noise.
    setQuiet(true);
    auto machine = hotpathMachine();
    auto params = hotpathParams();
    sim::Program prog =
        core::buildMeasurementProgram(params, machine.uarch());
    if (state.range(0) != 0)
        machine.setCycleBudget(1'000'000'000'000);
    std::uint64_t dynamic = 0;
    for (auto _ : state) {
        machine.pmu().beginEpoch(); // as the Runner does per run
        auto stats = machine.execute(prog);
        dynamic += stats.instructions;
        benchmark::DoNotOptimize(stats.endCycle);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(dynamic));
}
BENCHMARK(BM_HotpathBudget)->Arg(0)->Arg(1);

void
BM_MeasurementSetupLegacy(benchmark::State &state)
{
    // Per-measurement setup alone: materializing the unrolled vector
    // (one heap-allocated operand list per copied instruction).
    setQuiet(true);
    auto params = hotpathParams();
    for (auto _ : state) {
        auto code = core::generateMeasurementCode(params);
        benchmark::DoNotOptimize(code.size());
    }
}
BENCHMARK(BM_MeasurementSetupLegacy);

void
BM_MeasurementSetupPredecoded(benchmark::State &state)
{
    // The build the Runner pays once per (round, unroll version) per
    // run: O(|body|), independent of the unroll factor.
    setQuiet(true);
    auto params = hotpathParams();
    const auto &ua = uarch::getMicroArch("Skylake");
    for (auto _ : state) {
        sim::Program prog = core::buildMeasurementProgram(params, ua);
        benchmark::DoNotOptimize(prog.virtualSize());
    }
}
BENCHMARK(BM_MeasurementSetupPredecoded);

void
BM_RunnerRepeatedSpec(benchmark::State &state)
{
    // End-to-end Session::run of one spec with the assembly memo hot:
    // what a campaign pays for a repeated (or re-measured) spec. Each
    // run generates and decodes its measurement programs again, since
    // no decoded program outlives the run that built it.
    setQuiet(true);
    Engine engine;
    SessionOptions opt;
    opt.mode = core::Mode::Kernel;
    Session session = engine.session(opt);
    core::BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX; imul RBX, RBX";
    spec.unrollCount = 100;
    spec.nMeasurements = 10;
    spec.warmUpCount = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            session.runOrThrow(spec).lines.size());
    }
}
BENCHMARK(BM_RunnerRepeatedSpec);

} // namespace

BENCHMARK_MAIN();
