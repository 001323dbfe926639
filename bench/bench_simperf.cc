/**
 * @file
 * Google-benchmark microbenchmarks of the simulator substrate itself:
 * replacement-policy updates, hierarchy accesses, assembly, and full
 * nanoBench invocations. These are performance (not correctness)
 * benchmarks for the reproduction's own infrastructure.
 */

#include <benchmark/benchmark.h>

#include "cache/hierarchy.hh"
#include "cachetools/policy_sim.hh"
#include "core/engine.hh"
#include "uarch/uarch.hh"
#include "x86/assembler.hh"

namespace
{

using namespace nb;

void
BM_PolicyUpdate(benchmark::State &state, const char *name)
{
    Rng rng(1);
    cachetools::PolicySim sim(name, 16, &rng);
    Rng seq(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sim.access(static_cast<int>(seq.nextBelow(24))));
    }
}
BENCHMARK_CAPTURE(BM_PolicyUpdate, lru, "LRU");
BENCHMARK_CAPTURE(BM_PolicyUpdate, plru, "PLRU");
BENCHMARK_CAPTURE(BM_PolicyUpdate, qlru, "QLRU_H11_M1_R0_U0");
BENCHMARK_CAPTURE(BM_PolicyUpdate, mru_sbv, "MRU_SBV");

void
BM_HierarchyAccess(benchmark::State &state)
{
    Rng rng(1);
    cache::Hierarchy h(uarch::getMicroArch("Skylake").cacheConfig,
                       &rng);
    h.setPrefetcherControl(cache::pf::kDisableAll);
    Rng addr_rng(2);
    for (auto _ : state) {
        Addr a = addr_rng.nextBelow(1ULL << 24) & ~Addr{63};
        benchmark::DoNotOptimize(
            h.access(a, cache::AccessType::Load).latency);
    }
}
BENCHMARK(BM_HierarchyAccess);

void
BM_HierarchyWbinvdLoop(benchmark::State &state)
{
    // The §VI cache-experiment shape: WBINVD, then a few loads, on
    // filled caches. The flush is O(1), so an iteration should cost
    // about 16 accesses; a per-set flush costs a walk over all sets
    // (CI gates this as wbinvd_loop_vs_access).
    Rng rng(1);
    const auto &config = uarch::getMicroArch("Skylake").cacheConfig;
    cache::Hierarchy h(config, &rng);
    h.setPrefetcherControl(cache::pf::kDisableAll);
    for (Addr a = 0; a < 2 * config.l3.sizeBytes; a += kCacheLineSize)
        h.access(a, cache::AccessType::Load);
    for (auto _ : state) {
        h.wbinvd();
        for (Addr i = 0; i < 16; ++i) {
            benchmark::DoNotOptimize(
                h.access(i * (kPageSize + kCacheLineSize),
                         cache::AccessType::Load)
                    .latency);
        }
    }
}
BENCHMARK(BM_HierarchyWbinvdLoop);

void
BM_Assemble(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            x86::assemble("mov R14, [R14+RSI*8+16]; add RAX, 5"));
    }
}
BENCHMARK(BM_Assemble);

void
BM_MachineExecute(benchmark::State &state)
{
    sim::Machine machine(uarch::getMicroArch("Skylake"), 42);
    machine.setPrivilege(sim::Privilege::Kernel);
    machine.setInterruptsEnabled(false);
    auto prog = sim::Program::decode(
        machine.uarch(),
        x86::assemble("mov R15, 100; l: add RAX, RBX; imul RCX, RCX; "
                      "dec R15; jnz l"));
    for (auto _ : state) {
        auto stats = machine.execute(prog);
        benchmark::DoNotOptimize(stats.instructions);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 402)); // instructions per execute
}
BENCHMARK(BM_MachineExecute);

void
BM_FullNanoBenchRun(benchmark::State &state)
{
    setQuiet(true);
    Engine engine;
    SessionOptions opt;
    opt.mode = core::Mode::Kernel;
    Session session = engine.session(opt);
    core::BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX";
    spec.unrollCount = 100;
    spec.nMeasurements = 10;
    spec.warmUpCount = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            session.runOrThrow(spec).lines.size());
}
BENCHMARK(BM_FullNanoBenchRun);

void
BM_SessionSetupPooled(benchmark::State &state)
{
    // Cost of Engine::session() once the machine is pooled -- the
    // amortization the Engine API exists for (vs BM_SessionSetupCold).
    setQuiet(true);
    Engine engine;
    SessionOptions opt;
    opt.mode = core::Mode::Kernel;
    engine.session(opt); // warm the pool
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.session(opt).runner().mode());
}
BENCHMARK(BM_SessionSetupPooled);

void
BM_SessionSetupCold(benchmark::State &state)
{
    // Full machine + runner construction per session: what every
    // benchmark paid when each ran in its own one-shot process.
    setQuiet(true);
    std::uint64_t seed = 1;
    for (auto _ : state) {
        Engine engine;
        SessionOptions opt;
        opt.mode = core::Mode::Kernel;
        opt.seed = seed++; // defeat pooling: fresh machine each time
        benchmark::DoNotOptimize(engine.session(opt).runner().mode());
    }
}
BENCHMARK(BM_SessionSetupCold);

} // namespace

BENCHMARK_MAIN();
