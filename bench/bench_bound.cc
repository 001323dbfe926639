/**
 * @file
 * Google-benchmark measurements of the static performance-bound
 * analyzer: raw analysis cost per spec (assemble + decode + longest
 * path + port enumeration), the report memo, and -- the ratio CI
 * guards -- a campaign where every spec is also bound-analyzed vs
 * the identical campaign without. analyzeBoundsCached() memoizes
 * whole reports on the canonical spec key, so the steady-state cost
 * of bound analysis on the campaign path must stay near zero; see
 * tools/check_bench.py (bound_overhead).
 */

#include <benchmark/benchmark.h>

#include "analysis/bound.hh"
#include "core/campaign.hh"

namespace
{

using namespace nb;

/** Same shape as bench_campaign's spec pool: cheap-but-real specs. */
std::vector<core::BenchmarkSpec>
uniqueSpecs(unsigned n)
{
    std::vector<core::BenchmarkSpec> specs(n);
    for (unsigned i = 0; i < n; ++i) {
        specs[i].asmCode =
            "mov RAX, " + std::to_string(i + 1) + "; add RAX, RAX";
        specs[i].unrollCount = 10;
        specs[i].nMeasurements = 3;
        specs[i].warmUpCount = 0;
    }
    return specs;
}

constexpr unsigned kCampaignSize = 200;

void
BM_BoundCold(benchmark::State &state)
{
    // Uncached single-spec analysis: assemble + decode + dependency
    // closure + binding-set port enumeration.
    const auto &ua = uarch::getMicroArch("Skylake");
    core::BenchmarkSpec spec;
    spec.asmCode = "mov R14, [R14]; add RAX, RBX; xor RDX, RDX";
    spec.asmInit = "mov [R14], R14";
    spec.unrollCount = 100;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            analysis::analyzeBounds(ua, spec).bound());
}
BENCHMARK(BM_BoundCold);

void
BM_BoundMemoized(benchmark::State &state)
{
    // Steady state of the bound memo: every call after the first is a
    // key build + hash lookup.
    const auto &ua = uarch::getMicroArch("Skylake");
    core::BenchmarkSpec spec;
    spec.asmCode = "mov R14, [R14]; add RAX, RBX; xor RDX, RDX";
    spec.asmInit = "mov [R14], R14";
    spec.unrollCount = 100;
    analysis::analyzeBoundsCached(ua, spec);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            analysis::analyzeBoundsCached(ua, spec).bound());
}
BENCHMARK(BM_BoundMemoized);

void
BM_CampaignBound(benchmark::State &state)
{
    // The guarded ratio: an identical 200-spec campaign plain (arg 0)
    // vs every spec also run through the memoized bound analyzer
    // (arg 1), the -explain / R7 consistency flow.
    setQuiet(true);
    Engine engine;
    const auto &ua = uarch::getMicroArch("Skylake");
    CampaignOptions opt;
    opt.jobs = 2;
    opt.dedup = false;
    auto specs = uniqueSpecs(kCampaignSize);
    if (state.range(0))
        for (const auto &spec : specs)
            analysis::analyzeBoundsCached(ua, spec); // warm the memo
    engine.runCampaign(specs, opt); // warm the assembly memo
    engine.resetStats();
    for (auto _ : state) {
        if (state.range(0)) {
            double acc = 0;
            for (const auto &spec : specs)
                acc += analysis::analyzeBoundsCached(ua, spec).bound();
            benchmark::DoNotOptimize(acc);
        }
        benchmark::DoNotOptimize(
            engine.runCampaign(specs, opt).outcomes.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kCampaignSize));
    if (state.range(0)) {
        auto stats = analysis::boundCacheCounters();
        state.counters["bound_hits"] =
            static_cast<double>(stats.hits);
        state.counters["bound_misses"] =
            static_cast<double>(stats.misses);
    }
}
BENCHMARK(BM_CampaignBound)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"bound"});

} // namespace

BENCHMARK_MAIN();
