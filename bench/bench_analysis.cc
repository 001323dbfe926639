/**
 * @file
 * Google-benchmark measurements of the spec static analyzer: raw
 * analysis cost per spec, the report memo, and -- the ratio CI
 * guards -- a lint-enabled campaign vs the identical campaign with
 * linting off. analyzeSpecCached() memoizes whole reports on the
 * canonical spec key, so the steady-state overhead of opting into
 * lintLevel must stay near zero; see tools/check_bench.py
 * (lint_overhead).
 */

#include <benchmark/benchmark.h>

#include "analysis/analysis.hh"
#include "core/campaign.hh"

namespace
{

using namespace nb;

/** Same shape as bench_campaign's spec pool: cheap-but-real specs. */
std::vector<core::BenchmarkSpec>
uniqueSpecs(unsigned n, core::LintLevel lint)
{
    std::vector<core::BenchmarkSpec> specs(n);
    for (unsigned i = 0; i < n; ++i) {
        specs[i].asmCode =
            "mov RAX, " + std::to_string(i + 1) + "; add RAX, RAX";
        specs[i].unrollCount = 10;
        specs[i].nMeasurements = 3;
        specs[i].warmUpCount = 0;
        specs[i].lintLevel = lint;
    }
    return specs;
}

constexpr unsigned kCampaignSize = 200;

void
BM_AnalyzeSpec(benchmark::State &state)
{
    // Uncached single-spec analysis (assemble + decode + dataflow).
    const auto &ua = uarch::getMicroArch("Skylake");
    core::BenchmarkSpec spec;
    spec.asmCode = "mov R14, [R14]; add RAX, RBX; xor RDX, RDX";
    spec.asmInit = "mov [R14], R14";
    for (auto _ : state)
        benchmark::DoNotOptimize(
            analysis::analyzeSpec(ua, spec, {}).diagnostics.size());
}
BENCHMARK(BM_AnalyzeSpec);

void
BM_AnalyzeSpecCached(benchmark::State &state)
{
    // Steady state of the report memo: every call after the first is
    // a key build + hash lookup.
    const auto &ua = uarch::getMicroArch("Skylake");
    core::BenchmarkSpec spec;
    spec.asmCode = "mov R14, [R14]; add RAX, RBX; xor RDX, RDX";
    spec.asmInit = "mov [R14], R14";
    analysis::analyzeSpecCached(ua, spec, {});
    for (auto _ : state)
        benchmark::DoNotOptimize(
            analysis::analyzeSpecCached(ua, spec, {})
                .diagnostics.size());
}
BENCHMARK(BM_AnalyzeSpecCached);

void
BM_CampaignLint(benchmark::State &state)
{
    // The guarded ratio: an identical 200-spec campaign with linting
    // off (arg 0) vs every spec opted into LintLevel::Error (arg 1).
    setQuiet(true);
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    opt.dedup = false;
    auto specs = uniqueSpecs(kCampaignSize,
                             state.range(0)
                                 ? core::LintLevel::Error
                                 : core::LintLevel::Off);
    engine.runCampaign(specs, opt); // warm the assembly and lint memos
    engine.resetStats();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            engine.runCampaign(specs, opt).outcomes.size());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kCampaignSize));
    if (state.range(0)) {
        auto stats = analysis::lintCacheCounters();
        state.counters["lint_hits"] =
            static_cast<double>(stats.hits);
        state.counters["lint_misses"] =
            static_cast<double>(stats.misses);
    }
}
BENCHMARK(BM_CampaignLint)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"lint"});

} // namespace

BENCHMARK_MAIN();
