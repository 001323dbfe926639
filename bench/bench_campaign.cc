/**
 * @file
 * Google-benchmark measurements of the campaign executor: serial
 * single-session baseline vs campaign workers at several widths, and
 * the dedup-cache speedup on campaigns with repeated specs. The CI
 * bench-regression job compares the resulting ratios (parallel vs
 * serial throughput, dedup vs no-dedup) against a committed baseline;
 * see tools/check_bench.py.
 */

#include <benchmark/benchmark.h>

#include "core/campaign.hh"

namespace
{

using namespace nb;

/** Cheap-but-real specs (short bodies, few measurements) so a
 *  200-spec campaign fits in a benchmark iteration. */
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
BM_CampaignSerialBatch(benchmark::State &state)
{
    // The pre-campaign way: one Session, runBatch() in spec order.
    setQuiet(true);
    Engine engine;
    Session session = engine.session({});
    auto specs = uniqueSpecs(kCampaignSize);
    for (auto _ : state)
        benchmark::DoNotOptimize(session.runBatch(specs).size());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kCampaignSize));
}
BENCHMARK(BM_CampaignSerialBatch)->Unit(benchmark::kMillisecond);

void
BM_CampaignJobs(benchmark::State &state)
{
    setQuiet(true);
    Engine engine;
    CampaignOptions opt;
    opt.jobs = static_cast<unsigned>(state.range(0));
    opt.dedup = false; // pure fan-out: every spec executes
    auto specs = uniqueSpecs(kCampaignSize);
    engine.runCampaign(specs, opt); // warm the assembly memo
    for (auto _ : state)
        benchmark::DoNotOptimize(
            engine.runCampaign(specs, opt).outcomes.size());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kCampaignSize));
}
BENCHMARK(BM_CampaignJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_CampaignDedup(benchmark::State &state)
{
    // 200 input specs, 25 unique (8 duplicates each): the dedup cache
    // runs 25 and serves 175 -- compare against BM_CampaignNoDedup.
    setQuiet(true);
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 1;
    auto unique = uniqueSpecs(kCampaignSize / 8);
    std::vector<core::BenchmarkSpec> specs;
    for (unsigned i = 0; i < kCampaignSize; ++i)
        specs.push_back(unique[i % unique.size()]);
    opt.dedup = static_cast<bool>(state.range(0));
    engine.runCampaign(specs, opt);
    engine.resetStats();
    std::size_t cache_hits = 0;
    for (auto _ : state) {
        auto campaign = engine.runCampaign(specs, opt);
        cache_hits = campaign.report.cacheHits;
        benchmark::DoNotOptimize(campaign.outcomes.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kCampaignSize));
    state.counters["cache_hits"] = static_cast<double>(cache_hits);
}
BENCHMARK(BM_CampaignDedup)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"dedup"});

void
BM_SpecCanonicalKey(benchmark::State &state)
{
    core::BenchmarkSpec spec;
    spec.asmCode = "mov R14, [R14+RSI*8+16]; add RAX, 5";
    spec.asmInit = "mov [R14], R14";
    spec.config = core::CounterConfig::forMicroArch("Skylake");
    for (auto _ : state)
        benchmark::DoNotOptimize(specHash(spec));
}
BENCHMARK(BM_SpecCanonicalKey);

} // namespace

BENCHMARK_MAIN();
