/**
 * @file
 * Google-benchmark measurements of the observability layer: the two
 * ratios CI guards -- a campaign with a disabled Tracer attached vs
 * the identical campaign with no tracer (trace_overhead, the
 * disabled-path cost the tentpole promises is near zero), and an
 * observed campaign vs the identical campaign without attached
 * ExecObservers (observe_overhead; the observer's counter bumps are
 * negligible next to codegen/decode/execute, so this too pins near
 * 1.0).
 * Both gated at 1.05x by tools/check_bench.py. Plus microbenchmarks
 * of the registry hot path (one relaxed atomic per update) and
 * tracer span recording.
 */

#include <benchmark/benchmark.h>

#include "common/logging.hh"
#include "core/campaign.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

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
BM_CounterAdd(benchmark::State &state)
{
    // The registry hot path: one relaxed fetch_add per update.
    obs::Registry registry;
    obs::Counter &counter = registry.counter("bench.counter");
    for (auto _ : state)
        counter.add();
    benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterAdd);

void
BM_HistogramObserve(benchmark::State &state)
{
    obs::Histogram *hist;
    {
        static obs::Registry registry;
        hist = &registry.histogram("bench.hist",
                                   obs::phaseHistogramBounds());
    }
    double v = 0;
    for (auto _ : state) {
        hist->observe(v);
        v += 1e5;
        if (v > 2e9)
            v = 0;
    }
    benchmark::DoNotOptimize(hist->totalCount());
}
BENCHMARK(BM_HistogramObserve);

void
BM_TracerSpan(benchmark::State &state)
{
    // One begin/end pair on an enabled tracer (mutex + clock read).
    obs::Tracer tracer;
    tracer.enable();
    for (auto _ : state) {
        tracer.begin(0, "span");
        tracer.end(0, "span");
        if (tracer.eventCount() > 100000)
            tracer.clear();
    }
    benchmark::DoNotOptimize(tracer.eventCount());
}
BENCHMARK(BM_TracerSpan);

void
BM_CampaignTrace(benchmark::State &state)
{
    // The guarded ratio is trace:1 / trace:0 -- the DISABLED-path
    // cost the tentpole promises is near zero: arg 0 runs the
    // campaign with no tracer at all, arg 1 with a Tracer attached
    // but disabled (every span site pays its pointer check), and
    // arg 2 with tracing fully enabled (informational; recorded in
    // the CI artifact but not gated, since live span recording is
    // allowed to cost mutex + clock reads).
    setQuiet(true);
    Engine engine;
    obs::Tracer tracer;
    if (state.range(0) > 1)
        tracer.enable();
    CampaignOptions opt;
    opt.jobs = 2;
    opt.dedup = false;
    opt.trace = state.range(0) ? &tracer : nullptr;
    auto specs = uniqueSpecs(kCampaignSize);
    engine.runCampaign(specs, opt); // warm the assembly memo
    engine.resetStats();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            engine.runCampaign(specs, opt).outcomes.size());
        tracer.clear();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kCampaignSize));
}
BENCHMARK(BM_CampaignTrace)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"trace"});

void
BM_CampaignObserve(benchmark::State &state)
{
    // The guarded ratio: an identical 200-spec campaign without (arg
    // 0) vs with (arg 1) per-worker ExecObservers attached. The
    // observer hooks in the dispatch loop are one predicted branch
    // each when detached.
    setQuiet(true);
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    opt.dedup = false;
    opt.observe = state.range(0) != 0;
    auto specs = uniqueSpecs(kCampaignSize);
    engine.runCampaign(specs, opt); // warm the assembly memo
    engine.resetStats();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            engine.runCampaign(specs, opt).outcomes.size());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kCampaignSize));
}
BENCHMARK(BM_CampaignObserve)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"observe"});

} // namespace

BENCHMARK_MAIN();
