/**
 * @file
 * Google-benchmark measurements of full-catalog instruction-table
 * characterization (§V): one session running the plan serially vs
 * the campaign-backed builder at several worker counts. The CI
 * bench-regression job compares the parallel-vs-serial ratio against
 * a committed baseline; see tools/check_bench.py.
 */

#include <benchmark/benchmark.h>

#include "uops/table.hh"

namespace
{

using namespace nb;

/**
 * The catalog on one session: plan -> Session::runBatch -> decode.
 * The plan measures each variant once, so both sides of
 * table_jobs4_vs_serial do the same work. Returns the row count.
 */
std::size_t
characterizeSerially(Session &session)
{
    uops::CharacterizationPlan plan = uops::Characterizer(session).plan();
    return uops::Characterizer::decode(
               plan,
               session.runBatch(uops::Characterizer::planSpecs(plan)))
        .size();
}

void
BM_TableSerial(benchmark::State &state)
{
    setQuiet(true);
    Engine engine;
    Session session = engine.session({});
    for (auto _ : state)
        benchmark::DoNotOptimize(characterizeSerially(session));
    state.counters["variants"] = static_cast<double>(
        uops::Characterizer(session).variantCatalog().size());
}
BENCHMARK(BM_TableSerial)->Unit(benchmark::kMillisecond);

void
BM_TableCampaign(benchmark::State &state)
{
    setQuiet(true);
    Engine engine;
    uops::TableBuildOptions opt;
    opt.jobs = static_cast<unsigned>(state.range(0));
    uops::buildInstructionTable(engine, opt); // warm the memos
    std::size_t cache_hits = 0;
    for (auto _ : state) {
        auto build = uops::buildInstructionTable(engine, opt);
        cache_hits = build.report.cacheHits;
        benchmark::DoNotOptimize(build.table.rows.size());
    }
    state.counters["cache_hits"] = static_cast<double>(cache_hits);
}
BENCHMARK(BM_TableCampaign)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_TableSerialization(benchmark::State &state)
{
    setQuiet(true);
    Engine engine;
    uops::TableBuildOptions opt;
    opt.jobs = 2;
    auto build = uops::buildInstructionTable(engine, opt);
    for (auto _ : state) {
        auto json = build.table.toJson();
        auto parsed = uops::InstructionTable::fromJson(json);
        benchmark::DoNotOptimize(parsed.rows.size());
    }
}
BENCHMARK(BM_TableSerialization)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
