/**
 * @file
 * Google-benchmark measurements of full-catalog instruction-table
 * characterization (§V): one session running the plan serially vs
 * the campaign-backed builder at several worker counts, plus the
 * dedup effect of the shared throughput/port specs. The CI
 * bench-regression job compares the parallel-vs-serial ratio against
 * a committed baseline; see tools/check_bench.py.
 */

#include <benchmark/benchmark.h>

#include <unordered_map>

#include "uops/table.hh"

namespace
{

using namespace nb;

/**
 * The catalog on one session: plan -> Session::runBatch -> decode. Each
 * unique spec runs once, as the campaign's dedup does, so both sides of
 * table_jobs4_vs_serial do the same work. Returns the row count.
 */
std::size_t
characterizeSerially(Session &session)
{
    uops::CharacterizationPlan plan = uops::Characterizer(session).plan();
    std::unordered_map<std::string, std::size_t> first;
    std::vector<core::BenchmarkSpec> unique;
    std::vector<std::size_t> slot;
    for (const auto &planned : plan.specs) {
        auto [it, inserted] = first.emplace(
            core::specCanonicalKey(planned.spec), unique.size());
        if (inserted)
            unique.push_back(planned.spec);
        slot.push_back(it->second);
    }
    std::vector<RunOutcome> ran = session.runBatch(unique);
    std::vector<RunOutcome> outcomes;
    outcomes.reserve(slot.size());
    for (std::size_t i : slot)
        outcomes.push_back(ran[i]);
    return uops::Characterizer::decode(plan, outcomes).size();
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
BM_TableNoDedup(benchmark::State &state)
{
    // Without dedup every variant's throughput benchmark runs twice
    // (once for the throughput decoder, once for ports).
    setQuiet(true);
    Engine engine;
    uops::TableBuildOptions opt;
    opt.jobs = 1;
    opt.dedup = false;
    uops::buildInstructionTable(engine, opt);
    engine.resetStats();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            uops::buildInstructionTable(engine, opt).table.rows.size());
    }
}
BENCHMARK(BM_TableNoDedup)->Unit(benchmark::kMillisecond);

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
