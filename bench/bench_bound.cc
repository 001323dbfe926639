/**
 * @file
 * Google-benchmark measurement of the static performance-bound
 * analyzer: the cost of one analysis per spec (assemble + decode +
 * def/use walk + maximum cycle mean + port enumeration). Not gated.
 */

#include <benchmark/benchmark.h>

#include "analysis/bound.hh"

namespace
{

using namespace nb;

void
BM_BoundCold(benchmark::State &state)
{
    // Single-spec analysis: assemble + decode + dependency closure +
    // binding-set port enumeration.
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

} // namespace

BENCHMARK_MAIN();
