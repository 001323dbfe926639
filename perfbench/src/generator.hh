/**
 * @file
 * Seeded generator of the `batch` workload: a campaign of short,
 * unique-ish microbenchmarks drawn from the characterization catalog,
 * plus the history-independent invariants every result must satisfy.
 */

#ifndef PERFBENCH_GENERATOR_HH
#define PERFBENCH_GENERATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "uarch/uarch.hh"
#include "x86/instruction.hh"

namespace perfbench
{

/** Input specs per generated batch (before dedup). */
inline constexpr std::size_t kBatchSpecs = 1500;

/**
 * kBatchSpecs specs from @p seed, drawn from @p catalog (the
 * characterization catalog) without privileged instructions, control
 * flow (a lone `jz @1` does not assemble), and variants that fault on
 * arbitrary register state: DIV/IDIV (divide error), PUSH/POP
 * (unbalanced stack over many copies) and RDPMC (counter index taken
 * from ECX). Each body has 1-6 variants, mostly
 * register-only with some [R14] loads/stores (the R14 area is
 * L1-resident at this footprint); unroll and loop counts are mixed,
 * and every fifth spec is an exact copy of an earlier one, so campaign
 * dedup has work. Deterministic: the same catalog and seed give the
 * same specs.
 */
std::vector<nb::core::BenchmarkSpec> generateBatch(
    const std::vector<nb::x86::Instruction> &catalog, std::uint64_t seed);

/**
 * Check one batch result against properties that hold whatever the
 * pooled machine ran before: the normalized retired-instruction count
 * equals the body length, and the run's simulated cycles are at least
 * the static measurementCycleBound of one measurement execution.
 * Returns an empty string when both hold, else what failed.
 */
std::string checkBatchResult(const nb::uarch::MicroArch &ua,
                             const nb::core::BenchmarkSpec &spec,
                             const nb::RunOutcome &outcome);

} // namespace perfbench

#endif // PERFBENCH_GENERATOR_HH
