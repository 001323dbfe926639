/**
 * @file
 * Case study I (paper §V): automatic characterization of instruction
 * latency, throughput, and port usage, in the style of uops.info.
 *
 * For each instruction variant the tool generates microbenchmarks:
 *
 *  - latency: a dependency chain through the destination/source
 *    operands (pointer chasing for loads, flag chains for SETcc, the
 *    implicit RAX/RDX chain for MUL/DIV);
 *  - throughput: many independent instances using rotated destination
 *    registers (with dependency-breaking idioms where needed);
 *  - port usage: the same throughput benchmark, read with the
 *    UOPS_DISPATCHED_PORT.* events.
 *
 * The work is organized as a plan/decode split so full-catalog
 * characterization can ride the parallel campaign executor:
 *
 *  1. plan() walks the variant catalog and emits plain BenchmarkSpecs,
 *     each tagged with a decoder (PlannedSpec) describing how to fold
 *     its BenchmarkResult back into a VariantResult: at most one
 *     latency chain and exactly one throughput spec per measurable
 *     variant, the latter counting cycles, µops and every port;
 *  2. the specs run anywhere -- a single Session, or fanned out via
 *     Engine::runCampaign();
 *  3. decode() assembles VariantResults in catalog order, tolerating
 *     per-spec RunErrors: a failed latency chain downgrades latency
 *     to nullopt, a failed throughput benchmark marks the variant
 *     errored -- the catalog never aborts.
 *
 * The kernel-space runner allows characterizing privileged
 * instructions (RDMSR, WBINVD, CLI, ...), which no previous tool
 * could do (§V).
 */

#ifndef NB_UOPS_CHARACTERIZE_HH
#define NB_UOPS_CHARACTERIZE_HH

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "core/runner.hh"

namespace nb::uops
{

/** Measured characteristics of one instruction variant. */
struct VariantResult
{
    std::string signature;   ///< e.g. "ADD_R64_R64"
    std::string asmText;     ///< example instance
    /** Chain latency in cycles; nullopt if no chain can be built (or
     *  the chain benchmark failed). */
    std::optional<double> latency;
    /** Reciprocal throughput in cycles per instruction. */
    double throughput = 0.0;
    /** Executed µops per instruction. */
    double uops = 0.0;
    /** Port -> µops per instruction (measured). */
    std::map<unsigned, double> portUsage;
    /** Set if the variant needs kernel mode but the runner is user. */
    bool requiresKernelMode = false;
    /** Non-empty if the variant's throughput benchmark failed;
     *  the other fields are unreliable then. */
    std::string error;

    /** True unless the throughput benchmark failed. */
    bool ok() const { return error.empty(); }

    /** Compact port string, e.g. "p2:0.50 p3:0.50". */
    std::string portString() const;
    /** One table row. */
    std::string tableRow() const;
};

/**
 * One planned benchmark plus the decoder that folds its result back
 * into a VariantResult. Plain data: the spec can run on any session
 * or go through a campaign.
 */
struct PlannedSpec
{
    enum class Role : std::uint8_t
    {
        /** Decode chain cycles into VariantResult::latency. */
        Latency,
        /** Decode cycles, µops and UOPS_DISPATCHED_PORT.* into
         *  throughput, uops and portUsage. */
        Throughput,
    };

    core::BenchmarkSpec spec;
    Role role = Role::Throughput;
    /** Index into CharacterizationPlan::rows this spec folds into. */
    std::size_t variant = 0;
    /** Latency decode: auxiliary chain cycles and links per body. */
    double overheadCycles = 0.0;
    unsigned linksPerIteration = 1;
    /** Throughput decode: independent copies per iteration and
     *  whether dependency-breaking instructions inflate the counts. */
    unsigned copies = 1;
    bool depBroken = false;
};

/** A full characterization work list, ready for a campaign. */
struct CharacterizationPlan
{
    /** The instruction variants, in catalog order. */
    std::vector<x86::Instruction> catalog;
    /** Partially-filled rows (signature, asm text, kernel-mode flag),
     *  one per catalog entry; decode() completes them. */
    std::vector<VariantResult> rows;
    /** The benchmarks to execute, with their decoders. */
    std::vector<PlannedSpec> specs;
    /** Whether cycles come from the fixed counter or APERF (§II-A1). */
    bool hasFixedCounters = true;
    /** Ports modelled by the planning machine's microarchitecture. */
    unsigned numPorts = 0;
};

/** The characterization tool bound to one runner. */
class Characterizer
{
  public:
    explicit Characterizer(core::Runner &runner);

    /** Same, bound to the runner of an Engine session. The session's
     *  machine must outlive this tool. */
    explicit Characterizer(Session &session);

    /** Plan benchmarks for the given variants. */
    CharacterizationPlan plan(
        const std::vector<x86::Instruction> &variants) const;

    /** Plan the whole variant catalog. */
    CharacterizationPlan plan() const;

    /**
     * Fold campaign/batch outcomes back into rows, in catalog order.
     * @p outcomes must have one entry per plan.specs element, in plan
     * order (exactly what runCampaign()/runBatch() return for the
     * extracted spec list). Failed outcomes degrade gracefully: a
     * failed latency chain leaves latency unset, a failed throughput
     * benchmark marks the variant errored.
     */
    static std::vector<VariantResult> decode(
        const CharacterizationPlan &plan,
        std::span<const RunOutcome> outcomes);

    /** Benchmark specs of a plan, in plan order (campaign input). */
    static std::vector<core::BenchmarkSpec> planSpecs(
        const CharacterizationPlan &plan);

    /** Characterize a single variant (plan + run + decode on this
     *  tool's runner). */
    VariantResult characterize(const x86::Instruction &insn);

    /** All instruction variants of the modelled ISA, specialized for
     *  the runner's microarchitecture (unsupported opcodes omitted). */
    std::vector<x86::Instruction> variantCatalog() const;

    /** Table header matching VariantResult::tableRow(). */
    static std::string tableHeader();

  private:
    struct ChainSpec
    {
        std::vector<x86::Instruction> body;
        std::vector<x86::Instruction> init;
        /** Chain links per body execution. */
        unsigned linksPerIteration = 1;
        /** Cycles contributed by auxiliary chain instructions. */
        double overheadCycles = 0.0;
    };

    /** Build a latency chain; nullopt if the variant has no register
     *  result to chain through. */
    std::optional<ChainSpec> buildLatencyChain(
        const x86::Instruction &insn) const;

    /** Build the independent-instances throughput benchmark. */
    ChainSpec buildThroughputBench(const x86::Instruction &insn,
                                   unsigned copies) const;

    core::Runner &runner_;
};

} // namespace nb::uops

#endif // NB_UOPS_CHARACTERIZE_HH
