/**
 * @file
 * Replacement-policy inference tools (paper §VI-C1, §VI-C2).
 *
 * Four tools, mirroring the paper:
 *
 * 1. Associativity: the largest k such that k freshly filled blocks
 *    can all be re-accessed without a miss.
 *
 * 2. Permutation-policy inference ([15], RTAS 2013): establish a known
 *    cache state, perform one access, and observe the resulting
 *    eviction order through fresh-miss probing. The observable
 *    behaviour forms a *fingerprint*; a policy is identified by
 *    comparing it against the fingerprints of reference policies
 *    (LRU, FIFO, PLRU), obtained by simulating the *same* sequences.
 *
 * 3. Random-sequence identification: generate random access sequences,
 *    compare measured hit counts against simulations of all candidate
 *    policies (LRU, FIFO, PLRU, MRU variants, and all meaningful QLRU
 *    variants, §VI-B2); report the candidates that agree with every
 *    measurement. Non-deterministic behaviour (e.g. probabilistic
 *    insertion, §VI-D) is detected and reported, to be analyzed with
 *    age graphs instead.
 *
 * 4. Age graphs (§VI-C2 / Figure 1): how often each block of a fill
 *    still hits after n fresh blocks.
 *
 * Every tool is a plan/decode pair, like planTlb()/decodeTlb(): plan*()
 * emits plain BenchmarkSpecs against a CacheSeq target and keeps the
 * abstract sequences they encode; the caller runs them in plan order
 * (Session::runBatch() on the session the CacheSeq is bound to, or
 * Engine::runCampaign() on workers set up with the same memory layout);
 * decode*() folds the outcomes back, tolerating per-spec failures.
 * Decoders read only the targeted level's hit event.
 */

#ifndef NB_CACHETOOLS_INFER_HH
#define NB_CACHETOOLS_INFER_HH

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cachetools/cacheseq.hh"
#include "cachetools/policy_sim.hh"
#include "common/rng.hh"
#include "core/engine.hh"

namespace nb::cachetools
{

/** What every plan holds: the level its specs measure, the abstract
 *  sequences, and the specs encoding them, in plan order. */
struct SeqPlan
{
    CacheLevel level = CacheLevel::L1;
    std::vector<std::vector<SeqAccess>> sequences;
    std::vector<core::BenchmarkSpec> specs;
};

/** Planned associativity measurement: sequence/spec k-1 probes whether
 *  k freshly filled blocks all re-hit (k = 1 .. maxAssoc, in order). */
struct AssocPlan : SeqPlan
{
    unsigned maxAssoc = 0;
};

AssocPlan planAssociativity(CacheSeq &seq, unsigned max_assoc = 32);

/** Decoded associativity; error is set if the measurement broke off
 *  early on a failed benchmark (assoc is the best lower bound then). */
struct AssocResult
{
    unsigned assoc = 0;
    std::string error;
};

AssocResult decodeAssociativity(const AssocPlan &plan,
                                std::span<const RunOutcome> outcomes);

/**
 * Planned permutation fingerprint: for every context (bare fill of
 * assoc blocks, a hit to each filled block, one extra miss) and every
 * number of fresh misses j = 1..assoc, one sequence per filled block i
 * that probes whether Bi survives. Nesting order: context, j, i.
 */
struct PermutationPlan : SeqPlan
{
    unsigned assoc = 0;
};

PermutationPlan planPermutation(CacheSeq &seq, unsigned assoc);

/**
 * The reference policy (LRU, FIFO, or PLRU for power-of-two
 * associativities) whose simulated survivals of the plan's sequences
 * equal the measured ones; nullopt if none does (not a permutation
 * policy of the known references) or a benchmark failed.
 */
std::optional<std::string> decodePermutation(
    const PermutationPlan &plan, std::span<const RunOutcome> outcomes);

/** Result of the random-sequence identification (§VI-C1, tool 2). */
struct PolicyIdentification
{
    /** Candidate policies that agree with every measurement; empty if
     *  no sequence was measured. */
    std::vector<std::string> matches;
    /** Measurements were reproducible (integral and stable). */
    bool deterministic = true;
    /** Number of sequences tested. */
    unsigned sequencesTested = 0;
    /** Sequences whose benchmark failed; they constrain nothing, the
     *  rest still identify. */
    unsigned sequencesSkipped = 0;
};

/** Candidate policy names: basic policies + all meaningful QLRU
 *  variants (PLRU only for power-of-two associativities). */
std::vector<std::string> candidatePolicyNames(unsigned assoc);

/**
 * Planned random-sequence policy identification. Every sequence maps
 * to TWO specs (aggregate Min and Max over two measurement runs):
 * comparing the two aggregates of the same body is the determinism
 * check, and the differing aggregate keeps campaign dedup from
 * collapsing the pair.
 */
struct PolicyIdPlan : SeqPlan
{
    unsigned assoc = 0;
    // specs[2*i] / specs[2*i+1]: Min/Max spec of sequences[i].
};

PolicyIdPlan planPolicyId(CacheSeq &seq, unsigned assoc, Rng &rng,
                          unsigned n_sequences = 150,
                          unsigned seq_length_factor = 3);

PolicyIdentification decodePolicyId(
    const PolicyIdPlan &plan, std::span<const RunOutcome> outcomes);

/** Age graph (paper §VI-C2 / Figure 1). */
struct AgeGraph
{
    unsigned nBlocks = 0;
    std::vector<unsigned> freshCounts;
    /** hitRate[block][point] in [0,1]; NaN where the benchmark
     *  failed. */
    std::vector<std::vector<double>> hitRate;

    /** Render as CSV: header + one row per fresh count. */
    std::string toCsv() const;
};

/**
 * Planned age graph for the sequence <wbinvd> B0 ... B{nBlocks-1}: for
 * each block b and each fresh count n = 0, step, .. <= max_fresh, one
 * sequence that re-accesses Bb after n fresh blocks. Nesting order: b,
 * n. The mean over the CacheSeq's repetitions is the hit probability.
 */
struct AgeGraphPlan : SeqPlan
{
    unsigned nBlocks = 0;
    std::vector<unsigned> freshCounts;
};

AgeGraphPlan planAgeGraph(CacheSeq &seq, unsigned n_blocks,
                          unsigned max_fresh, unsigned step = 4);

AgeGraph decodeAgeGraph(const AgeGraphPlan &plan,
                        std::span<const RunOutcome> outcomes);

} // namespace nb::cachetools

#endif // NB_CACHETOOLS_INFER_HH
