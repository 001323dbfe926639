/**
 * @file
 * Inference-tool implementation.
 */

#include "infer.hh"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/bits.hh"
#include "common/logging.hh"

namespace nb::cachetools
{

namespace
{

/** Fresh block ids are taken from a range far above the fill blocks. */
int
freshId(unsigned j)
{
    return 1000 + static_cast<int>(j);
}

/** <wbinvd>, then an unmeasured fill of blocks 0 .. n-1. */
std::vector<SeqAccess>
flushAndFill(unsigned n)
{
    std::vector<SeqAccess> seq;
    seq.push_back({-1, false, true}); // <wbinvd>
    for (unsigned i = 0; i < n; ++i)
        seq.push_back({static_cast<int>(i), false, false});
    return seq;
}

/** Append a sequence and the spec measuring it to @p plan. */
void
addSequence(SeqPlan &plan, CacheSeq &cs, std::vector<SeqAccess> seq)
{
    plan.specs.push_back(cs.planSeq(seq));
    plan.sequences.push_back(std::move(seq));
}

/** Measured hits of the targeted level in a successful outcome. */
double
measuredHits(CacheLevel level, const RunOutcome &outcome)
{
    return outcome.result()[CacheSeq::hitEventName(level)];
}

/** One random identification sequence (§VI-C1): flushed first, a few
 *  more blocks than ways, every access measured. */
std::vector<SeqAccess>
randomIdSequence(Rng &rng, unsigned assoc, unsigned seq_length_factor)
{
    unsigned n_blocks =
        assoc + 1 + static_cast<unsigned>(rng.nextBelow(4));
    unsigned length = assoc * seq_length_factor +
                      static_cast<unsigned>(rng.nextBelow(assoc));
    std::vector<SeqAccess> seq;
    seq.push_back({-1, false, true});
    for (unsigned k = 0; k < length; ++k) {
        seq.push_back(
            {static_cast<int>(rng.nextBelow(n_blocks)), true, false});
    }
    return seq;
}

} // namespace

// ------------------------------------------------------ associativity --

AssocPlan
planAssociativity(CacheSeq &seq, unsigned max_assoc)
{
    AssocPlan plan;
    plan.level = seq.options().level;
    plan.maxAssoc = max_assoc;
    for (unsigned k = 1; k <= max_assoc; ++k) {
        std::vector<SeqAccess> s = flushAndFill(k);
        for (unsigned i = 0; i < k; ++i)
            s.push_back({static_cast<int>(i), true, false});
        addSequence(plan, seq, std::move(s));
    }
    return plan;
}

AssocResult
decodeAssociativity(const AssocPlan &plan,
                    std::span<const RunOutcome> outcomes)
{
    NB_ASSERT(outcomes.size() == plan.maxAssoc,
              "associativity decode needs one outcome per spec");
    AssocResult out;
    for (unsigned k = 1; k <= plan.maxAssoc; ++k) {
        const RunOutcome &outcome = outcomes[k - 1];
        if (!outcome.ok()) {
            // No information beyond this point; report the lower
            // bound found so far plus the failure.
            out.error = outcome.error().message;
            return out;
        }
        if (measuredHits(plan.level, outcome) + 0.5 < k)
            break;
        out.assoc = k;
    }
    return out;
}

// -------------------------------------------------------- permutation --

PermutationPlan
planPermutation(CacheSeq &seq, unsigned assoc)
{
    PermutationPlan plan;
    plan.level = seq.options().level;
    plan.assoc = assoc;

    // Contexts: -1 = bare fill; 0..A-1 = hit access to block b after the
    // fill; A = one additional miss (a fresh block).
    std::vector<int> contexts;
    contexts.push_back(-1);
    for (unsigned b = 0; b < assoc; ++b)
        contexts.push_back(static_cast<int>(b));
    contexts.push_back(freshId(900)); // a miss access

    for (int extra : contexts) {
        for (unsigned j = 1; j <= assoc; ++j) {
            for (unsigned i = 0; i < assoc; ++i) {
                std::vector<SeqAccess> s = flushAndFill(assoc);
                if (extra >= 0)
                    s.push_back({extra, false, false});
                for (unsigned f = 0; f < j; ++f)
                    s.push_back({freshId(f), false, false});
                s.push_back({static_cast<int>(i), true, false});
                addSequence(plan, seq, std::move(s));
            }
        }
    }
    return plan;
}

std::optional<std::string>
decodePermutation(const PermutationPlan &plan,
                  std::span<const RunOutcome> outcomes)
{
    NB_ASSERT(outcomes.size() == plan.sequences.size(),
              "permutation decode needs one outcome per spec");
    std::vector<bool> survives;
    for (const RunOutcome &outcome : outcomes) {
        if (!outcome.ok())
            return std::nullopt;
        survives.push_back(measuredHits(plan.level, outcome) >= 0.5);
    }

    std::vector<std::string> refs = {"LRU", "FIFO"};
    if (isPowerOfTwo(plan.assoc))
        refs.push_back("PLRU");
    Rng sim_rng(12345); // the references are deterministic anyway
    for (const auto &name : refs) {
        bool match = true;
        for (std::size_t s = 0; match && s < plan.sequences.size(); ++s) {
            match = (simulatedHits(name, plan.assoc, plan.sequences[s],
                                   &sim_rng) >= 0.5) == survives[s];
        }
        if (match)
            return name;
    }
    return std::nullopt;
}

// ---------------------------------------------------- random sequences --

std::vector<std::string>
candidatePolicyNames(unsigned assoc)
{
    std::vector<std::string> names = {"LRU", "FIFO", "MRU", "MRU_SBV"};
    if (isPowerOfTwo(assoc))
        names.push_back("PLRU");
    for (const auto &spec : cache::allQlruSpecs())
        names.push_back(spec.name());
    return names;
}

PolicyIdPlan
planPolicyId(CacheSeq &seq, unsigned assoc, Rng &rng,
             unsigned n_sequences, unsigned seq_length_factor)
{
    PolicyIdPlan plan;
    plan.level = seq.options().level;
    plan.assoc = assoc;
    for (unsigned s = 0; s < n_sequences; ++s) {
        auto sequence = randomIdSequence(rng, assoc, seq_length_factor);
        core::BenchmarkSpec spec = seq.planSeq(sequence);
        spec.nMeasurements = 2;
        spec.agg = Aggregate::Minimum;
        plan.specs.push_back(spec);
        spec.agg = Aggregate::Maximum;
        plan.specs.push_back(std::move(spec));
        plan.sequences.push_back(std::move(sequence));
    }
    return plan;
}

PolicyIdentification
decodePolicyId(const PolicyIdPlan &plan,
               std::span<const RunOutcome> outcomes)
{
    NB_ASSERT(outcomes.size() == 2 * plan.sequences.size(),
              "policy decode needs two outcomes per sequence");
    PolicyIdentification out;

    struct Candidate
    {
        std::string name;
        bool alive = true;
    };
    std::vector<Candidate> candidates;
    for (auto &name : candidatePolicyNames(plan.assoc))
        candidates.push_back({name, true});

    Rng sim_rng(12345); // candidate simulations are deterministic anyway

    for (std::size_t s = 0; s < plan.sequences.size(); ++s) {
        const RunOutcome &lo = outcomes[2 * s];
        const RunOutcome &hi = outcomes[2 * s + 1];
        if (!lo.ok() || !hi.ok()) {
            ++out.sequencesSkipped;
            continue;
        }
        ++out.sequencesTested;
        double min_hits = measuredHits(plan.level, lo);
        double max_hits = measuredHits(plan.level, hi);
        if (min_hits != max_hits ||
            min_hits != std::floor(min_hits)) {
            // The two runs of the same benchmark disagree (or the
            // count is fractional): not deterministic (§VI-D).
            out.deterministic = false;
            out.matches.clear();
            return out;
        }
        auto expected = static_cast<unsigned>(min_hits);
        for (auto &cand : candidates) {
            if (!cand.alive)
                continue;
            if (static_cast<unsigned>(simulatedHits(
                    cand.name, plan.assoc, plan.sequences[s],
                    &sim_rng)) != expected)
                cand.alive = false;
        }
    }

    // Without a single measured sequence nothing was eliminated, and
    // nothing was confirmed either.
    if (out.sequencesTested == 0)
        return out;
    for (const auto &cand : candidates) {
        if (cand.alive)
            out.matches.push_back(cand.name);
    }
    return out;
}

// ---------------------------------------------------------- age graphs --

std::string
AgeGraph::toCsv() const
{
    std::ostringstream os;
    os << "fresh";
    for (unsigned b = 0; b < nBlocks; ++b)
        os << ",B" << b;
    os << "\n";
    for (std::size_t p = 0; p < freshCounts.size(); ++p) {
        os << freshCounts[p];
        for (unsigned b = 0; b < nBlocks; ++b)
            os << "," << hitRate[b][p];
        os << "\n";
    }
    return os.str();
}

AgeGraphPlan
planAgeGraph(CacheSeq &seq, unsigned n_blocks, unsigned max_fresh,
             unsigned step)
{
    AgeGraphPlan plan;
    plan.level = seq.options().level;
    plan.nBlocks = n_blocks;
    for (unsigned n = 0; n <= max_fresh; n += step)
        plan.freshCounts.push_back(n);
    for (unsigned b = 0; b < n_blocks; ++b) {
        for (unsigned n : plan.freshCounts) {
            std::vector<SeqAccess> s = flushAndFill(n_blocks);
            for (unsigned f = 0; f < n; ++f)
                s.push_back({freshId(f), false, false});
            s.push_back({static_cast<int>(b), true, false});
            addSequence(plan, seq, std::move(s));
        }
    }
    return plan;
}

AgeGraph
decodeAgeGraph(const AgeGraphPlan &plan,
               std::span<const RunOutcome> outcomes)
{
    NB_ASSERT(outcomes.size() == plan.sequences.size(),
              "age-graph decode needs one outcome per spec");
    AgeGraph graph;
    graph.nBlocks = plan.nBlocks;
    graph.freshCounts = plan.freshCounts;
    graph.hitRate.assign(plan.nBlocks, {});
    auto next = outcomes.begin();
    for (auto &rates : graph.hitRate) {
        for (std::size_t p = 0; p < plan.freshCounts.size(); ++p, ++next) {
            rates.push_back(next->ok()
                                ? measuredHits(plan.level, *next)
                                : std::numeric_limits<double>::quiet_NaN());
        }
    }
    return graph;
}

} // namespace nb::cachetools
