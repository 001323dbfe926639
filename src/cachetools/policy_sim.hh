/**
 * @file
 * Software simulation of a single cache set under a replacement policy.
 *
 * Used by the inference tools (§VI-C1): measured hit counts from the
 * hardware (here: the simulated machine, reached through nanoBench) are
 * compared against the predictions of these pure-software simulators for
 * every candidate policy.
 */

#ifndef NB_CACHETOOLS_POLICY_SIM_HH
#define NB_CACHETOOLS_POLICY_SIM_HH

#include <string>
#include <vector>

#include "cache/policy.hh"
#include "common/rng.hh"

namespace nb::cachetools
{

/** One access in an abstract per-set sequence. */
struct SeqAccess
{
    /** Abstract block id; blocks with equal ids are the same block. */
    int block = 0;
    /** Include this access in the hit count (§VI-C: per-element
     *  selection via the pause/resume feature). */
    bool measured = true;
    /** Execute WBINVD before this access (flush marker). */
    bool wbinvd = false;
};

/** Parse a sequence string: "<wbinvd> B0 B1 B0? A" -- identifiers name
 *  blocks; a trailing '?' excludes the access from measurement;
 *  "<wbinvd>" flushes. @throws nb::FatalError on syntax errors. */
std::vector<SeqAccess> parseAccessSeq(const std::string &text);

/** Render a sequence back to its string form (for reports). */
std::string accessSeqToString(const std::vector<SeqAccess> &seq);

/**
 * A software-simulated cache set: its own tags and valid mask over a
 * one-set replacement engine. It is the reference the cache tests
 * compare cache::Cache against.
 */
class PolicySim
{
  public:
    /** @throws nb::FatalError for an unknown policy name or an
     *  @p assoc outside [1, kMaxAssoc] (see cache::Replacement). */
    PolicySim(const std::string &policy, unsigned assoc, Rng *rng);

    /** Access a block; returns true on a hit. */
    bool access(int block);

    /** Flush the set. */
    void flush();

    /** Number of measured hits over a whole sequence (flushes first if
     *  the sequence starts with <wbinvd>). */
    unsigned runSequence(const std::vector<SeqAccess> &seq);

    /** Replacement state, rendered as cache::Replacement::state(). */
    std::string state() const { return policy_.state(0); }
    unsigned assoc() const { return policy_.assoc(); }

  private:
    cache::Replacement policy_;
    /** tags_[way], meaningful only while the way is in valid_. */
    std::vector<int> tags_;
    cache::WayMask valid_ = 0;
};

/**
 * Mean measured hits of @p seq under @p policy_name, averaged over
 * @p reps runs, each from a flushed (fresh) set drawing from @p rng
 * (probabilistic policies need several runs). The inference decoders
 * predict measurements with it.
 */
double simulatedHits(const std::string &policy_name, unsigned assoc,
                     const std::vector<SeqAccess> &seq, Rng *rng,
                     unsigned reps = 1);

} // namespace nb::cachetools

#endif // NB_CACHETOOLS_POLICY_SIM_HH
