/**
 * @file
 * Permutation policies (paper §VI-B1).
 *
 * A permutation policy maintains a total order of the elements in a cache
 * set; a hit updates the order based only on the accessed element's
 * position; a miss replaces the smallest element. Such a policy is fully
 * specified by A+1 permutations: one per hit position plus one for
 * misses. LRU, FIFO, and tree-based PLRU are permutation policies.
 *
 * Conventions used here:
 *  - position 0 is the smallest element (the victim on a miss);
 *  - a permutation pi maps old positions to new positions:
 *    new_order[pi[q]] = old_order[q];
 *  - on a miss, the new block first takes position 0 (replacing the
 *    victim), then the miss permutation is applied.
 */

#ifndef NB_CACHE_PERMUTATION_HH
#define NB_CACHE_PERMUTATION_HH

#include <string>
#include <vector>

#include "cache/policy.hh"

namespace nb::cache
{

/** The A+1 permutations that define a permutation policy. */
struct PermutationSpec
{
    /** hitPerms[p] is applied after a hit at position p. */
    std::vector<std::vector<unsigned>> hitPerms;
    /** Applied after a miss (with the new block at position 0). */
    std::vector<unsigned> missPerm;

    bool operator==(const PermutationSpec &) const = default;

    unsigned assoc() const
    {
        return static_cast<unsigned>(hitPerms.size());
    }

    /** Sanity-check that A is in [1, kMaxAssoc] and every entry is a
     *  permutation of 0..A-1. */
    bool isValid() const;

    /** Multi-line human-readable rendering. */
    std::string toString() const;

    /** The LRU policy as a permutation spec. */
    static PermutationSpec lru(unsigned assoc);

    /** The FIFO policy as a permutation spec. */
    static PermutationSpec fifo(unsigned assoc);
};

/**
 * A cache-set policy driven by an explicit PermutationSpec. Fills (into
 * empty ways) are treated like misses: the filled way takes position 0
 * and the miss permutation is applied.
 */
class PermutationPolicy : public SetPolicy
{
  public:
    PermutationPolicy(unsigned assoc, PermutationSpec spec);

    void reset() override;
    unsigned insertWay(WayMask valid) override;
    void onInsert(unsigned way, WayMask valid) override;
    void onHit(unsigned way, WayMask valid) override;
    std::string name() const override { return "PERMUTATION"; }
    std::unique_ptr<SetPolicy> clone() const override;
    std::string debugState() const override;

    const PermutationSpec &spec() const { return spec_; }

    /** Current position of @p way in the order (for tests). */
    unsigned positionOf(unsigned way) const;

  private:
    void applyPermutation(const std::vector<unsigned> &perm);
    void moveToPositionZero(unsigned way);

    PermutationSpec spec_;
    /** order_[pos] = way currently at position pos; pos 0 is smallest. */
    std::vector<unsigned> order_;
};

} // namespace nb::cache

#endif // NB_CACHE_PERMUTATION_HH
