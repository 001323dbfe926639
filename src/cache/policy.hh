/**
 * @file
 * Cache replacement policies (paper §VI-B).
 *
 * One policy instance manages the state of a single cache set. The cache
 * owns which ways are valid and passes them to every call as a WayMask:
 * bit w is way w, and a set has at most 64 ways. Policies are consulted
 * for insertion positions and notified of hits and insertions; the mask
 * passed to onInsert() already includes the inserted way. The modelled
 * policies are exactly those the paper discusses:
 *
 *  - LRU, FIFO, tree-based PLRU, Random (§VI-B1)
 *  - MRU (a.k.a. bit-PLRU / PLRUm / NRU), including the Sandy Bridge
 *    variant that sets all status bits when the cache is not yet full
 *    (§VI-B2, §VI-D)
 *  - the full QLRU family parameterized by hit-promotion function Hxy,
 *    insertion age Mx / MRpx, insertion/replacement location R0-R2, age
 *    update U0-U3, and the UMO ("update on miss only") flag (§VI-B2)
 */

#ifndef NB_CACHE_POLICY_HH
#define NB_CACHE_POLICY_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace nb::cache
{

/** The valid ways of one set: bit w is way w. */
using WayMask = std::uint64_t;

/** Largest associativity a WayMask can describe. */
inline constexpr unsigned kMaxAssoc = 64;

/** Mask with all @p assoc ways valid; @p assoc is in [1, kMaxAssoc]. */
constexpr WayMask
fullMask(unsigned assoc)
{
    return ~WayMask{0} >> (kMaxAssoc - assoc);
}

/** True if every one of the @p assoc ways is valid. */
constexpr bool
isFull(WayMask valid, unsigned assoc)
{
    return valid == fullMask(assoc);
}

/** Leftmost (lowest) invalid way, or nullopt if the set is full. */
constexpr std::optional<unsigned>
leftmostEmpty(WayMask valid, unsigned assoc)
{
    WayMask empty = ~valid & fullMask(assoc);
    if (empty == 0)
        return std::nullopt;
    return static_cast<unsigned>(std::countr_zero(empty));
}

/** Rightmost (highest) invalid way, or nullopt if the set is full. */
constexpr std::optional<unsigned>
rightmostEmpty(WayMask valid, unsigned assoc)
{
    WayMask empty = ~valid & fullMask(assoc);
    if (empty == 0)
        return std::nullopt;
    return static_cast<unsigned>(kMaxAssoc - 1 - std::countl_zero(empty));
}

/** Replacement state for one cache set. */
class SetPolicy
{
  public:
    explicit SetPolicy(unsigned assoc) : assoc_(assoc) {}
    virtual ~SetPolicy() = default;

    unsigned assoc() const { return assoc_; }

    /** Clear all state (e.g. after WBINVD). */
    virtual void reset() = 0;

    /**
     * Choose the way a new block is inserted into on a miss. @p valid
     * gives current occupancy; the returned way may be empty (a fill)
     * or occupied (a replacement).
     */
    virtual unsigned insertWay(WayMask valid) = 0;

    /** Notify that a new block was inserted into @p way; @p valid
     *  already includes @p way. */
    virtual void onInsert(unsigned way, WayMask valid) = 0;

    /** Notify that the block in @p way was accessed and hit. */
    virtual void onHit(unsigned way, WayMask valid) = 0;

    /** Notify that the block in @p way was invalidated (e.g. CLFLUSH). */
    virtual void onInvalidate(unsigned way) {(void)way;}

    /** Policy name using the paper's naming scheme. */
    virtual std::string name() const = 0;

    /** Deep copy (used by the policy-simulation tools). */
    virtual std::unique_ptr<SetPolicy> clone() const = 0;

    /** Internal state rendered for tests/debugging. */
    virtual std::string debugState() const { return ""; }

  protected:
    unsigned assoc_;
};

/** Least-recently-used. */
class LruPolicy : public SetPolicy
{
  public:
    explicit LruPolicy(unsigned assoc);

    void reset() override;
    unsigned insertWay(WayMask valid) override;
    void onInsert(unsigned way, WayMask valid) override;
    void onHit(unsigned way, WayMask valid) override;
    std::string name() const override { return "LRU"; }
    std::unique_ptr<SetPolicy> clone() const override;
    std::string debugState() const override;

  private:
    void touch(unsigned way);

    /** stamps_[w]: higher = more recently used. */
    std::vector<std::uint64_t> stamps_;
    std::uint64_t clock_ = 0;
};

/** First-in first-out: hits do not update the state. */
class FifoPolicy : public SetPolicy
{
  public:
    explicit FifoPolicy(unsigned assoc);

    void reset() override;
    unsigned insertWay(WayMask valid) override;
    void onInsert(unsigned way, WayMask valid) override;
    void onHit(unsigned way, WayMask valid) override;
    std::string name() const override { return "FIFO"; }
    std::unique_ptr<SetPolicy> clone() const override;
    std::string debugState() const override;

  private:
    std::vector<std::uint64_t> stamps_;
    std::uint64_t clock_ = 0;
};

/**
 * Tree-based pseudo-LRU (§VI-B1): a binary tree per set; the tree bits
 * point to the victim; accesses flip the bits on the root-to-leaf path
 * away from the accessed element. Associativity must be a power of two.
 */
class PlruPolicy : public SetPolicy
{
  public:
    explicit PlruPolicy(unsigned assoc);

    void reset() override;
    unsigned insertWay(WayMask valid) override;
    void onInsert(unsigned way, WayMask valid) override;
    void onHit(unsigned way, WayMask valid) override;
    std::string name() const override { return "PLRU"; }
    std::unique_ptr<SetPolicy> clone() const override;
    std::string debugState() const override;

  private:
    void touch(unsigned way);
    unsigned victim() const;

    /** Heap-layout tree bits; bits_[0] is the root. bit=0 points left. */
    std::vector<std::uint8_t> bits_;
    unsigned levels_;
};

/** Uniform-random replacement (needs the machine RNG for determinism). */
class RandomPolicy : public SetPolicy
{
  public:
    RandomPolicy(unsigned assoc, Rng *rng);

    void reset() override {}
    unsigned insertWay(WayMask valid) override;
    void onInsert(unsigned, WayMask) override {}
    void onHit(unsigned, WayMask) override {}
    std::string name() const override { return "RANDOM"; }
    std::unique_ptr<SetPolicy> clone() const override;

  private:
    Rng *rng_;
};

/**
 * MRU / bit-PLRU / PLRUm / NRU (§VI-B2): one status bit per line. An
 * access clears the line's bit; if it was the last set bit, all other
 * bits are set. A miss replaces the leftmost line whose bit is set.
 *
 * The Sandy Bridge variant (Table I footnote, §VI-D) additionally sets
 * all bits to one while the cache is not yet full after WBINVD.
 */
class MruPolicy : public SetPolicy
{
  public:
    /** @param sandy_bridge_variant enable the set-all-on-fill behaviour */
    MruPolicy(unsigned assoc, bool sandy_bridge_variant);

    void reset() override;
    unsigned insertWay(WayMask valid) override;
    void onInsert(unsigned way, WayMask valid) override;
    void onHit(unsigned way, WayMask valid) override;
    std::string name() const override;
    std::unique_ptr<SetPolicy> clone() const override;
    std::string debugState() const override;

  private:
    void access(unsigned way);

    /** Status bit per way, bit w = way w. */
    WayMask bits_;
    bool sbVariant_;
};

/** Parameters of a QLRU variant (§VI-B2). */
struct QlruSpec
{
    /** Hit promotion Hxy: age 3 -> hitX, age 2 -> hitY, else -> 0. */
    unsigned hitX = 1;      ///< x in {0, 1, 2}
    unsigned hitY = 1;      ///< y in {0, 1}
    /** Insertion age (Mx); with probDenom > 1, used with probability
     *  1/probDenom and age 3 otherwise (MRpx). */
    unsigned insertAge = 1; ///< x in {0, 1, 2, 3}
    unsigned probDenom = 1; ///< p; 1 means deterministic Mx
    /** Replacement/insertion location variant: 0, 1, or 2. */
    unsigned rVariant = 0;
    /** Age-update function: 0..3. */
    unsigned uVariant = 0;
    /** Update on miss only. */
    bool umo = false;

    bool operator==(const QlruSpec &) const = default;

    /** Paper-style name, e.g. "QLRU_H11_M1_R0_U0" or
     *  "QLRU_H11_MR161_R1_U2_UMO". */
    std::string name() const;

    /** Parse a paper-style name; nullopt if not a QLRU name. */
    static std::optional<QlruSpec> parse(const std::string &name);

    /** True if the parameter combination is meaningful (§VI-B2: e.g. R0
     *  cannot be combined with U2/U3). */
    bool isValid() const;
};

/** Quad-age LRU (QLRU / 2-bit RRIP) with the paper's parameter space. */
class QlruPolicy : public SetPolicy
{
  public:
    QlruPolicy(unsigned assoc, const QlruSpec &spec, Rng *rng);

    void reset() override;
    unsigned insertWay(WayMask valid) override;
    void onInsert(unsigned way, WayMask valid) override;
    void onHit(unsigned way, WayMask valid) override;
    std::string name() const override { return spec_.name(); }
    std::unique_ptr<SetPolicy> clone() const override;
    std::string debugState() const override;

    const QlruSpec &spec() const { return spec_; }

    /** Swap the spec while keeping the ages (used by set dueling). */
    void setSpec(const QlruSpec &spec);

    /** Ages vector (for tests). */
    const std::vector<std::uint8_t> &ages() const { return ages_; }

  private:
    /**
     * Apply the age update (§VI-B2): if no valid block has age 3, update
     * ages per the U variant. @p accessed is the way excluded by U1/U3,
     * or nullopt (miss-time update of UMO variants).
     */
    void normalize(std::optional<unsigned> accessed, WayMask valid);

    unsigned promote(unsigned age) const;
    unsigned chooseInsertAge();

    QlruSpec spec_;
    Rng *rng_;
    std::vector<std::uint8_t> ages_;
};

/**
 * Parse any policy name ("LRU", "FIFO", "PLRU", "MRU", "MRU_SBV",
 * "RANDOM", or a QLRU name) and build an instance.
 *
 * @throws nb::FatalError for unknown names and for an @p assoc outside
 *         [1, kMaxAssoc].
 */
std::unique_ptr<SetPolicy> makePolicy(const std::string &name,
                                      unsigned assoc, Rng *rng);

/**
 * All "meaningful" QLRU variants (§VI-C1 compares measurements against
 * them). Deterministic insertion only; @p max_total truncates the list
 * for tests.
 */
std::vector<QlruSpec> allQlruSpecs();

} // namespace nb::cache

#endif // NB_CACHE_POLICY_HH
