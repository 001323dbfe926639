/**
 * @file
 * Cache replacement policies (paper §VI-B).
 *
 * One Replacement engine holds the replacement state of every set of one
 * cache in flat arrays, a 64-bit word per set plus a stamp or an age per
 * way, and runs one switch on the policy kind per operation. The cache owns
 * which ways are valid and passes them to every call as a WayMask: bit w
 * is way w, and a set has at most 64 ways. The engine is consulted for
 * insertion positions and notified of hits and insertions; the mask
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
 *  - adaptive QLRU by set dueling (§VI-B3): QLRU whose spec is chosen
 *    per set from the two specs of a DuelingConfig
 */

#ifndef NB_CACHE_POLICY_HH
#define NB_CACHE_POLICY_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/dueling.hh"
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

/**
 * All "meaningful" QLRU variants (§VI-C1 compares measurements against
 * them), with deterministic insertion only.
 */
std::vector<QlruSpec> allQlruSpecs();

/** The modelled replacement-policy kinds. */
enum class PolicyKind : std::uint8_t
{
    Lru,
    Fifo,
    Plru,
    Random,
    Mru,
    MruSbv,
    Qlru,
};

/**
 * The replacement state of every set of one cache.
 *
 * Per set, the state is one 64-bit word plus one entry per way:
 *  - LRU and FIFO keep the set's clock in the word and a 64-bit stamp
 *    per way (the clock at the way's last touch or insertion); a full
 *    set replaces its lowest-stamped way;
 *  - PLRU keeps its assoc-1 tree bits in the word, in heap layout
 *    (bit 0 is the root; a clear bit points left);
 *  - MRU keeps one status bit per way in the word;
 *  - QLRU keeps the ages (0-3) in a byte per way, and adaptive QLRU the
 *    set's DuelRole in the word;
 *  - Random keeps nothing.
 *
 * A set's state is undefined until reset(set), so a large cache keeps
 * only its touched sets resident. Neither construction nor reset()
 * draws from the RNG; Random draws on a replacement and MRpx insertion
 * on every insert. The non-QLRU kinds run inline; QLRU, with its spec
 * choice and age update, runs out of line.
 */
class Replacement
{
  public:
    /**
     * A fixed policy for @p num_sets sets, by name: "LRU", "FIFO",
     * "PLRU", "MRU", "MRU_SBV" (or "MRU*"), "RANDOM", or a QLRU name.
     *
     * @throws nb::FatalError for an unknown name and for an @p assoc
     *         outside [1, kMaxAssoc].
     * @throws nb::PanicError for PLRU with a non-power-of-two @p assoc,
     *         an invalid QLRU spec, or a probabilistic policy without
     *         @p rng.
     */
    Replacement(const std::string &policy, unsigned assoc,
                unsigned num_sets, Rng *rng);

    /**
     * Adaptive QLRU for slice @p slice of a dueling cache: leader sets
     * always use their own spec and vote in @p duel on every insert;
     * follower sets use the spec of the PSEL winner.
     *
     * @throws nb::FatalError for an @p assoc outside [1, kMaxAssoc].
     * @throws nb::PanicError if either policy is not a valid QLRU name.
     */
    Replacement(const DuelingConfig &dueling, unsigned slice,
                unsigned assoc, unsigned num_sets, DuelState *duel,
                Rng *rng);

    unsigned assoc() const { return assoc_; }

    /** Clear the state of @p set (a fill into a stale set, WBINVD). */
    void
    reset(unsigned set)
    {
        switch (kind_) {
          case PolicyKind::Lru:
          case PolicyKind::Fifo:
            words_[set] = 0;
            std::fill_n(stamps(set), assoc_, std::uint64_t{0});
            break;
          case PolicyKind::Plru:
            words_[set] = 0;
            break;
          case PolicyKind::Random:
            break;
          case PolicyKind::Mru:
          case PolicyKind::MruSbv:
            words_[set] = fullMask(assoc_);
            break;
          case PolicyKind::Qlru:
            resetQlru(set);
            break;
        }
    }

    /**
     * Choose the way a new block is inserted into on a miss. @p valid
     * gives current occupancy; the returned way may be empty (a fill)
     * or occupied (a replacement).
     */
    unsigned
    insertWay(unsigned set, WayMask valid)
    {
        if (kind_ == PolicyKind::Qlru)
            return qlruInsertWay(set, valid);
        if (auto w = leftmostEmpty(valid, assoc_))
            return *w;
        switch (kind_) {
          case PolicyKind::Lru:
          case PolicyKind::Fifo: {
            // Every way of a full set was stamped since its reset, so
            // the stamps are distinct and the oldest way is unique.
            const std::uint64_t *stamp = stamps(set);
            return static_cast<unsigned>(
                std::min_element(stamp, stamp + assoc_) - stamp);
          }
          case PolicyKind::Plru: {
            // Follow the tree bits from the root: 0 -> left, 1 -> right.
            std::uint64_t bits = words_[set];
            unsigned node = 0;
            while (node < assoc_ - 1)
                node = 2 * node + 1 +
                       static_cast<unsigned>(bits >> node & 1);
            return node - (assoc_ - 1);
          }
          case PolicyKind::Random:
            return static_cast<unsigned>(rng_->nextBelow(assoc_));
          case PolicyKind::Mru:
          case PolicyKind::MruSbv: {
            // Replace the leftmost way whose bit is set. touchMru()
            // keeps one set unless the set has a single way.
            WayMask bits = words_[set];
            return bits != 0 ? static_cast<unsigned>(std::countr_zero(bits))
                             : 0;
          }
          case PolicyKind::Qlru:
            break;
        }
        return 0;
    }

    /** Notify that a new block was inserted into @p way; @p valid
     *  already includes @p way. */
    void
    onInsert(unsigned set, unsigned way, WayMask valid)
    {
        switch (kind_) {
          case PolicyKind::Lru:
          case PolicyKind::Fifo:
            stamps(set)[way] = ++words_[set];
            break;
          case PolicyKind::Plru:
            touchTree(set, way);
            break;
          case PolicyKind::Random:
            break;
          case PolicyKind::MruSbv:
            // Sandy Bridge variant: while the set is not yet full, fills
            // leave all status bits set (newly inserted blocks are
            // eviction candidates immediately).
            if (!isFull(valid, assoc_))
                words_[set] = fullMask(assoc_);
            else
                touchMru(set, way);
            break;
          case PolicyKind::Mru:
            touchMru(set, way);
            break;
          case PolicyKind::Qlru:
            qlruOnInsert(set, way, valid);
            break;
        }
    }

    /** Notify that the block in @p way was accessed and hit. */
    void
    onHit(unsigned set, unsigned way, WayMask valid)
    {
        switch (kind_) {
          case PolicyKind::Lru:
            stamps(set)[way] = ++words_[set];
            break;
          case PolicyKind::Plru:
            touchTree(set, way);
            break;
          case PolicyKind::Fifo:
          case PolicyKind::Random:
            break;
          case PolicyKind::Mru:
          case PolicyKind::MruSbv:
            touchMru(set, way);
            break;
          case PolicyKind::Qlru:
            qlruOnHit(set, way, valid);
            break;
        }
    }

    /** The state of @p set rendered for tests: LRU/FIFO stamps separated
     *  by spaces, one character per PLRU tree bit, MRU status bit or
     *  QLRU age; empty for Random. */
    std::string state(unsigned set) const;

  private:
    std::uint8_t *ages(unsigned set) const
    {
        return &ages_[static_cast<std::size_t>(set) * assoc_];
    }
    std::uint64_t *stamps(unsigned set) const
    {
        return &stamps_[static_cast<std::size_t>(set) * assoc_];
    }

    void
    touchTree(unsigned set, unsigned way)
    {
        // Walk from the leaf to the root, pointing every node away from
        // the path that was taken.
        std::uint64_t bits = words_[set];
        unsigned node = way + (assoc_ - 1);
        while (node != 0) {
            unsigned parent = (node - 1) / 2;
            std::uint64_t bit = std::uint64_t{1} << parent;
            bits = node == 2 * parent + 1 ? bits | bit : bits & ~bit;
            node = parent;
        }
        words_[set] = bits;
    }

    void
    touchMru(unsigned set, unsigned way)
    {
        WayMask bit = WayMask{1} << way;
        WayMask bits = words_[set] & ~bit;
        // The accessed way held the last set bit: set all other bits.
        if (bits == 0)
            bits = fullMask(assoc_) & ~bit;
        words_[set] = bits;
    }

    /** Spec in force for @p set right now. */
    const QlruSpec &qlruSpec(unsigned set) const;
    void resetQlru(unsigned set);
    unsigned qlruInsertWay(unsigned set, WayMask valid);
    void qlruOnInsert(unsigned set, unsigned way, WayMask valid);
    void qlruOnHit(unsigned set, unsigned way, WayMask valid);
    /**
     * Apply the QLRU age update (§VI-B2): if no valid block has age 3,
     * update ages per the U variant. @p accessed is the way excluded by
     * U1/U3, or nullopt (miss-time update of UMO variants).
     */
    void normalize(unsigned set, const QlruSpec &spec,
                   std::optional<unsigned> accessed, WayMask valid);

    PolicyKind kind_;
    unsigned assoc_;
    Rng *rng_;
    /** QLRU specs: [0] for a fixed QLRU or leader A, [1] for leader B. */
    QlruSpec specs_[2];
    /** Set dueling; null unless adaptive QLRU. */
    DuelState *duel_ = nullptr;
    DuelingConfig dueling_;
    unsigned slice_ = 0;
    /** words_[set], and per way stamps_ (LRU, FIFO) or ages_ (QLRU) at
     *  [set * assoc + way]; see the class comment. The per-way array a
     *  kind does not use is null. Left uninitialized until reset(). */
    std::unique_ptr<std::uint64_t[]> words_;
    std::unique_ptr<std::uint64_t[]> stamps_;
    std::unique_ptr<std::uint8_t[]> ages_;
};

} // namespace nb::cache

#endif // NB_CACHE_POLICY_HH
