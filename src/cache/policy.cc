/**
 * @file
 * Replacement-policy implementations.
 */

#include "policy.hh"

#include <algorithm>
#include <sstream>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/strings.hh"

namespace nb::cache
{

// ---------------------------------------------------------------- LRU --

LruPolicy::LruPolicy(unsigned assoc)
    : SetPolicy(assoc), stamps_(assoc, 0)
{
}

void
LruPolicy::reset()
{
    std::fill(stamps_.begin(), stamps_.end(), 0);
    clock_ = 0;
}

void
LruPolicy::touch(unsigned way)
{
    stamps_[way] = ++clock_;
}

unsigned
LruPolicy::insertWay(WayMask valid)
{
    if (auto w = leftmostEmpty(valid, assoc_))
        return *w;
    return static_cast<unsigned>(std::distance(
        stamps_.begin(), std::min_element(stamps_.begin(), stamps_.end())));
}

void
LruPolicy::onInsert(unsigned way, WayMask)
{
    touch(way);
}

void
LruPolicy::onHit(unsigned way, WayMask)
{
    touch(way);
}

std::unique_ptr<SetPolicy>
LruPolicy::clone() const
{
    return std::make_unique<LruPolicy>(*this);
}

std::string
LruPolicy::debugState() const
{
    std::ostringstream os;
    for (unsigned w = 0; w < assoc_; ++w)
        os << (w ? " " : "") << stamps_[w];
    return os.str();
}

// --------------------------------------------------------------- FIFO --

FifoPolicy::FifoPolicy(unsigned assoc)
    : SetPolicy(assoc), stamps_(assoc, 0)
{
}

void
FifoPolicy::reset()
{
    std::fill(stamps_.begin(), stamps_.end(), 0);
    clock_ = 0;
}

unsigned
FifoPolicy::insertWay(WayMask valid)
{
    if (auto w = leftmostEmpty(valid, assoc_))
        return *w;
    return static_cast<unsigned>(std::distance(
        stamps_.begin(), std::min_element(stamps_.begin(), stamps_.end())));
}

void
FifoPolicy::onInsert(unsigned way, WayMask)
{
    stamps_[way] = ++clock_;
}

void
FifoPolicy::onHit(unsigned, WayMask)
{
    // FIFO ignores hits.
}

std::unique_ptr<SetPolicy>
FifoPolicy::clone() const
{
    return std::make_unique<FifoPolicy>(*this);
}

std::string
FifoPolicy::debugState() const
{
    std::ostringstream os;
    for (unsigned w = 0; w < assoc_; ++w)
        os << (w ? " " : "") << stamps_[w];
    return os.str();
}

// --------------------------------------------------------------- PLRU --

PlruPolicy::PlruPolicy(unsigned assoc)
    : SetPolicy(assoc), bits_(assoc > 1 ? assoc - 1 : 0, 0),
      levels_(assoc > 1 ? floorLog2(assoc) : 0)
{
    NB_ASSERT(isPowerOfTwo(assoc), "PLRU requires power-of-two assoc, got ",
              assoc);
}

void
PlruPolicy::reset()
{
    std::fill(bits_.begin(), bits_.end(), 0);
}

unsigned
PlruPolicy::victim() const
{
    // Follow the tree bits from the root: bit 0 -> left, 1 -> right.
    unsigned node = 0;
    for (unsigned l = 0; l < levels_; ++l)
        node = 2 * node + 1 + bits_[node];
    return node - (assoc_ - 1);
}

void
PlruPolicy::touch(unsigned way)
{
    // Walk from the leaf to the root, pointing every node away from the
    // path that was taken.
    unsigned node = way + (assoc_ - 1);
    while (node != 0) {
        unsigned parent = (node - 1) / 2;
        bool came_from_left = node == 2 * parent + 1;
        bits_[parent] = came_from_left ? 1 : 0;
        node = parent;
    }
}

unsigned
PlruPolicy::insertWay(WayMask valid)
{
    if (auto w = leftmostEmpty(valid, assoc_))
        return *w;
    return victim();
}

void
PlruPolicy::onInsert(unsigned way, WayMask)
{
    touch(way);
}

void
PlruPolicy::onHit(unsigned way, WayMask)
{
    touch(way);
}

std::unique_ptr<SetPolicy>
PlruPolicy::clone() const
{
    return std::make_unique<PlruPolicy>(*this);
}

std::string
PlruPolicy::debugState() const
{
    std::string s;
    for (auto b : bits_)
        s += b ? '1' : '0';
    return s;
}

// ------------------------------------------------------------- Random --

RandomPolicy::RandomPolicy(unsigned assoc, Rng *rng)
    : SetPolicy(assoc), rng_(rng)
{
    NB_ASSERT(rng != nullptr, "RandomPolicy requires an RNG");
}

unsigned
RandomPolicy::insertWay(WayMask valid)
{
    if (auto w = leftmostEmpty(valid, assoc_))
        return *w;
    return static_cast<unsigned>(rng_->nextBelow(assoc_));
}

std::unique_ptr<SetPolicy>
RandomPolicy::clone() const
{
    return std::make_unique<RandomPolicy>(*this);
}

// ---------------------------------------------------------------- MRU --

MruPolicy::MruPolicy(unsigned assoc, bool sandy_bridge_variant)
    : SetPolicy(assoc), bits_(fullMask(assoc)),
      sbVariant_(sandy_bridge_variant)
{
}

void
MruPolicy::reset()
{
    bits_ = fullMask(assoc_);
}

void
MruPolicy::access(unsigned way)
{
    WayMask bit = WayMask{1} << way;
    bits_ &= ~bit;
    // The accessed line held the last set bit: set all other bits.
    if (bits_ == 0)
        bits_ = fullMask(assoc_) & ~bit;
}

unsigned
MruPolicy::insertWay(WayMask valid)
{
    if (auto w = leftmostEmpty(valid, assoc_))
        return *w;
    // Replace the leftmost element whose bit is set. access() keeps one
    // set unless the set has a single way.
    return bits_ != 0 ? static_cast<unsigned>(std::countr_zero(bits_)) : 0;
}

void
MruPolicy::onInsert(unsigned way, WayMask valid)
{
    if (sbVariant_ && !isFull(valid, assoc_)) {
        // Sandy Bridge variant: while the cache is not yet full, fills
        // leave all status bits set (newly inserted blocks are eviction
        // candidates immediately).
        bits_ = fullMask(assoc_);
        return;
    }
    access(way);
}

void
MruPolicy::onHit(unsigned way, WayMask)
{
    access(way);
}

std::string
MruPolicy::name() const
{
    return sbVariant_ ? "MRU_SBV" : "MRU";
}

std::unique_ptr<SetPolicy>
MruPolicy::clone() const
{
    return std::make_unique<MruPolicy>(*this);
}

std::string
MruPolicy::debugState() const
{
    std::string s;
    for (unsigned w = 0; w < assoc_; ++w)
        s += (bits_ >> w & 1) != 0 ? '1' : '0';
    return s;
}

// --------------------------------------------------------------- QLRU --

std::string
QlruSpec::name() const
{
    std::ostringstream os;
    os << "QLRU_H" << hitX << hitY << "_M";
    if (probDenom > 1)
        os << "R" << probDenom;
    os << insertAge << "_R" << rVariant << "_U" << uVariant;
    if (umo)
        os << "_UMO";
    return os.str();
}

std::optional<QlruSpec>
QlruSpec::parse(const std::string &name)
{
    auto parts = split(name, '_');
    if (parts.size() < 5 || parts[0] != "QLRU")
        return std::nullopt;
    QlruSpec spec;
    // H part: "Hxy"
    const std::string &h = parts[1];
    if (h.size() != 3 || h[0] != 'H' || h[1] < '0' || h[1] > '2' ||
        h[2] < '0' || h[2] > '1')
        return std::nullopt;
    spec.hitX = static_cast<unsigned>(h[1] - '0');
    spec.hitY = static_cast<unsigned>(h[2] - '0');
    // M part: "Mx" or "MRpx" (p may be multi-digit; x is one digit).
    const std::string &m = parts[2];
    if (m.size() < 2 || m[0] != 'M')
        return std::nullopt;
    if (m[1] == 'R') {
        if (m.size() < 4)
            return std::nullopt;
        auto p = parseInt(m.substr(2, m.size() - 3));
        char x = m.back();
        if (!p || *p < 2 || x < '0' || x > '3')
            return std::nullopt;
        spec.probDenom = static_cast<unsigned>(*p);
        spec.insertAge = static_cast<unsigned>(x - '0');
    } else {
        auto x = parseInt(m.substr(1));
        if (!x || *x < 0 || *x > 3)
            return std::nullopt;
        spec.probDenom = 1;
        spec.insertAge = static_cast<unsigned>(*x);
    }
    // R part: "Rx"
    const std::string &r = parts[3];
    if (r.size() != 2 || r[0] != 'R' || r[1] < '0' || r[1] > '2')
        return std::nullopt;
    spec.rVariant = static_cast<unsigned>(r[1] - '0');
    // U part: "Ux"
    const std::string &u = parts[4];
    if (u.size() != 2 || u[0] != 'U' || u[1] < '0' || u[1] > '3')
        return std::nullopt;
    spec.uVariant = static_cast<unsigned>(u[1] - '0');
    // Optional UMO suffix.
    if (parts.size() == 6) {
        if (parts[5] != "UMO")
            return std::nullopt;
        spec.umo = true;
    } else if (parts.size() > 6) {
        return std::nullopt;
    }
    return spec;
}

bool
QlruSpec::isValid() const
{
    if (hitX > 2 || hitY > 1 || insertAge > 3 || rVariant > 2 ||
        uVariant > 3)
        return false;
    // §VI-B2: R0 always requires at least one block with age 3, so it
    // cannot be combined with U2/U3 (which only increment by one).
    if (rVariant == 0 && (uVariant == 2 || uVariant == 3))
        return false;
    return true;
}

QlruPolicy::QlruPolicy(unsigned assoc, const QlruSpec &spec, Rng *rng)
    : SetPolicy(assoc), spec_(spec), rng_(rng), ages_(assoc, 3)
{
    NB_ASSERT(spec.isValid(), "invalid QLRU spec ", spec.name());
    NB_ASSERT(spec.probDenom == 1 || rng != nullptr,
              "probabilistic QLRU requires an RNG");
}

void
QlruPolicy::reset()
{
    std::fill(ages_.begin(), ages_.end(), 3);
}

void
QlruPolicy::setSpec(const QlruSpec &spec)
{
    NB_ASSERT(spec.isValid(), "invalid QLRU spec ", spec.name());
    spec_ = spec;
}

unsigned
QlruPolicy::promote(unsigned age) const
{
    if (age == 3)
        return spec_.hitX;
    if (age == 2)
        return spec_.hitY;
    return 0;
}

unsigned
QlruPolicy::chooseInsertAge()
{
    if (spec_.probDenom <= 1)
        return spec_.insertAge;
    return rng_->oneIn(spec_.probDenom) ? spec_.insertAge : 3;
}

void
QlruPolicy::normalize(std::optional<unsigned> accessed, WayMask valid)
{
    // Find the maximum age among valid blocks.
    unsigned max_age = 0;
    for (WayMask m = valid; m != 0; m &= m - 1)
        max_age = std::max(max_age, unsigned{ages_[std::countr_zero(m)]});
    if (max_age == 3)
        return;

    unsigned delta = (spec_.uVariant == 0 || spec_.uVariant == 1)
                         ? 3 - max_age
                         : 1;
    if (accessed && (spec_.uVariant == 1 || spec_.uVariant == 3))
        valid &= ~(WayMask{1} << *accessed);
    for (WayMask m = valid; m != 0; m &= m - 1) {
        unsigned w = static_cast<unsigned>(std::countr_zero(m));
        ages_[w] = static_cast<std::uint8_t>(
            std::min(3u, unsigned{ages_[w]} + delta));
    }
}

unsigned
QlruPolicy::insertWay(WayMask valid)
{
    // Not yet full: R0/R1 fill the leftmost empty location, R2 the
    // rightmost.
    if (spec_.rVariant == 2) {
        if (auto w = rightmostEmpty(valid, assoc_))
            return *w;
    } else {
        if (auto w = leftmostEmpty(valid, assoc_))
            return *w;
    }

    // Full: UMO variants run the age update now, before victim selection.
    if (spec_.umo)
        normalize(std::nullopt, valid);

    // Replace the leftmost block whose age is 3.
    for (unsigned w = 0; w < assoc_; ++w) {
        if (ages_[w] == 3)
            return w;
    }
    // No age-3 block: R1 replaces the leftmost block regardless; for R0
    // the behaviour is undefined in the paper -- fall back to way 0.
    return 0;
}

void
QlruPolicy::onInsert(unsigned way, WayMask valid)
{
    ages_[way] = static_cast<std::uint8_t>(chooseInsertAge());
    if (!spec_.umo)
        normalize(way, valid);
}

void
QlruPolicy::onHit(unsigned way, WayMask valid)
{
    ages_[way] = static_cast<std::uint8_t>(promote(ages_[way]));
    if (!spec_.umo)
        normalize(way, valid);
}

std::unique_ptr<SetPolicy>
QlruPolicy::clone() const
{
    return std::make_unique<QlruPolicy>(*this);
}

std::string
QlruPolicy::debugState() const
{
    std::string s;
    for (auto a : ages_)
        s += static_cast<char>('0' + a);
    return s;
}

// -------------------------------------------------------------- factory --

std::unique_ptr<SetPolicy>
makePolicy(const std::string &name, unsigned assoc, Rng *rng)
{
    if (assoc == 0 || assoc > kMaxAssoc) {
        fatal("replacement policy '", name, "': associativity ", assoc,
              " is outside [1, ", kMaxAssoc, "]");
    }
    if (name == "LRU")
        return std::make_unique<LruPolicy>(assoc);
    if (name == "FIFO")
        return std::make_unique<FifoPolicy>(assoc);
    if (name == "PLRU")
        return std::make_unique<PlruPolicy>(assoc);
    if (name == "RANDOM")
        return std::make_unique<RandomPolicy>(assoc, rng);
    if (name == "MRU")
        return std::make_unique<MruPolicy>(assoc, false);
    if (name == "MRU_SBV" || name == "MRU*")
        return std::make_unique<MruPolicy>(assoc, true);
    if (auto spec = QlruSpec::parse(name))
        return std::make_unique<QlruPolicy>(assoc, *spec, rng);
    fatal("unknown replacement policy '", name, "'");
}

std::vector<QlruSpec>
allQlruSpecs()
{
    std::vector<QlruSpec> specs;
    for (unsigned hx : {0u, 1u, 2u}) {
        for (unsigned hy : {0u, 1u}) {
            for (unsigned m : {0u, 1u, 2u, 3u}) {
                for (unsigned r : {0u, 1u, 2u}) {
                    for (unsigned u : {0u, 1u, 2u, 3u}) {
                        for (bool umo : {false, true}) {
                            QlruSpec s;
                            s.hitX = hx;
                            s.hitY = hy;
                            s.insertAge = m;
                            s.probDenom = 1;
                            s.rVariant = r;
                            s.uVariant = u;
                            s.umo = umo;
                            if (s.isValid())
                                specs.push_back(s);
                        }
                    }
                }
            }
        }
    }
    return specs;
}

} // namespace nb::cache
