/**
 * @file
 * The QLRU naming scheme and the replacement engine.
 */

#include "policy.hh"

#include <algorithm>
#include <sstream>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/strings.hh"

namespace nb::cache
{

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

// ------------------------------------------------------------- engine --

namespace
{

void
checkAssoc(const std::string &policy, unsigned assoc)
{
    if (assoc == 0 || assoc > kMaxAssoc) {
        fatal("replacement policy '", policy, "': associativity ", assoc,
              " is outside [1, ", kMaxAssoc, "]");
    }
}

/** Policy A of a dueling pair, once both names are known to be QLRU. */
const std::string &
duelingPolicyA(const DuelingConfig &dueling)
{
    NB_ASSERT(QlruSpec::parse(dueling.policyA) &&
                  QlruSpec::parse(dueling.policyB),
              "adaptive replacement requires QLRU policy names, got ",
              dueling.policyA, " / ", dueling.policyB);
    return dueling.policyA;
}

void
checkQlruSpec(const QlruSpec &spec, const Rng *rng)
{
    NB_ASSERT(spec.isValid(), "invalid QLRU spec ", spec.name());
    NB_ASSERT(spec.probDenom == 1 || rng != nullptr,
              "probabilistic QLRU requires an RNG");
}

} // namespace

Replacement::Replacement(const std::string &policy, unsigned assoc,
                         unsigned num_sets, Rng *rng)
    : assoc_(assoc), rng_(rng)
{
    checkAssoc(policy, assoc);
    if (policy == "LRU") {
        kind_ = PolicyKind::Lru;
    } else if (policy == "FIFO") {
        kind_ = PolicyKind::Fifo;
    } else if (policy == "PLRU") {
        kind_ = PolicyKind::Plru;
        NB_ASSERT(isPowerOfTwo(assoc),
                  "PLRU requires power-of-two assoc, got ", assoc);
    } else if (policy == "RANDOM") {
        kind_ = PolicyKind::Random;
        NB_ASSERT(rng != nullptr, "RANDOM replacement requires an RNG");
    } else if (policy == "MRU") {
        kind_ = PolicyKind::Mru;
    } else if (policy == "MRU_SBV" || policy == "MRU*") {
        kind_ = PolicyKind::MruSbv;
    } else if (auto spec = QlruSpec::parse(policy)) {
        kind_ = PolicyKind::Qlru;
        specs_[0] = *spec;
        checkQlruSpec(*spec, rng);
    } else {
        fatal("unknown replacement policy '", policy, "'");
    }
    std::size_t ways = static_cast<std::size_t>(num_sets) * assoc;
    words_ = std::make_unique_for_overwrite<std::uint64_t[]>(num_sets);
    if (kind_ == PolicyKind::Lru || kind_ == PolicyKind::Fifo)
        stamps_ = std::make_unique_for_overwrite<std::uint64_t[]>(ways);
    if (kind_ == PolicyKind::Qlru)
        ages_ = std::make_unique_for_overwrite<std::uint8_t[]>(ways);
}

Replacement::Replacement(const DuelingConfig &dueling, unsigned slice,
                         unsigned assoc, unsigned num_sets, DuelState *duel,
                         Rng *rng)
    : Replacement(duelingPolicyA(dueling), assoc, num_sets, rng)
{
    NB_ASSERT(duel != nullptr, "adaptive replacement requires a DuelState");
    specs_[1] = *QlruSpec::parse(dueling.policyB);
    checkQlruSpec(specs_[1], rng);
    duel_ = duel;
    dueling_ = dueling;
    slice_ = slice;
}

void
Replacement::resetQlru(unsigned set)
{
    std::fill_n(ages(set), assoc_, std::uint8_t{3});
    if (duel_)
        words_[set] = static_cast<std::uint64_t>(dueling_.role(slice_, set));
}

const QlruSpec &
Replacement::qlruSpec(unsigned set) const
{
    if (!duel_)
        return specs_[0];
    auto role = static_cast<DuelRole>(words_[set]);
    if (role == DuelRole::Follower)
        role = duel_->winner();
    return role == DuelRole::LeaderA ? specs_[0] : specs_[1];
}

void
Replacement::normalize(unsigned set, const QlruSpec &spec,
                       std::optional<unsigned> accessed, WayMask valid)
{
    std::uint8_t *age = ages(set);
    // Find the maximum age among valid blocks.
    unsigned max_age = 0;
    for (WayMask m = valid; m != 0; m &= m - 1)
        max_age = std::max(max_age, unsigned{age[std::countr_zero(m)]});
    if (max_age == 3)
        return;

    unsigned delta = (spec.uVariant == 0 || spec.uVariant == 1)
                         ? 3 - max_age
                         : 1;
    if (accessed && (spec.uVariant == 1 || spec.uVariant == 3))
        valid &= ~(WayMask{1} << *accessed);
    for (WayMask m = valid; m != 0; m &= m - 1) {
        unsigned w = static_cast<unsigned>(std::countr_zero(m));
        age[w] = static_cast<std::uint8_t>(
            std::min(3u, unsigned{age[w]} + delta));
    }
}

unsigned
Replacement::qlruInsertWay(unsigned set, WayMask valid)
{
    const QlruSpec &spec = qlruSpec(set);
    // Not yet full: R0/R1 fill the leftmost empty location, R2 the
    // rightmost.
    auto empty = spec.rVariant == 2 ? rightmostEmpty(valid, assoc_)
                                    : leftmostEmpty(valid, assoc_);
    if (empty)
        return *empty;
    // Full: UMO variants run the age update now, before victim
    // selection.
    if (spec.umo)
        normalize(set, spec, std::nullopt, valid);
    // Replace the leftmost block whose age is 3. No age-3 block: R1
    // replaces the leftmost block regardless; for R0 the behaviour is
    // undefined in the paper -- fall back to way 0.
    const std::uint8_t *age = ages(set);
    for (unsigned w = 0; w < assoc_; ++w) {
        if (age[w] == 3)
            return w;
    }
    return 0;
}

void
Replacement::qlruOnInsert(unsigned set, unsigned way, WayMask valid)
{
    // An insertion is the result of a miss: dueling leaders vote.
    if (duel_)
        duel_->recordMiss(static_cast<DuelRole>(words_[set]));
    const QlruSpec &spec = qlruSpec(set);
    unsigned age = spec.insertAge;
    if (spec.probDenom > 1 && !rng_->oneIn(spec.probDenom))
        age = 3;
    ages(set)[way] = static_cast<std::uint8_t>(age);
    if (!spec.umo)
        normalize(set, spec, way, valid);
}

void
Replacement::qlruOnHit(unsigned set, unsigned way, WayMask valid)
{
    // Hit promotion Hxy.
    const QlruSpec &spec = qlruSpec(set);
    std::uint8_t &age = ages(set)[way];
    age = static_cast<std::uint8_t>(age == 3   ? spec.hitX
                                    : age == 2 ? spec.hitY
                                               : 0);
    if (!spec.umo)
        normalize(set, spec, way, valid);
}

std::string
Replacement::state(unsigned set) const
{
    std::string s;
    switch (kind_) {
      case PolicyKind::Lru:
      case PolicyKind::Fifo:
        for (unsigned w = 0; w < assoc_; ++w) {
            if (w != 0)
                s += ' ';
            s += std::to_string(stamps(set)[w]);
        }
        break;
      case PolicyKind::Plru:
        for (unsigned n = 0; n + 1 < assoc_; ++n)
            s += (words_[set] >> n & 1) != 0 ? '1' : '0';
        break;
      case PolicyKind::Random:
        break;
      case PolicyKind::Mru:
      case PolicyKind::MruSbv:
        for (unsigned w = 0; w < assoc_; ++w)
            s += (words_[set] >> w & 1) != 0 ? '1' : '0';
        break;
      case PolicyKind::Qlru:
        for (unsigned w = 0; w < assoc_; ++w)
            s += static_cast<char>('0' + ages(set)[w]);
        break;
    }
    return s;
}

} // namespace nb::cache
