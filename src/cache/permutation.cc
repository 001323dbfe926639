/**
 * @file
 * Permutation-policy implementation.
 */

#include "permutation.hh"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/logging.hh"

namespace nb::cache
{

namespace
{

bool
isPermutationVector(const std::vector<unsigned> &perm)
{
    WayMask seen = 0;
    for (unsigned v : perm) {
        if (v >= perm.size() || (seen >> v & 1) != 0)
            return false;
        seen |= WayMask{1} << v;
    }
    return true;
}

} // namespace

bool
PermutationSpec::isValid() const
{
    unsigned a = assoc();
    if (a == 0 || a > kMaxAssoc || missPerm.size() != a)
        return false;
    if (!isPermutationVector(missPerm))
        return false;
    for (const auto &p : hitPerms) {
        if (p.size() != a || !isPermutationVector(p))
            return false;
    }
    return true;
}

std::string
PermutationSpec::toString() const
{
    std::ostringstream os;
    for (unsigned p = 0; p < hitPerms.size(); ++p) {
        os << "hit@" << p << ": [";
        for (unsigned q = 0; q < hitPerms[p].size(); ++q)
            os << (q ? " " : "") << hitPerms[p][q];
        os << "]\n";
    }
    os << "miss:  [";
    for (unsigned q = 0; q < missPerm.size(); ++q)
        os << (q ? " " : "") << missPerm[q];
    os << "]";
    return os.str();
}

PermutationSpec
PermutationSpec::lru(unsigned assoc)
{
    PermutationSpec spec;
    spec.hitPerms.resize(assoc);
    for (unsigned p = 0; p < assoc; ++p) {
        spec.hitPerms[p].resize(assoc);
        for (unsigned q = 0; q < assoc; ++q) {
            if (q == p)
                spec.hitPerms[p][q] = assoc - 1;
            else if (q > p)
                spec.hitPerms[p][q] = q - 1;
            else
                spec.hitPerms[p][q] = q;
        }
    }
    // A miss inserts at position 0 and then promotes it to the MRU end,
    // i.e. the same reordering as a hit at position 0.
    spec.missPerm = spec.hitPerms[0];
    return spec;
}

PermutationSpec
PermutationSpec::fifo(unsigned assoc)
{
    PermutationSpec spec;
    spec.hitPerms.resize(assoc);
    for (unsigned p = 0; p < assoc; ++p) {
        spec.hitPerms[p].resize(assoc);
        std::iota(spec.hitPerms[p].begin(), spec.hitPerms[p].end(), 0u);
    }
    // New blocks age out strictly by insertion order.
    spec.missPerm.resize(assoc);
    spec.missPerm[0] = assoc - 1;
    for (unsigned q = 1; q < assoc; ++q)
        spec.missPerm[q] = q - 1;
    return spec;
}

PermutationPolicy::PermutationPolicy(unsigned assoc, PermutationSpec spec)
    : SetPolicy(assoc), spec_(std::move(spec)), order_(assoc)
{
    NB_ASSERT(spec_.assoc() == assoc,
              "permutation spec assoc mismatch: ", spec_.assoc(), " vs ",
              assoc);
    NB_ASSERT(spec_.isValid(), "invalid permutation spec");
    reset();
}

void
PermutationPolicy::reset()
{
    std::iota(order_.begin(), order_.end(), 0u);
}

unsigned
PermutationPolicy::positionOf(unsigned way) const
{
    for (unsigned pos = 0; pos < order_.size(); ++pos) {
        if (order_[pos] == way)
            return pos;
    }
    panic("way ", way, " not in permutation order");
}

void
PermutationPolicy::applyPermutation(const std::vector<unsigned> &perm)
{
    std::vector<unsigned> next(order_.size());
    for (unsigned q = 0; q < order_.size(); ++q)
        next[perm[q]] = order_[q];
    order_ = std::move(next);
}

void
PermutationPolicy::moveToPositionZero(unsigned way)
{
    unsigned pos = positionOf(way);
    // Rotate the prefix so that `way` lands on position 0 while keeping
    // the relative order of the other elements.
    for (unsigned p = pos; p > 0; --p)
        order_[p] = order_[p - 1];
    order_[0] = way;
}

unsigned
PermutationPolicy::insertWay(WayMask valid)
{
    // Prefer the lowest-position invalid way so that fills consume the
    // victim order deterministically.
    for (unsigned pos = 0; pos < order_.size(); ++pos) {
        if ((valid >> order_[pos] & 1) == 0)
            return order_[pos];
    }
    return order_[0];
}

void
PermutationPolicy::onInsert(unsigned way, WayMask)
{
    moveToPositionZero(way);
    applyPermutation(spec_.missPerm);
}

void
PermutationPolicy::onHit(unsigned way, WayMask)
{
    applyPermutation(spec_.hitPerms[positionOf(way)]);
}

std::unique_ptr<SetPolicy>
PermutationPolicy::clone() const
{
    return std::make_unique<PermutationPolicy>(*this);
}

std::string
PermutationPolicy::debugState() const
{
    std::ostringstream os;
    for (unsigned pos = 0; pos < order_.size(); ++pos)
        os << (pos ? " " : "") << order_[pos];
    return os.str();
}

} // namespace nb::cache
