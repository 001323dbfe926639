/**
 * @file
 * Set-dueling implementation.
 */

#include "dueling.hh"

#include "common/logging.hh"

namespace nb::cache
{

DuelRole
DuelingConfig::role(unsigned slice, unsigned set) const
{
    for (const auto &range : leaders) {
        if (range.slice >= 0 && static_cast<unsigned>(range.slice) != slice)
            continue;
        if (set >= range.setLo && set <= range.setHi)
            return range.role;
    }
    return DuelRole::Follower;
}

void
DuelState::recordMiss(DuelRole role)
{
    if (role == DuelRole::LeaderA) {
        if (psel_ < max_)
            ++psel_;
    } else if (role == DuelRole::LeaderB) {
        if (psel_ > 0)
            --psel_;
    }
}

AdaptiveQlruPolicy::AdaptiveQlruPolicy(unsigned assoc,
                                       const QlruSpec &spec_a,
                                       const QlruSpec &spec_b,
                                       DuelRole role, DuelState *duel,
                                       Rng *rng)
    : SetPolicy(assoc), specA_(spec_a), specB_(spec_b), role_(role),
      duel_(duel), engine_(assoc, spec_a, rng)
{
    NB_ASSERT(duel != nullptr, "AdaptiveQlruPolicy requires a DuelState");
}

const QlruSpec &
AdaptiveQlruPolicy::activeSpec() const
{
    switch (role_) {
      case DuelRole::LeaderA:
        return specA_;
      case DuelRole::LeaderB:
        return specB_;
      case DuelRole::Follower:
        return duel_->winner() == DuelRole::LeaderA ? specA_ : specB_;
    }
    panic("unreachable duel role");
}

void
AdaptiveQlruPolicy::syncEngine()
{
    engine_.setSpec(activeSpec());
}

void
AdaptiveQlruPolicy::reset()
{
    engine_.reset();
}

unsigned
AdaptiveQlruPolicy::insertWay(WayMask valid)
{
    syncEngine();
    return engine_.insertWay(valid);
}

void
AdaptiveQlruPolicy::onInsert(unsigned way, WayMask valid)
{
    // An insertion is the result of a miss: leaders vote.
    duel_->recordMiss(role_);
    syncEngine();
    engine_.onInsert(way, valid);
}

void
AdaptiveQlruPolicy::onHit(unsigned way, WayMask valid)
{
    syncEngine();
    engine_.onHit(way, valid);
}

std::string
AdaptiveQlruPolicy::name() const
{
    switch (role_) {
      case DuelRole::LeaderA:
        return specA_.name();
      case DuelRole::LeaderB:
        return specB_.name();
      case DuelRole::Follower:
        return "ADAPTIVE(" + specA_.name() + "," + specB_.name() + ")";
    }
    panic("unreachable duel role");
}

std::unique_ptr<SetPolicy>
AdaptiveQlruPolicy::clone() const
{
    return std::make_unique<AdaptiveQlruPolicy>(*this);
}

std::string
AdaptiveQlruPolicy::debugState() const
{
    return engine_.debugState();
}

} // namespace nb::cache
