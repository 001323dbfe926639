/**
 * @file
 * Set-associative cache implementation.
 */

#include "cache.hh"

#include <bit>
#include <cassert>

#include "common/bits.hh"
#include "common/logging.hh"

namespace nb::cache
{

namespace
{

/** Set count of a valid geometry; the checks run before anything is
 *  sized from it. */
unsigned
checkedNumSets(const CacheConfig &config)
{
    if (config.assoc == 0 || config.assoc > kMaxAssoc) {
        fatal("cache ", config.name, ": associativity ", config.assoc,
              " is outside [1, ", kMaxAssoc, "]");
    }
    NB_ASSERT(isPowerOfTwo(config.lineSize), "line size must be 2^k");
    unsigned num_sets = config.numSets();
    NB_ASSERT(num_sets > 0 && isPowerOfTwo(num_sets),
              "set count must be a positive power of two, got ", num_sets,
              " for ", config.name);
    return num_sets;
}

} // namespace

Cache::Cache(const CacheConfig &config, Rng *rng, DuelState *duel)
    : config_(config), numSets_(checkedNumSets(config)),
      offsetBits_(floorLog2(config.lineSize)),
      indexBits_(floorLog2(numSets_)),
      lines_(std::make_unique_for_overwrite<Line[]>(
          static_cast<std::size_t>(numSets_) * config.assoc)),
      sets_(numSets_),
      replacement_(config.dueling.empty()
                       ? Replacement(config.policy, config.assoc, numSets_,
                                     rng)
                       : Replacement(config.dueling, config.slice,
                                     config.assoc, numSets_, duel, rng))
{
}

void
Cache::refresh(unsigned set)
{
    sets_[set] = SetState{epoch_, 0};
    replacement_.reset(set);
}

unsigned
Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>(bits(addr, offsetBits_ + indexBits_ - 1,
                                      offsetBits_));
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> (offsetBits_ + indexBits_);
}

Addr
Cache::addrOf(unsigned set, Addr tag) const
{
    return (tag << (offsetBits_ + indexBits_)) |
           (static_cast<Addr>(set) << offsetBits_);
}

// inline: keeps the probe() and lookup() paths free of a call.
inline int
Cache::findWay(unsigned set, Addr tag) const
{
    const Line *base = setLines(set);
    for (WayMask m = validWays(set); m != 0; m &= m - 1) {
        int w = std::countr_zero(m);
        if (base[w].tag == tag)
            return w;
    }
    return -1;
}

bool
Cache::probe(Addr addr) const
{
    return findWay(setIndex(addr), tagOf(addr)) >= 0;
}

// lookup() and invalidate() change state only on a hit, and findWay()
// never hits in a stale set, so neither refreshes one.

bool
Cache::lookup(Addr addr, bool write)
{
    unsigned set = setIndex(addr);
    int way = findWay(set, tagOf(addr));
    if (way < 0)
        return false;
    ++stats_.hits;
    if (write)
        setLines(set)[way].dirty = true;
    replacement_.onHit(set, static_cast<unsigned>(way), sets_[set].valid);
    return true;
}

std::optional<Addr>
Cache::fill(Addr addr, bool write)
{
    unsigned set = setIndex(addr);
    Addr tag = tagOf(addr);
    assert(findWay(set, tag) < 0 && "fill() of a line the cache holds");

    if (stale(set))
        refresh(set);
    ++stats_.misses;
    SetState &state = sets_[set];
    unsigned victim = replacement_.insertWay(set, state.valid);
    NB_ASSERT(victim < config_.assoc, "policy returned bad way ", victim);
    WayMask bit = WayMask{1} << victim;
    Line &line = setLines(set)[victim];
    std::optional<Addr> evicted;
    if ((state.valid & bit) != 0) {
        ++stats_.evictions;
        evicted = addrOf(set, line.tag);
        if (line.dirty)
            ++stats_.writebacks;
    }
    line = Line{tag, write};
    state.valid |= bit;
    replacement_.onInsert(set, victim, state.valid);
    return evicted;
}

bool
Cache::invalidate(Addr addr)
{
    unsigned set = setIndex(addr);
    int way = findWay(set, tagOf(addr));
    if (way < 0)
        return false;
    sets_[set].valid &= ~(WayMask{1} << way);
    ++stats_.invalidations;
    return true;
}

bool
Cache::setFull(unsigned set) const
{
    return isFull(validWays(set), config_.assoc);
}

unsigned
Cache::setOccupancy(unsigned set) const
{
    return static_cast<unsigned>(std::popcount(validWays(set)));
}

} // namespace nb::cache
