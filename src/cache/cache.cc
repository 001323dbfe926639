/**
 * @file
 * Set-associative cache implementation.
 */

#include "cache.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"

namespace nb::cache
{

Cache::Cache(const CacheConfig &config)
    : config_(config), numSets_(config.numSets()),
      offsetBits_(floorLog2(config.lineSize)),
      indexBits_(floorLog2(config.numSets()))
{
    NB_ASSERT(isPowerOfTwo(config.lineSize), "line size must be 2^k");
    NB_ASSERT(numSets_ > 0 && isPowerOfTwo(numSets_),
              "set count must be a positive power of two, got ", numSets_,
              " for ", config.name);
    NB_ASSERT(config.policyFactory != nullptr,
              "cache ", config.name, " needs a policy factory");
    // Sets are built on first fill; building set 0 once here makes a bad
    // factory fail at construction rather than on the first access.
    makeSetPolicy(0);

    lines_ = std::make_unique_for_overwrite<Line[]>(
        static_cast<std::size_t>(numSets_) * config.assoc);
    validBits_.resize(numSets_);
    policies_.resize(numSets_);
    setEpoch_.assign(numSets_, 0);
}

std::unique_ptr<SetPolicy>
Cache::makeSetPolicy(unsigned set) const
{
    auto policy = config_.policyFactory(set);
    NB_ASSERT(policy != nullptr, "null policy for set ", set);
    NB_ASSERT(policy->assoc() == config_.assoc,
              "policy assoc mismatch in ", config_.name);
    return policy;
}

void
Cache::refresh(unsigned set)
{
    setEpoch_[set] = epoch_;
    std::fill_n(&lines_[static_cast<std::size_t>(set) * config_.assoc],
                config_.assoc, Line{});
    validBits_[set].assign(config_.assoc, false);
    if (policies_[set])
        policies_[set]->reset();
    else
        policies_[set] = makeSetPolicy(set);
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

// inline: keeps the probe() and access() hit paths free of a call.
inline int
Cache::findWay(unsigned set, Addr tag) const
{
    if (stale(set))
        return -1;
    const Line *base = &lines_[static_cast<std::size_t>(set) *
                               config_.assoc];
    for (unsigned w = 0; w < config_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return static_cast<int>(w);
    }
    return -1;
}

bool
Cache::probe(Addr addr) const
{
    return findWay(setIndex(addr), tagOf(addr)) >= 0;
}

LineAccessResult
Cache::access(Addr addr, bool write)
{
    unsigned set = setIndex(addr);
    Addr tag = tagOf(addr);
    if (stale(set))
        refresh(set);
    Line *base = &lines_[static_cast<std::size_t>(set) * config_.assoc];
    LineAccessResult result;
    result.set = set;

    int way = findWay(set, tag);
    if (way >= 0) {
        ++stats_.hits;
        result.hit = true;
        result.way = static_cast<unsigned>(way);
        if (write)
            base[way].dirty = true;
        policies_[set]->onHit(static_cast<unsigned>(way), validBits_[set]);
        return result;
    }

    ++stats_.misses;
    unsigned victim = policies_[set]->insertWay(validBits_[set]);
    NB_ASSERT(victim < config_.assoc, "policy returned bad way ", victim);
    Line &line = base[victim];
    if (line.valid) {
        ++stats_.evictions;
        result.evicted = addrOf(set, line.tag);
        result.evictedDirty = line.dirty;
        if (line.dirty)
            ++stats_.writebacks;
        policies_[set]->onInvalidate(victim);
    }
    line.tag = tag;
    line.valid = true;
    line.dirty = write;
    validBits_[set][victim] = true;
    result.way = victim;
    // Contract: validBits reflect the state *after* the insertion.
    policies_[set]->onInsert(victim, validBits_[set]);
    return result;
}

// accessNoAlloc() and invalidate() change state only on a hit, and
// findWay() never hits in a stale set, so neither refreshes one.

LineAccessResult
Cache::accessNoAlloc(Addr addr, bool write)
{
    unsigned set = setIndex(addr);
    Addr tag = tagOf(addr);
    LineAccessResult result;
    result.set = set;
    int way = findWay(set, tag);
    if (way >= 0) {
        ++stats_.hits;
        result.hit = true;
        result.way = static_cast<unsigned>(way);
        if (write) {
            lines_[static_cast<std::size_t>(set) * config_.assoc + way]
                .dirty = true;
        }
        policies_[set]->onHit(static_cast<unsigned>(way), validBits_[set]);
    } else {
        ++stats_.misses;
    }
    return result;
}

bool
Cache::invalidate(Addr addr)
{
    unsigned set = setIndex(addr);
    int way = findWay(set, tagOf(addr));
    if (way < 0)
        return false;
    Line &line =
        lines_[static_cast<std::size_t>(set) * config_.assoc + way];
    line.valid = false;
    line.dirty = false;
    validBits_[set][way] = false;
    ++stats_.invalidations;
    policies_[set]->onInvalidate(static_cast<unsigned>(way));
    return true;
}

bool
Cache::setFull(unsigned set) const
{
    return setOccupancy(set) == config_.assoc;
}

unsigned
Cache::setOccupancy(unsigned set) const
{
    if (stale(set))
        return 0;
    unsigned n = 0;
    for (bool v : validBits_[set])
        n += v ? 1 : 0;
    return n;
}

} // namespace nb::cache
