/**
 * @file
 * TLB implementation.
 */

#include "tlb.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace nb::sim
{

TlbArray::TlbArray(const TlbLevelConfig &config)
    : numSets_(config.entries / config.assoc), assoc_(config.assoc)
{
    NB_ASSERT(config.entries % config.assoc == 0,
              "TLB entries must divide by associativity");
    NB_ASSERT(isPowerOfTwo(numSets_), "TLB set count must be 2^k");
    entries_.resize(config.entries);
}

bool
TlbArray::access(Addr vpn)
{
    unsigned set = static_cast<unsigned>(vpn) & (numSets_ - 1);
    Entry *base = &entries_[static_cast<std::size_t>(set) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (base[w].epoch == epoch_ && base[w].vpn == vpn) {
            base[w].stamp = ++clock_;
            return true;
        }
    }
    // Miss: fill the LRU way.
    Entry *victim = base;
    for (unsigned w = 1; w < assoc_; ++w) {
        if (base[w].epoch != epoch_) {
            victim = &base[w];
            break;
        }
        if (base[w].stamp < victim->stamp)
            victim = &base[w];
    }
    victim->vpn = vpn;
    victim->epoch = epoch_;
    victim->stamp = ++clock_;
    return false;
}

bool
TlbArray::probe(Addr vpn) const
{
    unsigned set = static_cast<unsigned>(vpn) & (numSets_ - 1);
    const Entry *base = &entries_[static_cast<std::size_t>(set) *
                                  assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (base[w].epoch == epoch_ && base[w].vpn == vpn)
            return true;
    }
    return false;
}

Tlb::Tlb(const TlbConfig &config)
    : config_(config), dtlb_(config.dtlb), stlb_(config.stlb)
{
}

TlbResult
Tlb::access(Addr vaddr)
{
    Addr vpn = vaddr / kPageSize;
    TlbResult result;
    if (dtlb_.access(vpn))
        return result;
    ++dtlbMisses_;
    if (stlb_.access(vpn)) {
        result.level = TlbLevel::Stlb;
        result.penalty = config_.stlbLatency;
        return result;
    }
    ++stlbMisses_;
    result.level = TlbLevel::PageWalk;
    result.penalty = config_.walkLatency;
    return result;
}

void
Tlb::flush()
{
    dtlb_.flush();
    stlb_.flush();
}

void
Tlb::reset()
{
    flush();
    dtlbMisses_ = 0;
    stlbMisses_ = 0;
}

} // namespace nb::sim
