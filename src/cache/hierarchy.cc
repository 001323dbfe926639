/**
 * @file
 * Cache-hierarchy implementation.
 */

#include "hierarchy.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace nb::cache
{

std::vector<Addr>
defaultSliceHashMasks(unsigned n_slices)
{
    NB_ASSERT(isPowerOfTwo(n_slices), "slice count must be a power of two");
    // XOR-parity masks modelled on the functions reverse-engineered by
    // Maurice et al. (RAID 2015) for 2-, 4-, and 8-slice parts.
    static const std::vector<Addr> masks = {
        0x1B5F575440ULL, // o0
        0x2EB5FAA880ULL, // o1
        0x3CCCC93100ULL, // o2
    };
    unsigned n_bits = floorLog2(n_slices);
    NB_ASSERT(n_bits <= masks.size(), "too many slices for default hash");
    return {masks.begin(), masks.begin() + n_bits};
}

Hierarchy::Hierarchy(const HierarchyConfig &config, Rng *rng)
    : config_(config), cboxStats_(config.l3Slices),
      pfControl_(config.prefetcherControlInit)
{
    NB_ASSERT(rng != nullptr, "Hierarchy requires an RNG");
    NB_ASSERT(config.l3Slices > 0 && isPowerOfTwo(config.l3Slices),
              "slice count must be a positive power of two");

    if (config_.sliceHashMasks.empty() && config_.l3Slices > 1)
        config_.sliceHashMasks = defaultSliceHashMasks(config_.l3Slices);

    CacheConfig l1c;
    l1c.name = "L1D";
    l1c.sizeBytes = config.l1.sizeBytes;
    l1c.assoc = config.l1.assoc;
    l1c.policy = config.l1.policy;
    l1_ = std::make_unique<Cache>(l1c, rng);

    CacheConfig l2c;
    l2c.name = "L2";
    l2c.sizeBytes = config.l2.sizeBytes;
    l2c.assoc = config.l2.assoc;
    l2c.policy = config.l2.policy;
    l2_ = std::make_unique<Cache>(l2c, rng);

    NB_ASSERT(config.l3.sizeBytes % config.l3Slices == 0,
              "L3 size must divide evenly across slices");
    for (unsigned s = 0; s < config.l3Slices; ++s) {
        CacheConfig l3c;
        l3c.name = "L3#" + std::to_string(s);
        l3c.sizeBytes = config.l3.sizeBytes / config.l3Slices;
        l3c.assoc = config.l3.assoc;
        l3c.policy = config.l3.policy;
        l3c.dueling = config.l3Dueling;
        l3c.slice = s;
        l3_.push_back(std::make_unique<Cache>(l3c, rng, &duel_));
    }
}

unsigned
Hierarchy::sliceOf(Addr paddr) const
{
    unsigned slice = 0;
    for (unsigned i = 0; i < config_.sliceHashMasks.size(); ++i)
        slice |= parity(paddr & config_.sliceHashMasks[i]) << i;
    return slice;
}

void
Hierarchy::setPrefetcherControl(std::uint64_t value)
{
    if (!config_.prefetcherDisableSupported) {
        // Writes are accepted but ignored, like on the AMD parts the
        // paper could not control (§VI-D).
        return;
    }
    pfControl_ = value & pf::kDisableAll;
}

HitLevel
Hierarchy::walk(Addr paddr, HitLevel top, bool write, bool fill_l3)
{
    HitLevel level = HitLevel::L2;
    if (top == HitLevel::L2 || !l2_->lookup(paddr, false)) {
        // L3 step: one slice, selected by the hash.
        unsigned slice = sliceOf(paddr);
        CboxStats &cbox = cboxStats_[slice];
        Cache &l3 = *l3_[slice];
        ++cbox.lookups;
        if (l3.lookup(paddr, false)) {
            ++cbox.hits;
            level = HitLevel::L3;
        } else {
            ++cbox.misses;
            level = HitLevel::Memory;
            if (fill_l3) {
                // Inclusive L3: evicting a line invalidates it in the
                // core caches as well.
                if (auto victim = l3.fill(paddr, false)) {
                    l1_->invalidate(*victim);
                    l2_->invalidate(*victim);
                }
            }
        }
        l2_->fill(paddr, false);
    }
    if (top == HitLevel::L1)
        l1_->fill(paddr, write);
    return level;
}

AccessResult
Hierarchy::access(Addr paddr, AccessType type)
{
    bool write = type == AccessType::Store;
    if (l1_->lookup(paddr, write))
        return {HitLevel::L1, config_.l1Latency};

    // NTA prefetches bypass the L3 fill.
    HitLevel level = walk(paddr, HitLevel::L1, write,
                          type != AccessType::PrefetchNTA);
    runPrefetchers(paddr);
    Cycles latency = level == HitLevel::L2   ? config_.l2Latency
                     : level == HitLevel::L3 ? config_.l3Latency
                                             : config_.memLatency;
    return {level, latency};
}

void
Hierarchy::prefetch(Addr line, HitLevel into)
{
    const Cache &top = into == HitLevel::L1 ? *l1_ : *l2_;
    if (!top.probe(line))
        walk(line, into, false, true);
}

void
Hierarchy::runPrefetchers(Addr paddr)
{
    Addr line = alignDown(paddr, kCacheLineSize);

    // DCU next-line prefetcher: fetch the next sequential line into L1
    // if it stays within the page.
    Addr next_line = line + kCacheLineSize;
    if ((pfControl_ & pf::kDisableDcu) == 0 &&
        next_line / kPageSize == line / kPageSize)
        prefetch(next_line, HitLevel::L1);

    // Adjacent-line prefetcher: fetch the other line of the 128-byte
    // aligned pair.
    if ((pfControl_ & pf::kDisableL2Adjacent) == 0)
        prefetch(line ^ kCacheLineSize, HitLevel::L2);

    // Streamer: detect ascending/descending line streams within a page
    // and run ahead by one line.
    if ((pfControl_ & pf::kDisableL2Streamer) == 0) {
        Addr page = line / kPageSize;
        int line_in_page = static_cast<int>((line % kPageSize) /
                                            kCacheLineSize);
        auto &entry = streamTable_[page];
        if (entry.lastLine >= 0) {
            int delta = line_in_page - entry.lastLine;
            if (delta == entry.direction && delta != 0) {
                ++entry.confidence;
            } else {
                entry.direction = delta;
                entry.confidence = delta == 1 || delta == -1 ? 1 : 0;
            }
            if (entry.confidence >= 1 &&
                (entry.direction == 1 || entry.direction == -1)) {
                int next = line_in_page + entry.direction;
                if (next >= 0 &&
                    next < static_cast<int>(kPageSize / kCacheLineSize)) {
                    prefetch(page * kPageSize +
                                 static_cast<Addr>(next) * kCacheLineSize,
                             HitLevel::L2);
                }
            }
        }
        entry.lastLine = line_in_page;
        // Bound the table size (simple generational clear).
        if (streamTable_.size() > 64)
            streamTable_.clear();
    }
}

void
Hierarchy::wbinvd()
{
    l1_->flushAll();
    l2_->flushAll();
    for (auto &slice : l3_)
        slice->flushAll();
    streamTable_.clear();
}

void
Hierarchy::reset()
{
    wbinvd();
    clearStats();
    duel_ = DuelState{};
}

void
Hierarchy::clflush(Addr paddr)
{
    l1_->invalidate(paddr);
    l2_->invalidate(paddr);
    l3_[sliceOf(paddr)]->invalidate(paddr);
}

void
Hierarchy::clearStats()
{
    l1_->clearStats();
    l2_->clearStats();
    for (auto &slice : l3_)
        slice->clearStats();
    for (auto &cb : cboxStats_)
        cb = CboxStats{};
}

} // namespace nb::cache
