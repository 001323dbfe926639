/**
 * @file
 * cacheSeq implementation.
 */

#include "cacheseq.hh"

#include "common/bits.hh"
#include "common/logging.hh"
#include "core/engine.hh"

namespace nb::cachetools
{

using x86::ins;
using x86::Instruction;
using x86::memAbs;
using x86::Opcode;
using x86::Reg;
using x86::reg;

CacheSeq::CacheSeq(Session &session, const CacheSeqOptions &options)
    : CacheSeq(session.runner(), options)
{
}

CacheSeq::CacheSeq(core::Runner &runner, const CacheSeqOptions &options)
    : runner_(runner), opt_(options)
{
    if (runner.mode() != core::Mode::Kernel) {
        fatal("cacheSeq requires the kernel-space version of nanoBench "
              "(WBINVD and uncore access are privileged, §VI-C)");
    }
    auto &machine = runner_.machine();
    auto &caches = machine.caches();

    if (opt_.disablePrefetchers) {
        if (!caches.prefetcherDisableSupported()) {
            fatal("cannot disable the cache prefetchers on ",
                  machine.uarch().name,
                  " -- cache analysis is not supported (§VI-D)");
        }
        machine.writeMsr(sim::msr::kPrefetchControl,
                         cache::pf::kDisableAll);
    }

    checkTarget(opt_.set, opt_.cbox);
    setupAddressSpace();
}

unsigned
CacheSeq::targetSets() const
{
    const auto &caches = runner_.machine().caches();
    switch (opt_.level) {
      case CacheLevel::L1:
        return caches.l1().numSets();
      case CacheLevel::L2:
        return caches.l2().numSets();
      case CacheLevel::L3:
        return caches.l3Slice(0).numSets();
    }
    panic("unreachable level");
}

void
CacheSeq::checkTarget(unsigned set, unsigned cbox) const
{
    const auto &caches = runner_.machine().caches();
    if (opt_.level == CacheLevel::L3 && cbox >= caches.numSlices()) {
        fatal("C-Box ", cbox, " out of range (", caches.numSlices(),
              " slices)");
    }
    unsigned sets = targetSets();
    if (set >= sets)
        fatal("set index ", set, " out of range (", sets, " sets)");
}

unsigned
CacheSeq::levelAssoc() const
{
    const auto &cfg = runner_.machine().uarch().cacheConfig;
    switch (opt_.level) {
      case CacheLevel::L1:
        return cfg.l1.assoc;
      case CacheLevel::L2:
        return cfg.l2.assoc;
      case CacheLevel::L3:
        return cfg.l3.assoc;
    }
    panic("unreachable level");
}

void
CacheSeq::setupAddressSpace()
{
    auto &machine = runner_.machine();
    const auto &caches = machine.caches();
    candidateStride_ = static_cast<Addr>(targetSets()) * kCacheLineSize;

    // Size the physically-contiguous area for a few hundred candidates
    // (plus slack for slice filtering on sliced L3s).
    unsigned slices = caches.numSlices();
    Addr needed = candidateStride_ * 320 *
                  (opt_.level == CacheLevel::L3 ? slices + 1 : 1);
    needed = std::max<Addr>(needed, 8 * 1024 * 1024);
    // Keep an already-reserved area that is big enough: re-reserving
    // would move the base, invalidating addresses other tools planned
    // against the same runner (the profile builder relies on one
    // stable reservation shared by all its tools).
    if (runner_.r14AreaSize() < needed && !runner_.reserveR14Area(needed))
        fatal("cannot reserve a physically-contiguous area of ", needed,
              " bytes; reboot the (simulated) machine (§IV-D)");
    areaVirt_ = runner_.r14Area();
    areaSize_ = runner_.r14AreaSize();
    areaPhys_ = machine.memory().translate(areaVirt_);

    computeTargetLayout();
}

void
CacheSeq::computeTargetLayout()
{
    auto &machine = runner_.machine();
    const auto &caches = machine.caches();
    unsigned l1_sets = caches.l1().numSets();
    unsigned l2_sets = caches.l2().numSets();
    unsigned l3_sets = caches.l3Slice(0).numSets();

    // Align the candidate origin to the stride, then add the set offset.
    Addr aligned = alignUp(areaPhys_, candidateStride_);
    nextCandidateOffset_ = aligned - areaPhys_ +
                           static_cast<Addr>(opt_.set) * kCacheLineSize;
    blockAddrs_.clear();
    evictPool_.clear();
    evictPos_ = 0;

    // Build the eviction pool (§VI-C): addresses with the same L1/L2
    // set as the target, but a *different* set in the cache under test.
    //
    // The pool is reused verbatim on every eviction run and is sized so
    // that it fits into the non-target sets of the cache under test
    // without causing evictions there: an eviction in (say) the L3
    // back-invalidates the line from L1/L2, which perturbs the fill
    // placement of subsequent eviction accesses and can
    // non-deterministically leave a block resident. Capping the pool
    // below the associativity of each (set, slice) it touches makes the
    // eviction runs exactly reproducible.
    const auto &cfg = machine.uarch().cacheConfig;
    if (opt_.level == CacheLevel::L1) {
        evictRunLength_ = 0; // L1 is the first level: nothing above it
        return;
    }
    unsigned want = 2 * (cfg.l1.assoc + cfg.l2.assoc);
    unsigned need = 2 * std::max(cfg.l1.assoc, cfg.l2.assoc);

    Addr first_block_paddr = areaPhys_ + nextCandidateOffset_;
    unsigned keep_bits; // low bits that must stay equal (L1/L2 set)
    unsigned set_bits;  // top of the under-test index range
    unsigned under_assoc;
    if (opt_.level == CacheLevel::L3) {
        keep_bits = 6 + floorLog2(l2_sets);
        set_bits = 6 + floorLog2(l3_sets);
        under_assoc = cfg.l3.assoc;
    } else {
        keep_bits = 6 + floorLog2(l1_sets);
        set_bits = 6 + floorLog2(l2_sets);
        under_assoc = cfg.l2.assoc;
    }
    unsigned cap_per_set = under_assoc >= 4 ? under_assoc - 2
                                            : under_assoc;

    // Enumerate candidates: vary the index bits above keep_bits (to
    // leave the target set) and the bits above the index (fresh tags),
    // and cap the load per (set, slice) of the cache under test.
    std::map<std::pair<Addr, unsigned>, unsigned> load;
    Addr vary_stride = Addr{1} << set_bits;
    unsigned free_combos =
        set_bits > keep_bits ? (1u << (set_bits - keep_bits)) : 1;
    for (unsigned tag = 0; tag < 64 && evictPool_.size() < want; ++tag) {
        for (unsigned combo = 0;
             combo < free_combos && evictPool_.size() < want; ++combo) {
            Addr paddr = (first_block_paddr &
                          ~((vary_stride - 1) & ~((Addr{1} << keep_bits) -
                                                  1))) |
                         (static_cast<Addr>(combo) << keep_bits);
            paddr += static_cast<Addr>(tag) * vary_stride;
            if (paddr < areaPhys_ ||
                paddr + kCacheLineSize > areaPhys_ + areaSize_)
                continue;
            // Never touch the target set.
            Addr set_of = bits(paddr, set_bits - 1, 6);
            if (set_of == opt_.set)
                continue;
            unsigned slice = opt_.level == CacheLevel::L3
                                 ? caches.sliceOf(paddr)
                                 : 0;
            auto key = std::make_pair(set_of, slice);
            if (load[key] >= cap_per_set)
                continue;
            ++load[key];
            evictPool_.push_back(areaVirt_ + (paddr - areaPhys_));
        }
    }
    evictRunLength_ = static_cast<unsigned>(evictPool_.size());
    if (evictRunLength_ < need) {
        warn("cacheSeq: eviction pool has only ", evictRunLength_,
             " lines (wanted ", need, "); results may be unreliable");
    }
}

void
CacheSeq::setTarget(unsigned set, unsigned cbox)
{
    checkTarget(set, cbox);
    opt_.set = set;
    opt_.cbox = cbox;
    computeTargetLayout();
}

Addr
CacheSeq::nextCandidate()
{
    auto &machine = runner_.machine();
    const auto &caches = machine.caches();
    for (;;) {
        Addr offset = nextCandidateOffset_;
        nextCandidateOffset_ += candidateStride_;
        if (offset + kCacheLineSize > areaSize_) {
            fatal("cacheSeq ran out of candidate addresses in the "
                  "reserved area (needed more than ", blockAddrs_.size(),
                  " blocks)");
        }
        Addr paddr = areaPhys_ + offset;
        if (opt_.level == CacheLevel::L3 &&
            caches.sliceOf(paddr) != opt_.cbox)
            continue; // wrong slice; try the next candidate
        return areaVirt_ + offset;
    }
}

Addr
CacheSeq::blockVaddr(int block)
{
    NB_ASSERT(block >= 0, "negative block id");
    auto [it, inserted] = blockAddrs_.try_emplace(block, 0);
    if (inserted)
        it->second = nextCandidate();
    return it->second;
}

std::vector<Addr>
CacheSeq::evictionRun()
{
    std::vector<Addr> run;
    for (unsigned i = 0; i < evictRunLength_; ++i) {
        run.push_back(evictPool_[evictPos_]);
        evictPos_ = (evictPos_ + 1) % evictPool_.size();
    }
    return run;
}

std::vector<Instruction>
CacheSeq::buildBody(const std::vector<SeqAccess> &seq)
{
    std::vector<Instruction> body;
    bool counting = true;
    auto set_counting = [&](bool on) {
        if (counting == on)
            return;
        body.push_back(ins(on ? Opcode::PFC_RESUME : Opcode::PFC_PAUSE));
        counting = on;
    };

    bool first_access = true;
    for (const auto &acc : seq) {
        if (acc.wbinvd) {
            set_counting(false);
            body.push_back(ins(Opcode::WBINVD));
            continue;
        }
        // Eviction accesses between two block accesses (§VI-C), so the
        // access below actually reaches the cache under test.
        if (!first_access && evictRunLength_ > 0) {
            set_counting(false);
            for (Addr vaddr : evictionRun())
                body.push_back(
                    ins(Opcode::MOV, {reg(Reg::RBX), memAbs(vaddr)}));
        }
        set_counting(acc.measured);
        body.push_back(ins(Opcode::MOV, {reg(Reg::RBX),
                                         memAbs(blockVaddr(acc.block))}));
        first_access = false;
    }
    set_counting(true);
    return body;
}

const char *
CacheSeq::hitEventName(CacheLevel level)
{
    switch (level) {
      case CacheLevel::L1:
        return "MEM_LOAD_RETIRED.L1_HIT";
      case CacheLevel::L2:
        return "MEM_LOAD_RETIRED.L2_HIT";
      case CacheLevel::L3:
        return "MEM_LOAD_RETIRED.L3_HIT";
    }
    panic("unreachable level");
}

const char *
CacheSeq::missEventName(CacheLevel level)
{
    switch (level) {
      case CacheLevel::L1:
        return "MEM_LOAD_RETIRED.L1_MISS";
      case CacheLevel::L2:
        return "MEM_LOAD_RETIRED.L2_MISS";
      case CacheLevel::L3:
        return "MEM_LOAD_RETIRED.L3_MISS";
    }
    panic("unreachable level");
}

core::BenchmarkSpec
CacheSeq::planSeq(const std::vector<SeqAccess> &seq)
{
    return planSeqWithPrelude({}, seq);
}

core::BenchmarkSpec
CacheSeq::planSeqWithPrelude(const std::vector<Instruction> &prelude,
                             const std::vector<SeqAccess> &seq)
{
    core::BenchmarkSpec spec;
    if (!prelude.empty()) {
        // The prelude runs inside the measured body but behind a pause
        // marker, so the counters ignore it; basic mode's zero-unroll
        // version skips the body entirely, so the prelude executes
        // once per measurement (an init part would execute for both
        // code versions).
        spec.code.push_back(ins(Opcode::PFC_PAUSE));
        spec.code.insert(spec.code.end(), prelude.begin(),
                         prelude.end());
    }
    auto body = buildBody(seq);
    spec.code.insert(spec.code.end(), body.begin(), body.end());
    spec.unrollCount = 1;
    spec.loopCount = 0;
    spec.nMeasurements = opt_.repetitions;
    spec.warmUpCount = 0;
    spec.agg = Aggregate::Mean;
    spec.basicMode = true;
    spec.noMem = true;
    spec.fixedCounters = false;

    // Select the hit/miss events of the targeted level.
    spec.config.add(hitEventName(opt_.level));
    spec.config.add(missEventName(opt_.level));
    return spec;
}

HitMiss
CacheSeq::decodeHitMiss(CacheLevel level,
                        const core::BenchmarkResult &result)
{
    return HitMiss{result[hitEventName(level)],
                   result[missEventName(level)]};
}

HitMiss
CacheSeq::runHitMiss(const std::vector<SeqAccess> &seq)
{
    return decodeHitMiss(opt_.level, runner_.run(planSeq(seq)));
}

double
CacheSeq::run(const std::vector<SeqAccess> &seq)
{
    return runHitMiss(seq).hits;
}

double
CacheSeq::run(const std::string &seq_text)
{
    return run(parseAccessSeq(seq_text));
}

} // namespace nb::cachetools
