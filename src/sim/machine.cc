/**
 * @file
 * Machine framework: construction, reset, PMU accounting, memory
 * access, interrupts and MSRs. The executor itself lives in
 * dispatch.cc.
 */

#include "machine.hh"

#include <algorithm>

#include "common/logging.hh"

namespace nb::sim
{

Machine::Machine(const uarch::MicroArch &ua, std::uint64_t seed)
    : uarch_(ua), ports_(ua.ports()), rng_(seed),
      pmu_(ua.numProgCounters, ua.hasFixedCounters, ua.refClockRatio),
      caches_(ua.cacheConfig, &rng_)
{
    // The scheduler, the dispatch loops and ExecObserver index their
    // per-port arrays unchecked.
    NB_ASSERT(ports_.numPorts <= kMaxPorts, "kMaxPorts too small for ",
              ua.name);
    resetScheduler();
    scheduleNextInterrupt();
    markResetPoint();
}

void
Machine::resetScheduler()
{
    sched_ = Scheduler{};
}

void
Machine::markResetPoint()
{
    NB_ASSERT(sched_.maxCompletion == 0 &&
                  memory_.phys().livePages() == 0,
              "reset point must precede execution and memory writes");
    memory_.pageTable().mark();
    resetPoint_ = {rng_, nextInterrupt_, privilege_, interruptsEnabled_,
                   rdpmcUser_, maxInstr_, caches_.prefetcherControl()};
}

void
Machine::reset()
{
    caches_.reset();
    caches_.setPrefetcherControl(resetPoint_.prefetcherControl);
    tlb_.reset();
    pmu_.reset();
    memory_.phys().reset();
    memory_.pageTable().rollback();
    arch_ = ArchState{};
    resetScheduler();
    branchTable_.clear();
    setCycleBudget(0);
    rng_ = resetPoint_.rng;
    nextInterrupt_ = resetPoint_.nextInterrupt;
    privilege_ = resetPoint_.privilege;
    interruptsEnabled_ = resetPoint_.interruptsEnabled;
    rdpmcUser_ = resetPoint_.rdpmcUser;
    maxInstr_ = resetPoint_.maxInstr;
}

void
Machine::setInterruptsEnabled(bool enabled)
{
    interruptsEnabled_ = enabled;
    if (enabled)
        scheduleNextInterrupt();
}

void
Machine::scheduleNextInterrupt()
{
    std::uint64_t period = uarch_.interruptPeriodCycles;
    // +/- 20% jitter.
    std::uint64_t jitter = rng_.nextRange(period * 8 / 10, period * 12 / 10);
    nextInterrupt_ = sched_.maxCompletion + jitter;
}

void
Machine::flushPendingCounts()
{
    for (unsigned i = 0; i < kNumEvents; ++i) {
        if (pendingCounts_[i] != 0) {
            pmu_.commit(static_cast<EventId>(i), pendingCounts_[i]);
            pendingCounts_[i] = 0;
        }
    }
}

void
Machine::beginUopTally()
{
    uopTally_.portBase = sched_.portUse;
    uopTally_.issued = 0;
    uopTally_.unported = 0;
    armUopLog();
}

void
Machine::armUopLog()
{
    uopLog_ = {};
    if (pmu_.isPaused())
        return;
    uopLog_.issue = pmu_.issueStreamed();
    uopLog_.ports = pmu_.streamedPorts() & ((1u << ports_.numPorts) - 1);
}

void
Machine::foldUopTally()
{
    // Every µop event, streamed or not, takes its total from the tally
    // (a stream append counts nothing); the pause state is constant
    // between two syncs.
    const bool counting = !pmu_.isPaused();
    auto pend = [&](EventId e, std::uint64_t n) {
        if (counting)
            pendingCounts_[static_cast<unsigned>(e)] += n;
    };
    ExecObserver *const obs = execObserver_;
    std::uint64_t executed = 0;
    for (unsigned p = 0; p < ports_.numPorts; ++p) {
        const std::uint64_t n = sched_.portUse[p] - uopTally_.portBase[p];
        if (n == 0)
            continue;
        uopTally_.portBase[p] = sched_.portUse[p];
        executed += n;
        if (p < 8)
            pend(portEvent(p), n);
        if (obs)
            obs->portUops[p] += n;
    }
    pend(EventId::UopsExecuted, executed);
    pend(EventId::UopsIssued, uopTally_.issued);
    if (obs) {
        obs->uopsIssued += uopTally_.issued;
        obs->uopsDispatched += executed + uopTally_.unported;
    }
    uopTally_.issued = 0;
    uopTally_.unported = 0;
}

void
Machine::countLoadLevel(const cache::AccessResult &res, Cycles at)
{
    using cache::HitLevel;
    count(EventId::MemLoads, 1, at);
    switch (res.level) {
      case HitLevel::L1:
        count(EventId::MemLoadL1Hit, 1, at);
        break;
      case HitLevel::L2:
        count(EventId::MemLoadL1Miss, 1, at);
        count(EventId::MemLoadL2Hit, 1, at);
        break;
      case HitLevel::L3:
        count(EventId::MemLoadL1Miss, 1, at);
        count(EventId::MemLoadL2Miss, 1, at);
        count(EventId::MemLoadL3Hit, 1, at);
        break;
      case HitLevel::Memory:
        count(EventId::MemLoadL1Miss, 1, at);
        count(EventId::MemLoadL2Miss, 1, at);
        count(EventId::MemLoadL3Miss, 1, at);
        break;
    }
}

std::pair<std::uint64_t, Cycles>
Machine::loadValue(Addr vaddr, unsigned bytes)
{
    Addr paddr = memory_.translate(vaddr);
    // Address translation consults the TLB hierarchy; misses add their
    // penalty to the load-to-use latency.
    TlbResult tlb_res = tlb_.access(vaddr);
    std::uint64_t evictions_before = caches_.l1().stats().evictions;
    auto res = caches_.access(paddr, cache::AccessType::Load);
    std::uint64_t evictions_after = caches_.l1().stats().evictions;
    Cycles at = sched_.maxCompletion;
    countLoadLevel(res, at);
    if (tlb_res.level == TlbLevel::Stlb)
        count(EventId::DtlbMissStlbHit, 1, at);
    else if (tlb_res.level == TlbLevel::PageWalk)
        count(EventId::DtlbMissWalk, 1, at);
    if (evictions_after > evictions_before) {
        count(EventId::L1dReplacement, evictions_after - evictions_before,
              at);
    }
    return {memory_.phys().read(paddr, bytes),
            res.latency + tlb_res.penalty};
}

void
Machine::storeValue(Addr vaddr, std::uint64_t value, unsigned bytes)
{
    Addr paddr = memory_.translate(vaddr);
    tlb_.access(vaddr); // stores translate too (no latency modelled)
    std::uint64_t evictions_before = caches_.l1().stats().evictions;
    caches_.access(paddr, cache::AccessType::Store);
    std::uint64_t evictions_after = caches_.l1().stats().evictions;
    Cycles at = sched_.maxCompletion;
    count(EventId::MemStores, 1, at);
    if (evictions_after > evictions_before) {
        count(EventId::L1dReplacement, evictions_after - evictions_before,
              at);
    }
    memory_.phys().write(paddr, value, bytes);
}

VecReg
Machine::loadVec(Addr vaddr, unsigned bytes, Cycles *latency)
{
    VecReg v{};
    Cycles max_lat = 0;
    for (unsigned off = 0; off < bytes; off += 8) {
        auto [value, lat] = loadValue(vaddr + off, 8);
        v[off / 8] = value;
        max_lat = std::max(max_lat, lat);
    }
    *latency = max_lat;
    return v;
}

void
Machine::storeVec(Addr vaddr, const VecReg &value, unsigned bytes)
{
    for (unsigned off = 0; off < bytes; off += 8)
        storeValue(vaddr + off, value[off / 8], 8);
}

void
Machine::requirePrivilege(const x86::Instruction &insn) const
{
    if (insn.info().privileged && privilege_ != Privilege::Kernel) {
        fatal("general protection fault: privileged instruction '",
              insn.toString(), "' executed in user mode");
    }
}

void
Machine::maybeInterrupt(ExecStats &stats)
{
    if (!interruptsEnabled_ || sched_.maxCompletion < nextInterrupt_)
        return;

    // Timer interrupt: the handler runs a few hundred instructions,
    // perturbing counts and cache state (§IV-A2, [30, 31]).
    Cycles at = sched_.maxCompletion;
    std::uint64_t handler_instr = rng_.nextRange(300, 900);
    std::uint64_t handler_cycles = rng_.nextRange(3000, 10000);
    count(EventId::InstrRetired, handler_instr, at);
    count(EventId::UopsIssued, handler_instr + handler_instr / 4, at);
    count(EventId::UopsExecuted, handler_instr, at);
    count(EventId::BrInstRetired, handler_instr / 5, at);
    count(EventId::BrMispRetired, rng_.nextRange(0, 4), at);

    // The handler touches some cache lines in a reserved physical range.
    constexpr Addr kHandlerBase = 0xF000'0000ULL;
    unsigned lines = static_cast<unsigned>(rng_.nextRange(8, 32));
    for (unsigned i = 0; i < lines; ++i) {
        Addr line = kHandlerBase +
                    rng_.nextBelow(512) * kCacheLineSize;
        caches_.access(line, cache::AccessType::Load);
    }

    // Pipeline restart after the handler.
    sched_.issueCycle = at + handler_cycles;
    sched_.issuedInCycle = 0;
    sched_.minDispatch = std::max(sched_.minDispatch, at + handler_cycles);
    sched_.maxCompletion = at + handler_cycles;
    sched_.lastRetire = std::max(sched_.lastRetire, at + handler_cycles);
    ++stats.interrupts;
    scheduleNextInterrupt();
}

std::uint64_t
Machine::readMsr(std::uint32_t addr)
{
    return readMsrAt(addr, sched_.maxCompletion);
}

std::uint64_t
Machine::readMsrAt(std::uint32_t addr, Cycles now)
{
    if (addr == msr::kAperf)
        return pmu_.aperf(now);
    if (addr == msr::kMperf)
        return pmu_.mperf(now);
    if (addr == msr::kPrefetchControl)
        return caches_.prefetcherControl();
    if (addr >= msr::kPmc0 && addr < msr::kPmc0 + pmu_.numProg())
        return pmu_.readProg(addr - msr::kPmc0, now);
    if (addr >= msr::kFixedCtr0 && addr < msr::kFixedCtr0 + 3 &&
        pmu_.hasFixed())
        return pmu_.readFixed(addr - msr::kFixedCtr0, now);
    if (uarch_.hasUncoreCounters) {
        unsigned n = caches_.numSlices();
        if (addr >= msr::kCboxLookupBase &&
            addr < msr::kCboxLookupBase + n)
            return caches_.cboxStats(addr - msr::kCboxLookupBase).lookups;
        if (addr >= msr::kCboxHitBase && addr < msr::kCboxHitBase + n)
            return caches_.cboxStats(addr - msr::kCboxHitBase).hits;
        if (addr >= msr::kCboxMissBase && addr < msr::kCboxMissBase + n)
            return caches_.cboxStats(addr - msr::kCboxMissBase).misses;
    }
    fatal("RDMSR: unimplemented MSR 0x", std::hex, addr);
}

void
Machine::writeMsr(std::uint32_t addr, std::uint64_t value)
{
    if (addr == msr::kPrefetchControl) {
        caches_.setPrefetcherControl(value);
        return;
    }
    if (addr >= msr::kPerfEvtSel0 &&
        addr < msr::kPerfEvtSel0 + pmu_.numProg()) {
        unsigned idx = addr - msr::kPerfEvtSel0;
        bool enable = (value >> 22) & 1;
        if (!enable) {
            pmu_.disableProg(idx);
            return;
        }
        EventCode code{static_cast<std::uint8_t>(value & 0xFF),
                       static_cast<std::uint8_t>((value >> 8) & 0xFF)};
        if (!pmu_.configureProg(idx, code)) {
            warn("WRMSR: unknown event code ", std::hex,
                 static_cast<int>(code.evsel), ".",
                 static_cast<int>(code.umask));
        }
        return;
    }
    fatal("WRMSR: unimplemented MSR 0x", std::hex, addr);
}

} // namespace nb::sim
