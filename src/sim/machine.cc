/**
 * @file
 * Machine framework: construction, scheduling, interrupts, MSRs, and
 * the frozen reference execution loop. The primary threaded executor
 * lives in dispatch.cc; reference instruction semantics in exec.cc.
 */

#include "machine.hh"

#include <algorithm>

#include "common/bits.hh"
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

Cycles
Machine::issueSlot(unsigned effective_issue_width)
{
    // Scheduler-window back-pressure: stall issue until the oldest
    // in-flight µop completes.
    if (sched_.window.size() >= uarch_.windowSize) {
        Cycles oldest = sched_.window.front();
        sched_.window.pop_front();
        if (oldest > sched_.issueCycle) {
            sched_.issueCycle = oldest;
            sched_.issuedInCycle = 0;
        }
    }
    if (sched_.issuedInCycle >= effective_issue_width) {
        ++sched_.issueCycle;
        sched_.issuedInCycle = 0;
    }
    ++sched_.issuedInCycle;
    pmu_.countIssue(sched_.issueCycle);
    return sched_.issueCycle;
}

Machine::UopTiming
Machine::dispatchUop(uarch::PortMask ports, Cycles ready, unsigned latency,
                     unsigned block_cycles)
{
    ready = std::max(ready, sched_.minDispatch);
    if (ports == 0) {
        // µop that occupies no execution port (e.g. eliminated or
        // fence-internal); completes at readiness.
        Cycles done = ready + latency;
        sched_.maxCompletion = std::max(sched_.maxCompletion, done);
        sched_.window.push_back(done);
        return {ready, done};
    }

    // Choose the allowed port with the earliest dispatch opportunity;
    // break ties towards the least-used port, so that symmetric ports
    // (e.g. the two load ports) split a dependent chain evenly.
    unsigned best_port = 0;
    Cycles best_cycle = ~Cycles{0};
    unsigned n_ports = ports_.numPorts;
    for (unsigned p = 0; p < n_ports; ++p) {
        if (!(ports & (1u << p)))
            continue;
        Cycles c = std::max(ready, sched_.portFree[p]);
        if (c < best_cycle ||
            (c == best_cycle &&
             sched_.portUse[p] < sched_.portUse[best_port])) {
            best_cycle = c;
            best_port = p;
        }
    }
    NB_ASSERT(best_cycle != ~Cycles{0}, "empty port mask");

    ++sched_.portUse[best_port];
    sched_.portFree[best_port] = best_cycle + 1 + block_cycles;
    Cycles done = best_cycle + std::max(1u, latency);
    if (latency == 0)
        done = best_cycle + 1;
    sched_.maxCompletion = std::max(sched_.maxCompletion, done);
    sched_.window.push_back(done);

    pmu_.countDispatch(best_port, best_cycle);
    return {best_cycle, done};
}

void
Machine::retireInstr(Cycles completion, bool is_branch, bool mispredicted)
{
    Cycles retire = std::max(completion, sched_.lastRetire);
    if (retire == sched_.lastRetire &&
        sched_.retiredInCycle >= uarch_.retireWidth) {
        ++retire;
    }
    if (retire != sched_.lastRetire)
        sched_.retiredInCycle = 0;
    ++sched_.retiredInCycle;
    sched_.lastRetire = retire;
    sched_.maxCompletion = std::max(sched_.maxCompletion, retire);

    pmu_.countRetire(retire);
    if (is_branch) {
        count(EventId::BrInstRetired, 1, retire);
        if (mispredicted)
            count(EventId::BrMispRetired, 1, retire);
    }
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
Machine::maybeInterrupt(ExecContext &ctx)
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
    ++ctx.stats.interrupts;
    scheduleNextInterrupt();
}

ExecStats
Machine::executeReference(const Program &prog)
{
    ExecContext ctx;
    ctx.program = &prog;
    ctx.stats.startCycle = sched_.maxCompletion;

    // Front-end footprint model (§III-F): code that no longer fits the
    // instruction cache decodes at a reduced rate. The footprint is
    // the *dynamic* layout's size -- repeat-encoded programs occupy
    // the same i-cache space as their materialized equivalent.
    std::uint64_t footprint = prog.virtualSize() * 4; // 4 bytes/insn
    ctx.effectiveIssueWidth = uarch_.issueWidth;
    if (footprint > 256 * 1024)
        ctx.effectiveIssueWidth = std::max(1u, uarch_.issueWidth / 4);
    else if (footprint > 32 * 1024)
        ctx.effectiveIssueWidth = std::max(2u, uarch_.issueWidth / 2);

    // Cursor over the virtual index space: (block, iteration within
    // the block's repeat count, offset within the pattern). Sequential
    // advance is O(1); a taken branch relocates by scanning the block
    // list (blocks are contiguous in virtual space and few).
    const std::vector<Program::Block> &blocks = prog.blocks();
    const std::uint64_t vsize = prog.virtualSize();
    std::size_t block_idx = 0;
    std::uint64_t iter = 0;
    std::uint32_t offset = 0;
    std::uint64_t vidx = 0;      // virtual index of the cursor
    std::uint64_t copy_base = 0; // virtual index of the current copy

    auto relocate = [&](std::uint64_t v) {
        for (block_idx = 0; block_idx < blocks.size(); ++block_idx) {
            const Program::Block &b = blocks[block_idx];
            std::uint64_t span =
                static_cast<std::uint64_t>(b.entryCount) * b.repeat;
            if (v < b.firstVirtual + span) {
                std::uint64_t rel = v - b.firstVirtual;
                iter = rel / b.entryCount;
                offset = static_cast<std::uint32_t>(
                    rel % b.entryCount);
                copy_base = b.firstVirtual + iter * b.entryCount;
                vidx = v;
                return;
            }
        }
        vidx = v; // past the end: control falls off the program
    };

    while (vidx < vsize) {
        if (ctx.stats.instructions >= maxInstr_) {
            fatal("instruction budget exceeded (", maxInstr_,
                  "); possible endless loop in microbenchmark");
        }
        const Program::Block &b = blocks[block_idx];
        const std::uint32_t e = b.entryBegin + offset;
        ctx.copyBase = copy_base;
        // Advance the cursor to the fallthrough position.
        ++vidx;
        if (++offset == b.entryCount) {
            offset = 0;
            if (++iter == b.repeat) {
                iter = 0;
                ++block_idx;
            }
            copy_base = vidx;
        }
        ctx.nextIdx = vidx;
        executeInstr(prog.plan(e), prog.insn(e), ctx);
        ++ctx.stats.instructions;
        if (ctx.nextIdx != vidx)
            relocate(ctx.nextIdx); // a taken branch redirected us
        maybeInterrupt(ctx);
    }

    ctx.stats.endCycle = sched_.maxCompletion;
    return ctx.stats;
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
