/**
 * @file
 * The simulated machine: one x86-64 core with an out-of-order back-end,
 * a PMU, a cache hierarchy, virtual memory, and an interrupt model.
 *
 * Timing model. Instructions are executed sequentially for semantics,
 * while timing is computed with a dataflow scheduler: each µop dispatches
 * to one of its allowed execution ports no earlier than (a) its issue
 * cycle (bounded by the issue width and the scheduler window), (b) the
 * cycle its register/memory inputs are ready, (c) the port's next free
 * cycle, and (d) any pending dispatch fence. Load µops take their latency
 * from the cache hierarchy. Retirement is in order.
 *
 * This reproduces the behaviours the paper's methodology depends on:
 *  - counter-reading instructions (RDPMC/RDMSR) are *not* serializing:
 *    without a fence they dispatch as soon as their inputs are ready and
 *    sample the counters at that early cycle (§IV-A1);
 *  - LFENCE dispatches only after all older instructions have completed
 *    locally and blocks younger ones until it completes (§IV-A1);
 *  - CPUID serializes too, but contributes a variable latency and µop
 *    count of its own (Paoloni's observation, §IV-A1);
 *  - timer interrupts perturb counts unless disabled (kernel mode,
 *    §III-D / §IV-A2);
 *  - privileged instructions fault outside kernel mode (§III-D).
 */

#ifndef NB_SIM_MACHINE_HH
#define NB_SIM_MACHINE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/arch_state.hh"
#include "sim/memory.hh"
#include "sim/pmu.hh"
#include "sim/program.hh"
#include "sim/scheduler_state.hh"
#include "sim/tlb.hh"
#include "uarch/uarch.hh"
#include "x86/instruction.hh"

namespace nb::sim
{

/** Current privilege level of the simulated core. */
enum class Privilege : std::uint8_t
{
    User,
    Kernel,
};

/** Model-specific register addresses implemented by the machine. */
namespace msr
{
inline constexpr std::uint32_t kMperf = 0xE7;
inline constexpr std::uint32_t kAperf = 0xE8;
inline constexpr std::uint32_t kPerfEvtSel0 = 0x186; ///< +i per counter
inline constexpr std::uint32_t kPmc0 = 0xC1;         ///< +i per counter
inline constexpr std::uint32_t kPrefetchControl = 0x1A4;
inline constexpr std::uint32_t kFixedCtr0 = 0x309;   ///< +i per counter
/** Uncore C-Box counters (lookups/hits/misses per slice). */
inline constexpr std::uint32_t kCboxLookupBase = 0x700; ///< +slice
inline constexpr std::uint32_t kCboxHitBase = 0x720;    ///< +slice
inline constexpr std::uint32_t kCboxMissBase = 0x740;   ///< +slice
} // namespace msr

/**
 * Opt-in observation sink for the threaded executor (execute()).
 * When attached via Machine::setExecObserver, the dispatch loop
 * accrues what the core *actually did* -- per-port dispatched µops,
 * issue/dispatch totals, retire-stall cycles -- across execute()
 * calls. The µop counts come from the same tally as the PMU's µop
 * events (Machine::UopTally) and arrive at its sync points, so over
 * an unpaused run without timer interrupts uopsIssued equals
 * UopsIssued and portUops[p] equals UopsPort<p>. Observation is
 * strictly read-only: attaching an observer must leave every
 * observable (ExecStats, arch state, PMU totals, time-resolved
 * samples) bit-identical, which the parity tests pin. Counters
 * accumulate until reset(); obs::observeSpec() wraps this in the
 * paper's differential pattern to cancel harness overhead.
 * Cache-line aligned: campaign workers keep theirs side by side in one
 * vector, and the executor writes them at every sync and retirement.
 */
struct alignas(64) ExecObserver
{
    /** One slot per possible port (the machine's bound). */
    static constexpr unsigned kMaxPorts = sim::kMaxPorts;

    std::array<std::uint64_t, kMaxPorts> portUops{};
    std::uint64_t uopsIssued = 0;
    std::uint64_t uopsDispatched = 0;
    std::uint64_t retireStallCycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;

    void reset() { *this = ExecObserver{}; }
};

/** Statistics of one execute() call. */
struct ExecStats
{
    std::uint64_t instructions = 0;
    std::uint64_t uops = 0;
    Cycles startCycle = 0;
    Cycles endCycle = 0;
    std::uint64_t interrupts = 0;

    Cycles cycles() const { return endCycle - startCycle; }
};

/** One simulated x86-64 core plus its memory system. */
class Machine
{
  public:
    Machine(const uarch::MicroArch &ua, std::uint64_t seed = 42);

    const uarch::MicroArch &uarch() const { return uarch_; }
    ArchState &arch() { return arch_; }
    Memory &memory() { return memory_; }
    Pmu &pmu() { return pmu_; }
    cache::Hierarchy &caches() { return caches_; }
    Tlb &tlb() { return tlb_; }
    Rng &rng() { return rng_; }

    /**
     * Return to the reset point in O(state touched since the last
     * reset): caches, TLBs, PMU, scheduler, branch predictor,
     * registers, PMU MSRs, physical memory and cycle budget go back
     * to their just-constructed state; the page table, RNG stream,
     * interrupt schedule, privilege, CR4.PCE, prefetcher-control MSR
     * and instruction budget go back to their values at the reset
     * point. An attached ExecObserver stays attached (it is not
     * machine state).
     */
    void reset();

    /**
     * Move the reset point to now. The constructor sets it; a Runner
     * moves it past its memory-area setup (and a campaign worker past
     * its machine setup hook), so that a reset keeps those mappings
     * (rolling back only later ones via the page table's undo log)
     * and restores the RNG as it stood after the setup's draws -- the
     * state a reseed plus the setup-time draws (interrupt schedule,
     * user-mode fragmentation) would reproduce. Only page mappings,
     * RNG draws and the settings above may precede the mark: nothing
     * may have executed or written memory (asserted).
     */
    void markResetPoint();

    void setPrivilege(Privilege p) { privilege_ = p; }
    Privilege privilege() const { return privilege_; }

    /** Master toggle for the timer-interrupt model. */
    void setInterruptsEnabled(bool enabled);
    bool interruptsEnabled() const { return interruptsEnabled_; }

    /** CR4.PCE: whether RDPMC is allowed in user mode (§II). */
    void setRdpmcUserEnabled(bool enabled) { rdpmcUser_ = enabled; }

    /** Monotonic cycle clock (completion frontier of all issued work). */
    Cycles cycles() const { return sched_.maxCompletion; }

    /**
     * Execute a predecoded program until control falls off the end.
     * This is the primary execution path (sim/dispatch.cc): a threaded
     * computed-goto interpreter over the Program's per-entry plans,
     * with the µop events tallied (UopTally) and the other
     * non-time-resolved events batched locally, both committed at the
     * PMU sync points and when the call returns.
     *
     * @throws nb::FatalError on faults (privilege violation, page fault,
     *         divide error) and on exceeding the instruction budget.
     */
    ExecStats execute(const Program &prog);

    /**
     * The pre-threaded-dispatch execution path (switch-based
     * executeInstr per dynamic instruction, per-event PMU accounting),
     * kept frozen as the parity reference: execute() must stay
     * bit-identical to it in every observable (ExecStats, registers,
     * flags, counter totals and time-resolved samples), which the
     * parity suite and the dispatch_vs_predecode bench gate pin.
     */
    ExecStats executeReference(const Program &prog);

    /** Instruction budget per execute() call (runaway-loop guard). */
    void setMaxInstructions(std::uint64_t budget) { maxInstr_ = budget; }

    /**
     * Arm (or, with 0, disarm) a cycle budget: once simulated time
     * advances @p budget cycles past the current cycle, execute()
     * throws nb::BudgetExceededError from an amortized checkpoint in
     * the dispatch loop (so a runaway microbenchmark costs at most
     * ~one epoch past its budget instead of hanging the caller). The
     * deadline is absolute, so one budget spans every execute() call
     * of a Runner::run. Callers must disarm before returning a pooled
     * machine (Runner::run does this via RAII).
     */
    void
    setCycleBudget(std::uint64_t budget)
    {
        cycleBudget_ = budget;
        cycleDeadline_ = budget ? sched_.maxCompletion + budget : 0;
    }

    /** The armed cycle budget (0 = disarmed). */
    std::uint64_t cycleBudget() const { return cycleBudget_; }

    /** MSR file (RDMSR/WRMSR reach this; also usable from C++). */
    std::uint64_t readMsr(std::uint32_t addr);
    void writeMsr(std::uint32_t addr, std::uint64_t value);

    /** MSR read sampled "as of" a specific cycle (counter MSRs only
     *  differ from readMsr by the sampling point). */
    std::uint64_t readMsrAt(std::uint32_t addr, Cycles cycle);

    /** Attach (or with nullptr detach) an execution observer; the
     *  machine does not own it. See ExecObserver. */
    void setExecObserver(ExecObserver *observer)
    {
        execObserver_ = observer;
    }
    ExecObserver *execObserver() const { return execObserver_; }

  private:
    // ------------------------------------------------ timing machinery
    struct Scheduler
    {
        /** Readiness per register, of the flags (kFlagsSlot) and of the
         *  idle slot (kIdleSlot, never written). */
        std::array<Cycles, kNumReadySlots> regReady{};
        std::array<Cycles, kMaxPorts> portFree{};
        Cycles issueCycle = 0;
        unsigned issuedInCycle = 0;
        Cycles minDispatch = 0;   ///< dispatch fence (LFENCE/CPUID)
        Cycles maxCompletion = 0; ///< completion frontier
        Cycles lastRetire = 0;
        unsigned retiredInCycle = 0;
        CompletionFifo window; ///< in-flight µop completions
        /** µops dispatched per port (tie-break: least-loaded port). */
        std::array<std::uint64_t, kMaxPorts> portUse{};
    };

    /** Account one issue slot; returns the issue cycle. */
    Cycles issueSlot(unsigned effective_issue_width);

    /** Dispatch/completion cycles of one µop. */
    struct UopTiming
    {
        Cycles dispatch;
        Cycles done;
    };

    /**
     * Dispatch a µop. Picks the allowed port with the earliest dispatch
     * cycle (round-robin tie-break), accounts port-dispatch events, and
     * returns the dispatch and completion cycles.
     */
    UopTiming dispatchUop(uarch::PortMask ports, Cycles ready,
                          unsigned latency, unsigned block_cycles);

    void retireInstr(Cycles completion, bool is_branch, bool mispredicted);

    // --------------------------------------------------- execution core
    struct ExecContext
    {
        const Program *program = nullptr;
        /** Virtual index of the next instruction (the fallthrough /
         *  return address while executeInstr runs). */
        std::uint64_t nextIdx = 0;
        /** Virtual index of the current pattern copy's first entry
         *  (resolves pattern-relative branch targets). */
        std::uint64_t copyBase = 0;
        ExecStats stats;
        unsigned effectiveIssueWidth = 4;
    };

    void executeInstr(const EntryPlan &p, const x86::Instruction &insn,
                      ExecContext &ctx);

    /** Memory helpers (semantics + timing + events). */
    Addr
    effectiveAddress(const x86::MemRef &mem) const
    {
        Addr addr = static_cast<Addr>(mem.disp);
        if (mem.base != x86::Reg::Invalid)
            addr += arch_.readGpr(mem.base, 64);
        if (mem.index != x86::Reg::Invalid)
            addr += arch_.readGpr(mem.index, 64) * mem.scale;
        return addr;
    }
    /** Performs the cache access + phys read; returns (value, latency).*/
    std::pair<std::uint64_t, Cycles> loadValue(Addr vaddr, unsigned bytes);
    void storeValue(Addr vaddr, std::uint64_t value, unsigned bytes);
    VecReg loadVec(Addr vaddr, unsigned bytes, Cycles *latency);
    void storeVec(Addr vaddr, const VecReg &value, unsigned bytes);

    void requirePrivilege(const x86::Instruction &insn) const;

    /** The just-constructed scheduler. */
    void resetScheduler();

    /** Inject a timer interrupt if one is due. */
    void maybeInterrupt(ExecContext &ctx);
    void scheduleNextInterrupt();

    /** Cold path of the dispatch loop's amortized resilience
     *  checkpoint: fault-injection arrival (execute site) and the
     *  cycle-budget deadline. Throws InjectedFault or
     *  BudgetExceededError. */
    void budgetCheckpoint(ExecContext &ctx);

    /**
     * Count a PMU event at a cycle. While the threaded executor runs
     * (batchEvents_), events that are not time-resolved (not selected
     * on a programmable counter, not InstrRetired) accrue in a local
     * pending array -- the pause gate is applied here, at accrual time
     * -- and are committed to the PMU totals in bulk when execute()
     * returns. Time-resolved events always reach the PMU immediately
     * so per-cycle sampling semantics are exact.
     */
    NB_ALWAYS_INLINE void
    count(EventId e, std::uint64_t n, Cycles at)
    {
        if (!batchEvents_) {
            pmu_.count(e, n, at);
            return;
        }
        countBatched(e, n, at);
    }

    /** count() with batched counting known to be on: the threaded
     *  executor's own µop accounting, inside its BatchCountScope. */
    NB_ALWAYS_INLINE void
    countBatched(EventId e, std::uint64_t n, Cycles at)
    {
        if (n == 0 || pmu_.isPaused())
            return;
        auto idx = static_cast<unsigned>(e);
        if (pmu_.loggedMask() >> idx & 1)
            pmu_.count(e, n, at);
        else
            pendingCounts_[idx] += n;
    }

    /** Commit the batched event counts (see count()). */
    void flushPendingCounts();

    /**
     * The threaded executor's µop accounting between two PMU sync
     * points. Its issue and dispatch primitives bump only `issued`,
     * `unported` and the Scheduler's portUse; a µop event that is
     * logged (time-resolved) is still counted per µop, at its cycle
     * (see UopLog). A sync (foldUopTally) turns the deltas into the
     * UopsIssued / UopsExecuted / UopsPort<N> counts of the events
     * that were neither logged nor paused since the last sync, in
     * pendingCounts_, and into the attached ExecObserver.
     *
     * The sync points are exactly where the pause state or the logged
     * set can change, or where the counts are read mid-call: the PFC
     * markers, WRMSR, the budget checkpoint, and the exit of execute()
     * (including unwinding, via BatchCountScope).
     */
    struct UopTally
    {
        /** sched_.portUse at the last sync. */
        std::array<std::uint64_t, kMaxPorts> portBase{};
        std::uint64_t issued = 0;   ///< issue slots since the last sync
        std::uint64_t unported = 0; ///< port-less µops since then
    };

    /** The per-µop PMU streams the tally cannot stand in for, armed
     *  at every sync (armUopLog): all false/0 while paused. */
    struct UopLog
    {
        bool issue = false; ///< issue slots are streamed
        /** Bit p: a dispatch to port p is streamed (Pmu::
         *  streamedPorts()). */
        std::uint32_t ports = 0;
    };

    /** Start a tally at the current portUse and arm the log. */
    void beginUopTally();
    /** Fold the tally (see UopTally); the log stays as armed. */
    void foldUopTally();
    /** Re-derive uopLog_ from the PMU's pause state and logged set. */
    void armUopLog();

    /** RAII scope that turns on batched counting and always folds the
     *  µop tally and flushes, including on the fatal()/exception paths
     *  out of execute(). */
    struct BatchCountScope
    {
        explicit BatchCountScope(Machine &m) : machine(m)
        {
            machine.batchEvents_ = true;
            machine.beginUopTally();
        }
        ~BatchCountScope()
        {
            machine.batchEvents_ = false;
            machine.foldUopTally();
            machine.flushPendingCounts();
        }
        BatchCountScope(const BatchCountScope &) = delete;
        BatchCountScope &operator=(const BatchCountScope &) = delete;
        Machine &machine;
    };

    /** Count load-hit-level events for a finished load. */
    void countLoadLevel(const cache::AccessResult &res, Cycles at);

    // ------------------------------------------------------ members
    const uarch::MicroArch &uarch_;
    uarch::PortLayout ports_;
    Rng rng_;
    ArchState arch_;
    Memory memory_;
    Pmu pmu_;
    cache::Hierarchy caches_;
    Tlb tlb_;
    Scheduler sched_;
    Privilege privilege_ = Privilege::User;
    bool interruptsEnabled_ = true;
    bool rdpmcUser_ = true;
    /** Batched-counting mode (threaded executor only; see count()). */
    bool batchEvents_ = false;
    /** Pause-gated pending counts of non-time-resolved events. */
    std::array<std::uint64_t, kNumEvents> pendingCounts_{};
    /** µop accounting of the running execute() (see UopTally). */
    UopTally uopTally_;
    UopLog uopLog_;
    std::uint64_t maxInstr_ = 50'000'000;
    /** Armed cycle budget and its absolute deadline (0 = disarmed);
     *  see setCycleBudget(). */
    std::uint64_t cycleBudget_ = 0;
    Cycles cycleDeadline_ = 0;
    Cycles nextInterrupt_ = 0;
    /** Observation sink (threaded executor only); not owned. */
    ExecObserver *execObserver_ = nullptr;

    /** Branch predictor: 2-bit saturating counters per virtual code
     *  index. */
    BranchTable branchTable_;

    /** What reset() restores beyond the just-constructed components
     *  (see markResetPoint()). */
    struct ResetPoint
    {
        Rng rng;
        Cycles nextInterrupt = 0;
        Privilege privilege = Privilege::User;
        bool interruptsEnabled = true;
        bool rdpmcUser = true;
        std::uint64_t maxInstr = 0;
        std::uint64_t prefetcherControl = 0;
    };
    ResetPoint resetPoint_;
};

} // namespace nb::sim

#endif // NB_SIM_MACHINE_HH
