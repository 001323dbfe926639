/**
 * @file
 * Performance monitoring unit of the simulated core (paper §II).
 *
 * Models:
 *  - three Intel fixed-function counters (instructions retired, core
 *    cycles, reference cycles), readable with RDPMC (§II-A1);
 *  - APERF/MPERF, readable only with RDMSR (kernel space, §II-A1);
 *  - N programmable counters with event selection (§II-A2);
 *  - time-resolved sampling: every increment is tagged with the cycle it
 *    occurred at, and reads sample "as of" the cycle the reading µop
 *    executes. This is what makes the serialization experiments
 *    (§IV-A1) meaningful: an unfenced RDPMC executes early and samples
 *    an earlier cycle. A read at or after the newest logged cycle of
 *    its event (the common case) is O(1); only an earlier read scans
 *    the event's log.
 *  - global pause/resume gating used by the magic-byte feature (§III-I).
 */

#ifndef NB_SIM_PMU_HH
#define NB_SIM_PMU_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/events.hh"

namespace nb::sim
{

/** Index base for fixed counters in RDPMC (as on real Intel CPUs). */
inline constexpr std::uint32_t kRdpmcFixedBase = 0x40000000;

/** The PMU of one simulated logical core. */
class Pmu
{
  public:
    /**
     * @param num_prog Number of programmable counters.
     * @param has_fixed Intel-style fixed counters present.
     * @param ref_ratio Reference-clock to core-clock frequency ratio.
     */
    Pmu(unsigned num_prog, bool has_fixed, double ref_ratio);

    unsigned numProg() const { return numProg_; }
    bool hasFixed() const { return hasFixed_; }

    /** Program counter @p idx to count the event with @p code.
     *  Returns false if the code is not in the catalog. */
    bool configureProg(unsigned idx, EventCode code);

    /** Disable counter @p idx. */
    void disableProg(unsigned idx);

    /** Event configured on a counter (NumEvents if disabled). */
    EventId progEvent(unsigned idx) const;

    /** Record @p n occurrences of @p event at @p cycle. Inline: the
     *  executors call this for every µop they issue, dispatch and
     *  retire. */
    NB_ALWAYS_INLINE void
    count(EventId event, std::uint64_t n, Cycles cycle)
    {
        if (paused_ || n == 0)
            return;
        auto idx = static_cast<unsigned>(event);
        NB_ASSERT(idx < kNumEvents, "bad event id");
        totals_[idx] += n;
        if (loggedMask_ >> idx & 1)
            appendLog(logs_[idx], static_cast<std::uint32_t>(n), cycle);
    }

    /**
     * count(@p event, 1, @p cycle) for an event the caller knows is
     * logged (see loggedMask()) while the PMU is not paused: the
     * threaded executor's per-retire and logged per-µop path, without
     * count()'s checks.
     */
    NB_ALWAYS_INLINE void
    countLogged(EventId event, Cycles cycle)
    {
        auto idx = static_cast<unsigned>(event);
        ++totals_[idx];
        appendLog(logs_[idx], 1, cycle);
    }

    /**
     * Bitmask over EventId of events whose increments are time-resolved
     * (selected on a programmable counter, plus InstrRetired which
     * backs fixed counter 0). Events outside the mask only ever
     * contribute to scalar totals, so callers on the hot path may
     * accumulate them locally and commit() the sums in bulk.
     */
    std::uint64_t loggedMask() const { return loggedMask_; }

    /**
     * Fold @p n pre-gated occurrences of @p event into the scalar
     * total. Used to flush batched counts for non-logged events: the
     * pause gate was already applied when the counts accrued, so no
     * pause check happens here, and nothing is logged.
     */
    void commit(EventId event, std::uint64_t n)
    {
        totals_[static_cast<unsigned>(event)] += n;
    }

    /** Pause/resume all counting (magic-byte feature, §III-I). */
    void setPaused(bool paused) { paused_ = paused; }
    bool isPaused() const { return paused_; }

    /**
     * Start a new sampling epoch: drops the time-resolved logs (their
     * totals are folded into the epoch base). Called before each
     * generated-code run to bound memory.
     */
    void beginEpoch();

    /** Value of programmable counter @p idx as of @p cycle. */
    std::uint64_t readProg(unsigned idx, Cycles cycle) const;

    /** Value of fixed counter @p idx (0 = instructions retired,
     *  1 = core cycles, 2 = reference cycles) as of @p cycle. */
    std::uint64_t readFixed(unsigned idx, Cycles cycle) const;

    /** APERF (core clock) / MPERF (reference clock) MSR values. */
    std::uint64_t aperf(Cycles cycle) const;
    std::uint64_t mperf(Cycles cycle) const;

    /** Total (end-of-time) value of a semantic event; for tests. */
    std::uint64_t total(EventId event) const;

    /** Back to the just-constructed state: every counter disabled,
     *  unpaused, all totals and logs zero. */
    void reset();

  private:
    struct Increment
    {
        Cycles cycle;
        std::uint32_t n;
    };

    /**
     * One event's time-resolved increments since the epoch began, with
     * their running sum and highest cycle. A read at or after `newest`
     * counts every increment, so it is `sum` without a scan. This is
     * not totals_: totals_ also holds increments from before the event
     * was selected (a mid-epoch WRMSR) and batched commit()s.
     */
    struct EventLog
    {
        /** The first `size` entries are this epoch's; the buffer grows
         *  out of line (growLog) and keeps its capacity across epochs. */
        std::vector<Increment> increments;
        std::size_t size = 0;
        std::uint64_t sum = 0;
        Cycles newest = 0;
    };

    NB_NOINLINE static void growLog(EventLog &log);

    /** Log @p inc increments at @p cycle. Back-to-back increments at
     *  one cycle (µops issued or retired in the same cycle) share an
     *  entry: every read sums them both or neither. */
    NB_ALWAYS_INLINE static void
    appendLog(EventLog &log, std::uint32_t inc, Cycles cycle)
    {
        const std::size_t size = log.size;
        if (size != 0 && log.increments[size - 1].cycle == cycle &&
            log.increments[size - 1].n <= UINT32_MAX - inc) {
            log.increments[size - 1].n += inc;
        } else {
            if (log.size == log.increments.size())
                growLog(log);
            log.increments[log.size++] = Increment{cycle, inc};
        }
        log.sum += inc;
        log.newest = std::max(log.newest, cycle);
    }

    std::uint64_t sample(EventId event, Cycles cycle) const;
    void rebuildLoggedMask();

    unsigned numProg_;
    bool hasFixed_;
    double refRatio_;
    bool paused_ = false;

    /** Event selection per programmable counter. */
    std::vector<EventId> progSel_;
    /** The time-resolved events (see loggedMask()), rebuilt whenever
     *  progSel_ changes. */
    std::uint64_t loggedMask_ = 0;

    /** Scalar totals per semantic event. */
    std::array<std::uint64_t, kNumEvents> totals_{};
    /** Epoch-base totals per semantic event. */
    std::array<std::uint64_t, kNumEvents> epochBase_{};
    /** Time-resolved increments since the epoch began (selected events
     *  and InstrRetired only). */
    std::array<EventLog, kNumEvents> logs_{};
};

} // namespace nb::sim

#endif // NB_SIM_PMU_HH
