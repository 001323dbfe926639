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
 *    an earlier cycle;
 *  - global pause/resume gating used by the magic-byte feature (§III-I).
 *
 * The executor's own per-µop events are kept as sorted cycle streams,
 * so logging one costs one append and an early read is a binary
 * search: one stream of dispatch cycles per port (strictly increasing:
 * a port takes at most one µop per cycle), one of issue cycles and one
 * of retire cycles (both nondecreasing). A stream is appended to only
 * while an event that reads it is selected: UopsPort<p> reads port p's
 * stream, UopsExecuted every port's, UopsIssued the issue stream, and
 * InstrRetired (fixed counter 0) the retire stream, always. Each of
 * these events remembers the stream positions where its selections
 * began and ended (Span), so a selection made mid-epoch counts only
 * later increments. Every event counted through count() -- at
 * arbitrary cycles, e.g. the timer interrupt's µops or a load's cache
 * level -- goes to that event's log of (cycle, n) entries instead; a
 * read at or after a log's newest entry is O(1), an earlier one scans
 * the log.
 */

#ifndef NB_SIM_PMU_HH
#define NB_SIM_PMU_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/events.hh"

namespace nb::sim
{

/** Index base for fixed counters in RDPMC (as on real Intel CPUs). */
inline constexpr std::uint32_t kRdpmcFixedBase = 0x40000000;

/** Upper bound on modeled execution ports: a uarch::PortMask has 16
 *  bits, and every PortLayout fits (Zen models 10). */
inline constexpr unsigned kMaxPorts = 16;

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

    /** Record @p n occurrences of @p event at @p cycle (any cycle, in
     *  any order), in the event's log if it is time-resolved. */
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

    // ------------------------------------------------ executor feed
    //
    // The executor reports its µops here, each at a cycle no earlier
    // than the previous one of its stream (see the file comment).
    // countRetire() is complete: pause gate, total and stream. The
    // append*() members only extend a stream the caller knows is
    // streamed while the PMU is not paused; the executor commit()s the
    // totals of its tallied µops at its sync points.

    /** Bit p: port p's dispatches are streamed. */
    std::uint32_t streamedPorts() const { return streamed_ & kPortStreams; }
    /** Whether issue slots are streamed. */
    bool issueStreamed() const { return streamed_ >> kIssueStream & 1; }

    /** An instruction retired at @p cycle: one InstrRetired (always
     *  streamed). */
    NB_ALWAYS_INLINE void
    countRetire(Cycles cycle)
    {
        if (paused_)
            return;
        ++totals_[static_cast<unsigned>(EventId::InstrRetired)];
        streams_[kRetireStream].push(cycle);
    }

    /** A µop dispatched to port @p port at @p cycle, for a port in
     *  streamedPorts() (its UopsExecuted and UopsPort<port> counts are
     *  commit()ted separately). */
    NB_ALWAYS_INLINE void
    appendDispatch(unsigned port, Cycles cycle)
    {
        streams_[port].push(cycle);
    }

    /** An issue slot taken at @p cycle, while issueStreamed() (its
     *  UopsIssued count is commit()ted separately). */
    NB_ALWAYS_INLINE void
    appendIssue(Cycles cycle)
    {
        streams_[kIssueStream].push(cycle);
    }

    /** Pause/resume all counting (magic-byte feature, §III-I). */
    void setPaused(bool paused) { paused_ = paused; }
    bool isPaused() const { return paused_; }

    /**
     * Start a new sampling epoch: drops the time-resolved logs and
     * streams (their totals are folded into the epoch base). Called
     * before each generated-code run to bound memory.
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
     *  unpaused, all totals zero, and the logs' and streams' memory
     *  released. */
    void reset();

  private:
    /** Stream indices: ports 0..kMaxPorts-1, then these two. */
    static constexpr unsigned kIssueStream = kMaxPorts;
    static constexpr unsigned kRetireStream = kMaxPorts + 1;
    static constexpr unsigned kNumStreams = kMaxPorts + 2;
    static constexpr std::uint32_t kPortStreams = (1u << kMaxPorts) - 1;
    static_assert(kNumStreams <= 32, "stream masks are 32 bits");

    /** The streams an event reads (0: the event is not streamed). */
    static constexpr std::uint32_t streamsOf(EventId event);
    /** streamsOf() of every event, and the events it is not 0 for. */
    static const std::array<std::uint32_t, kNumEvents> kEventStreams;
    static const std::uint64_t kStreamedEvents;

    /** One stream: this epoch's cycles, in nondecreasing order. The
     *  buffer grows out of line and keeps its capacity across
     *  epochs. */
    struct CycleStream
    {
        std::unique_ptr<Cycles[]> buf;
        Cycles *end = nullptr; ///< one past the newest entry
        Cycles *cap = nullptr; ///< one past the buffer

        NB_ALWAYS_INLINE void
        push(Cycles cycle)
        {
            if (end == cap)
                grow();
            *end++ = cycle;
        }

        NB_NOINLINE void grow();

        std::size_t size() const
        {
            return static_cast<std::size_t>(end - buf.get());
        }

        /** Entries at or before @p cycle: O(1) at or after the newest,
         *  a binary search before it. */
        std::size_t countUpTo(Cycles cycle) const;
    };

    /** One selection of a streamed event: the positions of its
     *  streams when it began and when it ended (kOpen while it
     *  lasts). */
    struct Span
    {
        static constexpr std::size_t kOpen = ~std::size_t{0};
        std::array<std::size_t, kNumStreams> begin{};
        std::array<std::size_t, kNumStreams> end{};
    };

    struct Increment
    {
        Cycles cycle;
        std::uint32_t n;
    };

    /**
     * One event's count() increments since the epoch began, with
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
     *  one cycle share an entry: every read sums them both or
     *  neither. */
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
    /** Re-derive loggedMask_ and streamed_ from progSel_, opening a
     *  Span for every streamed event that became logged and closing
     *  the one of every event that stopped being logged. */
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
    /** The streams some logged event reads: only these are appended
     *  to. */
    std::uint32_t streamed_ = 0;

    /** Scalar totals per semantic event. */
    std::array<std::uint64_t, kNumEvents> totals_{};
    /** Epoch-base totals per semantic event. */
    std::array<std::uint64_t, kNumEvents> epochBase_{};
    /** count() increments since the epoch began (selected events and
     *  InstrRetired only). */
    std::array<EventLog, kNumEvents> logs_{};
    /** The executor's µops since the epoch began (see the file
     *  comment). */
    std::array<CycleStream, kNumStreams> streams_{};
    /** The streamed events selected since the epoch began: each
     *  counts its whole streams, and has no Span. */
    std::uint64_t wholeEpoch_ = 0;
    /** This epoch's other selections of each streamed event; the last
     *  is open while the event is logged. */
    std::array<std::vector<Span>, kNumEvents> spans_{};
};

} // namespace nb::sim

#endif // NB_SIM_PMU_HH
