/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * The benchmark records one span per layer boundary it calls across
 * (workload -> engine/plan -> campaign -> per-spec -> decode ->
 * serialize/check). Spans stay in memory while the run measures and
 * are written once, at exit, as Chrome trace-event JSON ("X" events;
 * loadable in Perfetto). summarize.py reads that file back and prints
 * each layer's self time.
 *
 * Per-spec spans come from CampaignOptions::progress pickup/settle
 * pairs and are laned by the calling (worker) thread. Lane 0 is the
 * thread that drives the workload.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** One closed span. Times are nanoseconds since the recorder's origin. */
struct Span
{
    std::string layer;
    std::string name;
    unsigned lane = 0;
    std::int64_t beginNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t id = 0;
    /** Span that caused this one (0 = root). */
    std::uint64_t parent = 0;
    /** Shared by every span of one workload unit (one artifact build). */
    std::uint64_t unit = 0;
};

class SpanRecorder
{
  public:
    SpanRecorder();
    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Open a span on lane 0; returns its id. */
    std::uint64_t begin(const std::string &layer, const std::string &name,
                        std::uint64_t parent, std::uint64_t unit);
    /** Close a span opened by begin(). */
    void end(std::uint64_t id);

    /**
     * Feed one campaign progress event: a pickup opens a "spec" span
     * on the calling thread's lane, the matching settle closes it.
     * Lanes 1..N are handed out per campaign in order of first
     * appearance, so call resetLanes() before each campaign.
     */
    void specEvent(const nb::CampaignProgress &event,
                   std::uint64_t campaign, std::uint64_t unit);
    void resetLanes();

    /** Number of closed spans so far. */
    std::size_t size() const;
    /** Durations (ms) of the spec spans closed since span @p from_span. */
    std::vector<double> specDurationsMs(std::size_t from_span) const;

    /** Write every closed span as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::int64_t nowNs() const;

    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> closed_;
    std::map<std::uint64_t, Span> open_;
    std::map<std::thread::id, unsigned> lanes_;
    std::map<std::thread::id, Span> openSpecs_;
    std::uint64_t nextId_ = 1;
};

/** RAII span on lane 0; a null recorder records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const std::string &layer,
               const std::string &name, std::uint64_t parent,
               std::uint64_t unit)
        : recorder_(recorder),
          id_(recorder ? recorder->begin(layer, name, parent, unit) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (recorder_)
            recorder_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    SpanRecorder *recorder_;
    std::uint64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
