/**
 * @file
 * Span tracing in the Chrome trace-event format.
 *
 * A Tracer collects duration-begin/-end ("B"/"E") events on numbered
 * lanes (the trace-event tid; the campaign executor uses the worker
 * index) plus "thread_name" metadata events that label the lanes, and
 * serializes everything as a Chrome trace-event JSON array --
 * loadable directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
 *
 * Cost model: a disabled tracer (the default) rejects every record
 * call on one predicted branch before reading the clock or touching
 * the mutex, so instrumented paths stay effectively free unless the
 * user asked for a trace (-trace FILE); the trace_overhead bench
 * ratio gates the enabled path too. Record calls are thread-safe; the
 * timestamp is taken under the lock, so the event list -- and hence
 * every lane -- is monotonic in ts by construction.
 */

#ifndef NB_OBS_TRACE_HH
#define NB_OBS_TRACE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace nb::obs
{

/** One recorded trace event (exposed for tests; users serialize). */
struct TraceEvent
{
    char ph = 'B';         ///< 'B', 'E', 'X', 'i', or 'M'
    std::uint32_t tid = 0; ///< lane (worker index)
    std::uint64_t tsNs = 0;
    std::string name;
    /** Optional single argument rendered as {"key": "value"}. */
    std::string argKey;
    std::string argValue;
    std::uint64_t durNs = 0; ///< length of an 'X' (complete) span
};

class Tracer
{
  public:
    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Arm the tracer; record calls are no-ops until this. */
    void enable() { enabled_ = true; }
    bool enabled() const { return enabled_; }

    /** Open a span on @p lane. Close it with a matching end(). The
     *  optional argument pair becomes the event's args object. */
    void begin(std::uint32_t lane, std::string name,
               std::string argKey = {}, std::string argValue = {});

    /** Close the innermost open span named @p name on @p lane. */
    void end(std::uint32_t lane, std::string name);

    /** A span on @p lane from @p start until now, recorded when it
     *  ends (an 'X' event). It is placed among the recorded events by
     *  its start, so the event list stays ordered by ts. */
    void complete(std::uint32_t lane, std::string name,
                  std::chrono::steady_clock::time_point start);

    /** A zero-duration instant event. */
    void instant(std::uint32_t lane, std::string name);

    /** Label @p lane (a "thread_name" metadata event; Perfetto shows
     *  it as the track title). */
    void nameLane(std::uint32_t lane, const std::string &label);

    std::size_t eventCount() const;

    /** Drop all recorded events (the enabled flag is kept). */
    void clear();

    /** Serialize as a Chrome trace-event JSON array (ts in
     *  microseconds, pid fixed at 1). */
    std::string toJson() const;

    /** toJson() to a file. @throws nb::FatalError on I/O failure. */
    void writeFile(const std::string &path) const;

  private:
    void record(char ph, std::uint32_t lane, std::string name,
                std::string argKey, std::string argValue);

    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
};

} // namespace nb::obs

#endif // NB_OBS_TRACE_HH
