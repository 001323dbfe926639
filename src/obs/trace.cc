/**
 * @file
 * Tracer implementation (see trace.hh).
 */

#include "obs/trace.hh"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/logging.hh"
#include "core/result.hh"

namespace nb::obs
{

void
Tracer::record(char ph, std::uint32_t lane, std::string name,
               std::string argKey, std::string argValue)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // The timestamp is taken under the lock: the event vector is
    // globally ts-monotonic, so every lane is too.
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - origin_)
                  .count();
    events_.push_back({ph, lane, static_cast<std::uint64_t>(ns),
                       std::move(name), std::move(argKey),
                       std::move(argValue)});
}

void
Tracer::begin(std::uint32_t lane, std::string name, std::string argKey,
              std::string argValue)
{
    if (!enabled_)
        return;
    record('B', lane, std::move(name), std::move(argKey),
           std::move(argValue));
}

void
Tracer::end(std::uint32_t lane, std::string name)
{
    if (!enabled_)
        return;
    record('E', lane, std::move(name), {}, {});
}

void
Tracer::complete(std::uint32_t lane, std::string name,
                 std::chrono::steady_clock::time_point start)
{
    if (!enabled_)
        return;
    auto since_origin = [&](std::chrono::steady_clock::time_point t) {
        return static_cast<std::uint64_t>(std::max<std::int64_t>(
            0, std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - origin_)
                   .count()));
    };
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t begin_ns = since_origin(start);
    std::uint64_t end_ns = since_origin(std::chrono::steady_clock::now());
    auto at = std::upper_bound(
        events_.begin(), events_.end(), begin_ns,
        [](std::uint64_t ts, const TraceEvent &e) { return ts < e.tsNs; });
    events_.insert(at, TraceEvent{'X', lane, begin_ns, std::move(name), {},
                                  {}, end_ns - begin_ns});
}

void
Tracer::instant(std::uint32_t lane, std::string name)
{
    if (!enabled_)
        return;
    record('i', lane, std::move(name), {}, {});
}

void
Tracer::nameLane(std::uint32_t lane, const std::string &label)
{
    if (!enabled_)
        return;
    record('M', lane, "thread_name", "name", label);
}

std::size_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
}

std::string
Tracer::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const TraceEvent &e = events_[i];
        os << (i ? ",\n " : "\n ");
        os << "{\"name\": \"" << core::jsonEscape(e.name)
           << "\", \"ph\": \"" << e.ph << "\", \"pid\": 1, \"tid\": "
           << e.tid;
        if (e.ph != 'M') {
            // Chrome trace ts is in microseconds; keep nanosecond
            // precision as a fractional part.
            os << ", \"ts\": " << e.tsNs / 1000 << "." << std::setw(3)
               << std::setfill('0') << e.tsNs % 1000;
        }
        if (e.ph == 'X') {
            os << ", \"dur\": " << e.durNs / 1000 << "." << std::setw(3)
               << std::setfill('0') << e.durNs % 1000;
        }
        if (e.ph == 'i')
            os << ", \"s\": \"t\"";
        if (!e.argKey.empty()) {
            os << ", \"args\": {\"" << core::jsonEscape(e.argKey)
               << "\": \"" << core::jsonEscape(e.argValue) << "\"}";
        }
        os << "}";
    }
    os << (events_.empty() ? "]\n" : "\n]\n");
    return os.str();
}

void
Tracer::writeFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open trace file '", path, "' for writing");
    out << toJson();
    if (!out)
        fatal("error writing trace file '", path, "'");
}

} // namespace nb::obs
