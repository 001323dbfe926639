#include "spans.hh"

#include <fstream>

#include "core/result.hh"

namespace perfbench
{

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

std::int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

std::uint64_t
SpanRecorder::begin(const std::string &layer, const std::string &name,
                    std::uint64_t parent, std::uint64_t unit)
{
    std::int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    Span span{layer, name, 0, now, now, nextId_++, parent, unit};
    open_.emplace(span.id, span);
    return span.id;
}

void
SpanRecorder::end(std::uint64_t id)
{
    std::int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = open_.find(id);
    if (it == open_.end())
        return;
    it->second.endNs = now;
    closed_.push_back(std::move(it->second));
    open_.erase(it);
}

void
SpanRecorder::specEvent(const nb::CampaignProgress &event,
                        std::uint64_t campaign, std::uint64_t unit)
{
    std::int64_t now = nowNs();
    std::thread::id self = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(mutex_);
    if (event.starting) {
        auto lane = lanes_.emplace(self, lanes_.size() + 1).first->second;
        openSpecs_[self] = Span{"spec", event.specLabel, lane, now, now,
                                nextId_++, campaign, unit};
        return;
    }
    auto it = openSpecs_.find(self);
    if (it == openSpecs_.end())
        return;
    it->second.endNs = now;
    closed_.push_back(std::move(it->second));
    openSpecs_.erase(it);
}

void
SpanRecorder::resetLanes()
{
    std::lock_guard<std::mutex> lock(mutex_);
    lanes_.clear();
    openSpecs_.clear();
}

std::size_t
SpanRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_.size();
}

std::vector<double>
SpanRecorder::specDurationsMs(std::size_t from_span) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (std::size_t i = from_span; i < closed_.size(); ++i) {
        if (closed_[i].layer == "spec")
            out.push_back(
                static_cast<double>(closed_[i].endNs - closed_[i].beginNs) /
                1e6);
    }
    return out;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < closed_.size(); ++i) {
        const Span &s = closed_[i];
        // Chrome trace timestamps are microseconds; keep the ns digits.
        out << (i ? ",\n" : "") << "{\"ph\": \"X\", \"pid\": 1, \"tid\": "
            << s.lane << ", \"cat\": \"" << nb::core::jsonEscape(s.layer)
            << "\", \"name\": \"" << nb::core::jsonEscape(s.name)
            << "\", \"ts\": " << nb::core::exactDouble(s.beginNs / 1e3)
            << ", \"dur\": "
            << nb::core::exactDouble((s.endNs - s.beginNs) / 1e3)
            << ", \"args\": {\"id\": " << s.id << ", \"parent\": "
            << s.parent << ", \"unit\": " << s.unit << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
