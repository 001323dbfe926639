/**
 * @file
 * PMU implementation: selections (which open and close the streamed
 * events' spans), epochs, and time-resolved reads -- a counter's value
 * as of a cycle is its epoch base, plus its log's increments up to
 * that cycle (a scan, unless the read is at or after the newest), plus
 * the prefix of each of its streams up to that cycle (a binary
 * search, unless at or after the newest) that falls inside its
 * selections.
 */

#include "pmu.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace nb::sim
{

Pmu::Pmu(unsigned num_prog, bool has_fixed, double ref_ratio)
    : numProg_(num_prog), hasFixed_(has_fixed), refRatio_(ref_ratio),
      progSel_(num_prog, EventId::NumEvents)
{
    NB_ASSERT(num_prog >= 1 && num_prog <= 8,
              "unsupported programmable counter count ", num_prog);
    static_assert(kNumEvents <= 64, "loggedMask_ is a 64-bit bitmask");
    rebuildLoggedMask();
    beginEpoch();
}

constexpr std::uint32_t
Pmu::streamsOf(EventId event)
{
    switch (event) {
      case EventId::InstrRetired:
        return 1u << kRetireStream;
      case EventId::UopsIssued:
        return 1u << kIssueStream;
      case EventId::UopsExecuted:
        return kPortStreams;
      default:
        break;
    }
    const auto port = static_cast<unsigned>(event) -
                      static_cast<unsigned>(EventId::UopsPort0);
    return port < 8 ? 1u << port : 0;
}

constinit const std::array<std::uint32_t, kNumEvents> Pmu::kEventStreams =
    [] {
        std::array<std::uint32_t, kNumEvents> streams{};
        for (unsigned i = 0; i < kNumEvents; ++i)
            streams[i] = streamsOf(static_cast<EventId>(i));
        return streams;
    }();

constinit const std::uint64_t Pmu::kStreamedEvents = [] {
    std::uint64_t mask = 0;
    for (unsigned i = 0; i < kNumEvents; ++i) {
        if (streamsOf(static_cast<EventId>(i)) != 0)
            mask |= std::uint64_t{1} << i;
    }
    return mask;
}();

void
Pmu::rebuildLoggedMask()
{
    std::uint64_t mask =
        std::uint64_t{1} << static_cast<unsigned>(EventId::InstrRetired);
    for (EventId sel : progSel_) {
        if (sel != EventId::NumEvents)
            mask |= std::uint64_t{1} << static_cast<unsigned>(sel);
    }
    std::uint32_t streamed = 0;
    for (std::uint64_t m = mask & kStreamedEvents; m != 0; m &= m - 1)
        streamed |= kEventStreams[static_cast<unsigned>(std::countr_zero(m))];
    // A selection begins or ends at the streams' current ends; a
    // whole-epoch selection that ends becomes an explicit span.
    for (std::uint64_t m = (mask ^ loggedMask_) & kStreamedEvents; m != 0;
         m &= m - 1) {
        const auto i = static_cast<unsigned>(std::countr_zero(m));
        const std::uint64_t bit = std::uint64_t{1} << i;
        if (mask & bit) {
            Span &span = spans_[i].emplace_back();
            span.end.fill(Span::kOpen);
            for (unsigned s = 0; s < kNumStreams; ++s)
                span.begin[s] = streams_[s].size();
        } else {
            if (wholeEpoch_ & bit) {
                wholeEpoch_ &= ~bit;
                spans_[i].emplace_back();
            }
            Span &span = spans_[i].back();
            for (unsigned s = 0; s < kNumStreams; ++s)
                span.end[s] = streams_[s].size();
        }
    }
    loggedMask_ = mask;
    streamed_ = streamed;
}

bool
Pmu::configureProg(unsigned idx, EventCode code)
{
    NB_ASSERT(idx < numProg_, "counter index out of range: ", idx);
    auto info = findEvent(code);
    if (!info)
        return false;
    progSel_[idx] = info->id;
    rebuildLoggedMask();
    return true;
}

void
Pmu::disableProg(unsigned idx)
{
    NB_ASSERT(idx < numProg_, "counter index out of range: ", idx);
    progSel_[idx] = EventId::NumEvents;
    rebuildLoggedMask();
}

EventId
Pmu::progEvent(unsigned idx) const
{
    NB_ASSERT(idx < numProg_, "counter index out of range: ", idx);
    return progSel_[idx];
}

void
Pmu::growLog(EventLog &log)
{
    log.increments.resize(
        log.increments.empty() ? 64 : 2 * log.increments.size());
}

void
Pmu::CycleStream::grow()
{
    const std::size_t n = size();
    const std::size_t capacity = n == 0 ? 256 : 2 * n;
    auto grown = std::make_unique_for_overwrite<Cycles[]>(capacity);
    std::copy(buf.get(), end, grown.get());
    buf = std::move(grown);
    end = buf.get() + n;
    cap = buf.get() + capacity;
}

std::size_t
Pmu::CycleStream::countUpTo(Cycles cycle) const
{
    const Cycles *begin = buf.get();
    const Cycles *last = end;
    if (last == begin || last[-1] <= cycle)
        return size();
    return static_cast<std::size_t>(std::upper_bound(begin, last, cycle) -
                                    begin);
}

void
Pmu::beginEpoch()
{
    epochBase_ = totals_;
    for (unsigned i = 0; i < kNumEvents; ++i) {
        logs_[i].size = 0;
        logs_[i].sum = 0;
        logs_[i].newest = 0;
        spans_[i].clear();
    }
    for (CycleStream &stream : streams_)
        stream.end = stream.buf.get();
    // The selections in force carry over, from the streams' start.
    wholeEpoch_ = loggedMask_ & kStreamedEvents;
}

std::uint64_t
Pmu::sample(EventId event, Cycles cycle) const
{
    auto idx = static_cast<unsigned>(event);
    std::uint64_t value = epochBase_[idx];
    // Increments arrive in program order but are tagged with the cycle
    // they occur at, which is not monotone under out-of-order timing,
    // so a read before the newest logged cycle scans the log.
    const EventLog &log = logs_[idx];
    if (cycle >= log.newest) {
        value += log.sum;
    } else {
        for (std::size_t i = 0; i < log.size; ++i) {
            if (log.increments[i].cycle <= cycle)
                value += log.increments[i].n;
        }
    }
    // A stream is sorted: the entries at or before `cycle` are a
    // prefix of it, and each selection counts its part of the prefix.
    const bool whole = (wholeEpoch_ >> idx & 1) != 0;
    for (std::uint32_t m = kEventStreams[idx]; m != 0; m &= m - 1) {
        const auto s = static_cast<unsigned>(std::countr_zero(m));
        if (streams_[s].size() == 0)
            continue;
        const std::size_t upto = streams_[s].countUpTo(cycle);
        if (whole)
            value += upto;
        for (const Span &span : spans_[idx]) {
            const std::size_t end = std::min(span.end[s], upto);
            if (end > span.begin[s])
                value += end - span.begin[s];
        }
    }
    return value;
}

std::uint64_t
Pmu::readProg(unsigned idx, Cycles cycle) const
{
    NB_ASSERT(idx < numProg_, "counter index out of range: ", idx);
    EventId sel = progSel_[idx];
    if (sel == EventId::NumEvents)
        return 0;
    return sample(sel, cycle);
}

std::uint64_t
Pmu::readFixed(unsigned idx, Cycles cycle) const
{
    NB_ASSERT(hasFixed_, "no fixed counters on this CPU");
    switch (idx) {
      case 0:
        return sample(EventId::InstrRetired, cycle);
      case 1:
        return cycle;
      case 2:
        return static_cast<std::uint64_t>(
            std::llround(static_cast<double>(cycle) * refRatio_));
      default:
        fatal("bad fixed counter index ", idx);
    }
}

std::uint64_t
Pmu::aperf(Cycles cycle) const
{
    return cycle;
}

std::uint64_t
Pmu::mperf(Cycles cycle) const
{
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(cycle) * refRatio_));
}

std::uint64_t
Pmu::total(EventId event) const
{
    return totals_[static_cast<unsigned>(event)];
}

void
Pmu::reset()
{
    std::fill(progSel_.begin(), progSel_.end(), EventId::NumEvents);
    paused_ = false;
    totals_ = {};
    epochBase_ = {};
    // Release, not clear: a reused machine would otherwise hold the
    // largest log any earlier run grew for the rest of its life.
    for (auto &log : logs_)
        log = {};
    for (auto &stream : streams_)
        stream = {};
    for (auto &spans : spans_)
        spans = {};
    loggedMask_ = 0;
    rebuildLoggedMask();
    beginEpoch();
}

} // namespace nb::sim
