/**
 * @file
 * PMU implementation.
 */

#include "pmu.hh"

#include <algorithm>
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
}

void
Pmu::rebuildLoggedMask()
{
    std::uint64_t mask =
        std::uint64_t{1} << static_cast<unsigned>(EventId::InstrRetired);
    for (EventId sel : progSel_) {
        if (sel != EventId::NumEvents)
            mask |= std::uint64_t{1} << static_cast<unsigned>(sel);
    }
    loggedMask_ = mask;
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
Pmu::beginEpoch()
{
    for (unsigned i = 0; i < kNumEvents; ++i) {
        epochBase_[i] = totals_[i];
        logs_[i].size = 0;
        logs_[i].sum = 0;
        logs_[i].newest = 0;
    }
}

std::uint64_t
Pmu::sample(EventId event, Cycles cycle) const
{
    auto idx = static_cast<unsigned>(event);
    const EventLog &log = logs_[idx];
    // A read at or after the newest logged cycle sees every increment
    // of the epoch: O(1) from the running sum.
    if (cycle >= log.newest)
        return epochBase_[idx] + log.sum;
    // Increments arrive in program order but are tagged with the cycle
    // they occur at, which is not monotone under out-of-order timing,
    // so an earlier read scans the log.
    std::uint64_t value = epochBase_[idx];
    for (std::size_t i = 0; i < log.size; ++i) {
        if (log.increments[i].cycle <= cycle)
            value += log.increments[i].n;
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
    rebuildLoggedMask();
    paused_ = false;
    totals_ = {};
    epochBase_ = {};
    // Release, not clear: a reused machine would otherwise hold the
    // largest log any earlier run grew for the rest of its life.
    for (auto &log : logs_)
        log = {};
}

} // namespace nb::sim
