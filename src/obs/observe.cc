/**
 * @file
 * Differential simulator observation (see observe.hh).
 */

#include "obs/observe.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/logging.hh"
#include "core/engine.hh"
#include "core/result.hh"
#include "sim/machine.hh"

namespace nb::obs
{

using core::fixed2;

namespace
{

/** Run @p spec on a fresh machine with @p sink attached and return
 *  the counter rounds the run executed; fatal() on any RunError (same
 *  taxonomy as Session::run). */
std::uint64_t
observedRun(const uarch::MicroArch &ua, core::BenchmarkSpec spec,
            core::Mode mode, std::uint64_t seed, sim::ExecObserver &sink)
{
    sim::Machine machine(ua, seed);
    core::Runner runner(machine, mode);
    machine.setExecObserver(&sink);
    RunOutcome outcome = runSpecOnRunner(runner, std::move(spec));
    machine.setExecObserver(nullptr);
    if (!outcome.ok()) {
        fatal("observe: ", runErrorCodeName(outcome.error().code), ": ",
              outcome.error().message);
    }
    return runner.lastRunRounds();
}

double
delta(std::uint64_t doubled, std::uint64_t base)
{
    return static_cast<double>(doubled) - static_cast<double>(base);
}

} // namespace

ObservedProfile
observeSpec(const uarch::MicroArch &ua, const core::BenchmarkSpec &spec,
            core::Mode mode, std::uint64_t seed)
{
    // The two runs: the spec as given, and the same spec with the
    // unroll count doubled. Everything but the extra body copies is
    // structurally identical, so harness work cancels in the delta
    // (§III-C applied to introspection).
    sim::ExecObserver base;
    const std::uint64_t rounds = observedRun(ua, spec, mode, seed, base);

    core::BenchmarkSpec doubled_spec = spec;
    doubled_spec.unrollCount = 2 * spec.unrollCount;
    sim::ExecObserver doubled;
    observedRun(ua, doubled_spec, mode, seed, doubled);

    // The runs differ by a known number of body copies. Per executed
    // round, each unroll version runs (warmUp + nMeasurements) times
    // with max(1, loop) * localUnroll copies per execution; the local
    // unrolls are {N, 2N} normally and {0, N} in basic mode, so
    // doubling N adds 3N (resp. N) copies per round execution pair.
    std::uint64_t per_version =
        static_cast<std::uint64_t>(spec.warmUpCount) + spec.nMeasurements;
    std::uint64_t loops = std::max<std::uint64_t>(1, spec.loopCount);
    std::uint64_t delta_unroll =
        spec.basicMode ? spec.unrollCount : 3 * spec.unrollCount;
    std::uint64_t copies = rounds * per_version * loops * delta_unroll;
    if (copies == 0)
        fatal("observe: spec executes no benchmark body copies");
    double denom = static_cast<double>(copies);

    ObservedProfile prof;
    prof.uarch = ua.name;
    prof.copies = copies;
    prof.issueWidth = ua.issueWidth;
    prof.portUops.resize(ua.ports().numPorts);
    for (std::size_t p = 0; p < prof.portUops.size(); ++p)
        prof.portUops[p] = delta(doubled.portUops[p], base.portUops[p]) /
                           denom;
    prof.uopsIssued = delta(doubled.uopsIssued, base.uopsIssued) / denom;
    prof.uopsDispatched =
        delta(doubled.uopsDispatched, base.uopsDispatched) / denom;
    double cycle_delta = delta(doubled.cycles, base.cycles);
    prof.cycles = cycle_delta / denom;
    prof.retireStallCycles =
        delta(doubled.retireStallCycles, base.retireStallCycles) / denom;
    if (cycle_delta > 0) {
        prof.issueUtilization =
            delta(doubled.uopsIssued, base.uopsIssued) /
            (static_cast<double>(ua.issueWidth) * cycle_delta);
    }
    return prof;
}

double
ObservedProfile::totalPortUops() const
{
    double total = 0;
    for (double u : portUops)
        total += u;
    return total;
}

double
ObservedProfile::portShare(std::size_t p) const
{
    if (cycles <= 0 || p >= portUops.size())
        return 0;
    return portUops[p] / cycles;
}

namespace
{

std::string
percent(double fraction)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(1) << fraction * 100 << "%";
    return os.str();
}

} // namespace

std::string
ObservedProfile::format() const
{
    std::ostringstream os;
    os << "observed profile (" << uarch << ", " << copies
       << " differential body copies):\n";
    os << "  cycles / copy:          " << fixed2(cycles) << "\n";
    os << "  uops issued / copy:     " << fixed2(uopsIssued) << "\n";
    os << "  uops dispatched / copy: " << fixed2(uopsDispatched) << "\n";
    os << "  issue utilization:      " << percent(issueUtilization)
       << " of width " << issueWidth << "\n";
    os << "  retire stalls / copy:   " << fixed2(retireStallCycles)
       << "\n";
    os << "  port pressure (uops/copy, busy share):\n";
    for (std::size_t p = 0; p < portUops.size(); ++p) {
        os << "    p" << p << ": " << fixed2(portUops[p]) << "  "
           << percent(portShare(p)) << "\n";
    }
    return os.str();
}

std::string
ObservedProfile::toJson() const
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"uarch\": \"" << core::jsonEscape(uarch) << "\",\n";
    os << "  \"copies\": " << copies << ",\n";
    os << "  \"issue_width\": " << issueWidth << ",\n";
    os << "  \"cycles\": " << core::exactDouble(cycles) << ",\n";
    os << "  \"uops_issued\": " << core::exactDouble(uopsIssued)
       << ",\n";
    os << "  \"uops_dispatched\": " << core::exactDouble(uopsDispatched)
       << ",\n";
    os << "  \"issue_utilization\": "
       << core::exactDouble(issueUtilization) << ",\n";
    os << "  \"retire_stall_cycles\": "
       << core::exactDouble(retireStallCycles) << ",\n";
    os << "  \"port_uops\": [";
    for (std::size_t p = 0; p < portUops.size(); ++p)
        os << (p ? ", " : "") << core::exactDouble(portUops[p]);
    os << "]\n";
    os << "}\n";
    return os.str();
}

std::string
ObservedProfile::toCsv() const
{
    std::ostringstream os;
    os << "# observed profile\n";
    os << "key,value\n";
    os << "uarch," << core::csvEscape(uarch) << "\n";
    os << "copies," << copies << "\n";
    os << "issue_width," << issueWidth << "\n";
    os << "cycles," << core::exactDouble(cycles) << "\n";
    os << "uops_issued," << core::exactDouble(uopsIssued) << "\n";
    os << "uops_dispatched," << core::exactDouble(uopsDispatched)
       << "\n";
    os << "issue_utilization," << core::exactDouble(issueUtilization)
       << "\n";
    os << "retire_stall_cycles,"
       << core::exactDouble(retireStallCycles) << "\n";
    for (std::size_t p = 0; p < portUops.size(); ++p) {
        os << "port_" << p << "_uops,"
           << core::exactDouble(portUops[p]) << "\n";
    }
    return os.str();
}

std::string
formatPredictedVsObserved(const analysis::BoundReport &predicted,
                          const ObservedProfile &observed)
{
    std::ostringstream os;
    os << "predicted vs observed -- " << observed.uarch << "\n";
    os << "  predicted bottleneck: "
       << analysis::bottleneckName(predicted.bottleneck) << "\n";
    os << "  cycles / body copy:   predicted bound "
       << fixed2(predicted.bound()) << ", observed "
       << fixed2(observed.cycles) << "\n";
    os << "  uops / body copy:     predicted "
       << fixed2(predicted.uopsPerCopy) << " issued, observed "
       << fixed2(observed.uopsIssued) << " issued / "
       << fixed2(observed.uopsDispatched) << " dispatched\n";
    os << "  issue utilization:    observed "
       << percent(observed.issueUtilization) << " of width "
       << observed.issueWidth << "\n";
    os << "  port  predicted-uops  predicted-util  observed-uops  "
          "observed-share\n";
    // The bound model lists PortUse entries keyed by port number (not
    // necessarily one entry per port); spread them positionally first.
    std::size_t n_ports = observed.portUops.size();
    for (const auto &use : predicted.ports)
        n_ports = std::max<std::size_t>(n_ports, use.port + 1);
    std::vector<double> pred_by_port(n_ports, 0.0);
    std::vector<double> util_by_port(n_ports, 0.0);
    for (const auto &use : predicted.ports) {
        pred_by_port[use.port] = use.uops;
        util_by_port[use.port] = use.util;
    }
    for (std::size_t p = 0; p < n_ports; ++p) {
        double pred_uops = pred_by_port[p];
        double pred_util = util_by_port[p];
        double obs_uops =
            p < observed.portUops.size() ? observed.portUops[p] : 0;
        os << "  p" << p << "    " << std::setw(14) << std::left
           << fixed2(pred_uops) << "  " << std::setw(14)
           << percent(pred_util) << "  " << std::setw(13)
           << fixed2(obs_uops) << "  " << percent(observed.portShare(p))
           << "\n";
    }
    return os.str();
}

} // namespace nb::obs
