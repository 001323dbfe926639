/**
 * @file
 * Static performance bounds: abstract interpretation of the decoded
 * body pattern against the executor's timing guarantees.
 *
 * The latency pass walks the timed def/use edges of analysis/defuse.hh,
 * which claim only delays sim/dispatch.cc's prologue is guaranteed to
 * impose (a write kills the previous derivation outright, partial-width
 * merges included, as the scheduler's readiness timestamps do). The
 * per-register transfer matrix from one walk over the pattern feeds
 * Karp's maximum-cycle-mean algorithm; the critical cycle is recovered
 * from the tight-edge subgraph after reweighting by the exact rational
 * mean, and each cycle edge is expanded back into positioned
 * instruction echoes along the walk's provenance links.
 */

#include "analysis/bound.hh"

#include <algorithm>
#include <iterator>
#include <unordered_map>

#include "analysis/defuse.hh"
#include "core/result.hh"
#include "x86/reg.hh"

namespace nb::analysis
{

using x86::Reg;

const char *
bottleneckName(Bottleneck b)
{
    switch (b) {
      case Bottleneck::Latency: return "latency";
      case Bottleneck::Ports: return "ports";
      case Bottleneck::FrontEnd: return "frontend";
    }
    return "?";
}

double
BoundReport::bound() const
{
    return std::max({latencyBound, portBound, frontEndBound});
}

BoundReport
analyzeBounds(const uarch::MicroArch &ua, const sim::Program &body)
{
    BoundReport rep;
    rep.uarch = ua.name;
    rep.issueWidth = ua.issueWidth;

    // ---- latency: max cycle mean of the loop-carried closure.
    const defuse::Walk walk = defuse::walk(ua, body, defuse::View::Timed);
    defuse::LatencyCycle cycle = defuse::maxCycleMean(walk);
    if (!cycle.regs.empty()) {
        rep.latencyCycleLen =
            static_cast<std::uint32_t>(cycle.regs.size());
        rep.latencyCycleWeight = cycle.weight;
        rep.latencyBound = static_cast<double>(cycle.weight) /
                           static_cast<double>(cycle.regs.size());
        for (std::size_t r : cycle.regs)
            rep.latencyCycleRegs.push_back(
                x86::regName(static_cast<Reg>(r)));
        for (std::size_t i = 0; i < cycle.regs.size(); ++i) {
            std::size_t from = cycle.regs[i];
            std::size_t to =
                cycle.regs[(i + 1) % cycle.regs.size()];
            std::vector<PathStep> seg;
            for (std::int32_t s = walk.prov[to][from]; s >= 0;
                 s = walk.steps[static_cast<std::size_t>(s)].prev) {
                const defuse::Walk::Step &st =
                    walk.steps[static_cast<std::size_t>(s)];
                seg.push_back(
                    {st.entry,
                     body.insn(static_cast<std::size_t>(st.entry))
                         .toString(),
                     st.weight});
            }
            rep.criticalPath.insert(rep.criticalPath.end(),
                                    seg.rbegin(), seg.rend());
        }
    }

    // ---- ports: the Π-calculation over µop binding sets.
    uarch::PortLayout layout = ua.ports();
    unsigned num_ports = std::min(layout.numPorts, 16u);
    auto full =
        static_cast<std::uint32_t>((1u << num_ports) - 1);
    // Aggregate dispatched µops by port mask.
    std::unordered_map<std::uint32_t, std::int64_t> by_mask;
    double uops = 0;
    for (std::size_t i = 0; i < body.entryCount(); ++i) {
        const sim::EntryPlan &p = body.plan(i);
        for (unsigned j = 0; j < p.nCore; ++j) {
            std::uint32_t mask = p.core[j] & full;
            if (mask)
                by_mask[mask] += j == 0 ? 1 + p.blockCycles : 1;
        }
        if ((p.flags & sim::planflag::kDoLoadUop) &&
            (layout.loadPorts & full))
            by_mask[layout.loadPorts & full] += 1;
        if (p.flags & sim::planflag::kStoreUops) {
            if (layout.storeAddrPorts & full)
                by_mask[layout.storeAddrPorts & full] += 1;
            if (layout.storeDataPorts & full)
                by_mask[layout.storeDataPorts & full] += 1;
        }
        uops += p.nIssue;
    }
    for (std::uint32_t set = full; set; set = (set - 1) & full) {
        std::int64_t confined = 0;
        for (const auto &[mask, weight] : by_mask) {
            if ((mask & ~set) == 0)
                confined += weight;
        }
        double pressure = static_cast<double>(confined) /
                          __builtin_popcount(set);
        rep.portBound = std::max(rep.portBound, pressure);
    }

    // Per-port loads: peel nested bottleneck sets.
    std::vector<double> load(num_ports, 0);
    std::uint32_t active = full;
    auto remaining = by_mask;
    while (active && !remaining.empty()) {
        double best_pressure = -1;
        std::uint32_t best_set = 0;
        for (std::uint32_t set = active; set;
             set = (set - 1) & active) {
            std::int64_t confined = 0;
            for (const auto &[mask, weight] : remaining) {
                std::uint32_t m = mask & active;
                if (m && (m & ~set) == 0)
                    confined += weight;
            }
            double pressure = static_cast<double>(confined) /
                              __builtin_popcount(set);
            if (pressure > best_pressure) {
                best_pressure = pressure;
                best_set = set;
            }
        }
        if (best_pressure <= 0)
            break;
        for (unsigned port = 0; port < num_ports; ++port) {
            if (best_set >> port & 1)
                load[port] = best_pressure;
        }
        for (auto it = remaining.begin(); it != remaining.end();) {
            std::uint32_t m = it->first & active;
            it = m && (m & ~best_set) == 0 ? remaining.erase(it)
                                           : std::next(it);
        }
        active &= ~best_set;
    }

    // ---- front-end: issue slots per copy over the rename width.
    rep.uopsPerCopy = uops;
    rep.frontEndBound =
        ua.issueWidth > 0 ? uops / ua.issueWidth : 0;

    for (unsigned port = 0; port < num_ports; ++port) {
        PortUse use;
        use.port = static_cast<std::uint8_t>(port);
        use.uops = load[port];
        rep.ports.push_back(use);
    }

    if (rep.latencyBound >= rep.portBound &&
        rep.latencyBound >= rep.frontEndBound &&
        rep.latencyBound > 0) {
        rep.bottleneck = Bottleneck::Latency;
    } else if (rep.portBound >= rep.frontEndBound &&
               rep.portBound > 0) {
        rep.bottleneck = Bottleneck::Ports;
    } else {
        rep.bottleneck = Bottleneck::FrontEnd;
    }

    double binding = rep.bound();
    for (PortUse &use : rep.ports)
        use.util = binding > 0 ? use.uops / binding : 0;
    return rep;
}

BoundReport
analyzeBounds(const uarch::MicroArch &ua,
              const core::BenchmarkSpec &spec)
{
    return analyzeBounds(
        ua, defuse::decodeSegment(
                ua, defuse::segmentCode(spec.code, spec.asmCode),
                spec.unrollCount));
}

double
measurementCycleBound(const BoundReport &rep, std::uint64_t unroll,
                      std::uint64_t loops)
{
    loops = std::max<std::uint64_t>(1, loops);
    std::uint64_t copies = unroll * loops;
    auto n = static_cast<double>(copies);
    double best = std::max(n * rep.portBound, n * rep.frontEndBound);
    if (rep.latencyCycleLen > 0) {
        // The loop's decrement-and-branch rewrites R15 and RFLAGS
        // between unroll groups; a chain carried through either is
        // only guaranteed serial within one group.
        bool loop_safe = true;
        for (const std::string &reg : rep.latencyCycleRegs) {
            if (reg == "R15" || reg == "RFLAGS")
                loop_safe = false;
        }
        std::uint64_t span = loop_safe ? copies : unroll;
        std::uint64_t traversals = span / rep.latencyCycleLen;
        if (traversals > 1) {
            best = std::max(
                best, static_cast<double>(traversals - 1) *
                          static_cast<double>(rep.latencyCycleWeight));
        }
    }
    return best;
}

std::string
BoundReport::format() const
{
    std::string out = "uarch: " + uarch + '\n';
    out += "bottleneck: ";
    out += bottleneckName(bottleneck);
    out += '\n';
    out += "latency bound:   " + core::shortDouble(latencyBound) +
           " cycles/copy";
    if (latencyCycleLen > 0) {
        out += " (cycle: " + std::to_string(latencyCycleWeight) +
               " cycles across " + std::to_string(latencyCycleLen) +
               (latencyCycleLen == 1 ? " copy)" : " copies)");
    }
    out += '\n';
    out += "port bound:      " + core::shortDouble(portBound) +
           " cycles/copy\n";
    out += "front-end bound: " + core::shortDouble(frontEndBound) +
           " cycles/copy (" + core::shortDouble(uopsPerCopy) +
           " uops / issue width " + std::to_string(issueWidth) +
           ")\n";
    if (!ports.empty()) {
        out += "port utilization:\n";
        for (const PortUse &use : ports) {
            out += "  p" + std::to_string(use.port) + ": " +
                   core::shortDouble(use.uops) + " uops/copy (" +
                   core::shortDouble(use.util * 100) + "% @ bound)\n";
        }
    }
    if (!criticalPath.empty()) {
        out += "critical path (per traversal):\n";
        for (const PathStep &step : criticalPath) {
            out += "  body[" + std::to_string(step.index) + "] \"" +
                   step.insn + "\" +" +
                   std::to_string(step.latency) + '\n';
        }
    }
    if (!latencyCycleRegs.empty()) {
        out += "carried through: ";
        for (std::size_t i = 0; i < latencyCycleRegs.size(); ++i) {
            if (i)
                out += " -> ";
            out += latencyCycleRegs[i];
        }
        out += " -> (next copy)\n";
    }
    return out;
}

std::string
BoundReport::toJson() const
{
    std::string out = "{\"uarch\": \"";
    out += core::jsonEscape(uarch);
    out += "\", \"bottleneck\": \"";
    out += bottleneckName(bottleneck);
    out += "\",\n \"latency_bound\": ";
    out += core::exactDouble(latencyBound);
    out += ", \"port_bound\": ";
    out += core::exactDouble(portBound);
    out += ", \"frontend_bound\": ";
    out += core::exactDouble(frontEndBound);
    out += ",\n \"latency_cycle_len\": ";
    out += std::to_string(latencyCycleLen);
    out += ", \"latency_cycle_weight\": ";
    out += std::to_string(latencyCycleWeight);
    out += ", \"uops_per_copy\": ";
    out += core::exactDouble(uopsPerCopy);
    out += ", \"issue_width\": ";
    out += std::to_string(issueWidth);
    out += ",\n \"ports\": [";
    bool first = true;
    for (const PortUse &use : ports) {
        if (!first)
            out += ", ";
        first = false;
        out += "\n  {\"port\": ";
        out += std::to_string(use.port);
        out += ", \"uops\": ";
        out += core::exactDouble(use.uops);
        out += ", \"util\": ";
        out += core::exactDouble(use.util);
        out += "}";
    }
    out += ports.empty() ? "]" : "\n ]";
    out += ",\n \"critical_path\": [";
    first = true;
    for (const PathStep &step : criticalPath) {
        if (!first)
            out += ", ";
        first = false;
        out += "\n  {\"index\": ";
        out += std::to_string(step.index);
        out += ", \"latency\": ";
        out += std::to_string(step.latency);
        out += ", \"insn\": \"";
        out += core::jsonEscape(step.insn);
        out += "\"}";
    }
    out += criticalPath.empty() ? "]" : "\n ]";
    out += ",\n \"latency_cycle_regs\": [";
    first = true;
    for (const std::string &reg : latencyCycleRegs) {
        if (!first)
            out += ", ";
        first = false;
        out += '"';
        out += core::jsonEscape(reg);
        out += '"';
    }
    out += "]}\n";
    return out;
}

namespace
{
const char *const kBoundCsvHeader = "kind,key,value,detail";
} // namespace

std::string
BoundReport::toCsv() const
{
    std::string out = kBoundCsvHeader;
    out += '\n';
    auto summary = [&](const char *key, const std::string &value) {
        out += "summary,";
        out += key;
        out += ',';
        out += value;
        out += ",\n";
    };
    summary("uarch", core::csvEscape(uarch));
    summary("bottleneck", bottleneckName(bottleneck));
    summary("latency_bound", core::exactDouble(latencyBound));
    summary("port_bound", core::exactDouble(portBound));
    summary("frontend_bound", core::exactDouble(frontEndBound));
    summary("latency_cycle_len", std::to_string(latencyCycleLen));
    summary("latency_cycle_weight",
            std::to_string(latencyCycleWeight));
    summary("uops_per_copy", core::exactDouble(uopsPerCopy));
    summary("issue_width", std::to_string(issueWidth));
    for (const PortUse &use : ports) {
        out += "port," + std::to_string(use.port) + ',' +
               core::exactDouble(use.uops) + ',' +
               core::exactDouble(use.util) + '\n';
    }
    for (const PathStep &step : criticalPath) {
        out += "path," + std::to_string(step.index) + ',' +
               std::to_string(step.latency) + ',' +
               core::csvEscape(step.insn) + '\n';
    }
    for (std::size_t i = 0; i < latencyCycleRegs.size(); ++i) {
        out += "cyclereg," + std::to_string(i) + ',' +
               core::csvEscape(latencyCycleRegs[i]) + ",\n";
    }
    return out;
}

} // namespace nb::analysis
