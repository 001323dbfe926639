/**
 * @file
 * Static performance bounds: abstract interpretation of the decoded
 * body pattern against the executor's timing guarantees.
 *
 * The latency pass mirrors sim/dispatch.cc's prologue exactly -- and
 * only claims delays the scheduler is guaranteed to impose:
 *
 *  - A core µop dispatches no earlier than every src slot's
 *    readiness (kFlagsSlot when the instruction reads flags), and
 *    completes max(1, latency) cycles after dispatch (plain `latency`
 *    for the rare port-less µop, whose done time is ready + latency).
 *  - A load µop dispatches no earlier than every addr slot's
 *    readiness and takes at least the L1 hit latency; the core µop
 *    (when present) waits for the loaded value. Address registers of
 *    non-load instructions (LEA, pure stores) contribute NO edge: the
 *    executor reads their values without stalling on them.
 *  - Zero idioms skip the source/flags wait entirely.
 *  - Every write replaces the destination's readiness timestamp, so a
 *    write kills the previous derivation outright (partial-width
 *    merges included -- the scheduler does the same).
 *
 * Instructions with no core µops and no load µop (some NOP forms)
 * complete at issue: result, but no data edge. The per-register
 * transfer matrix from one pass over the pattern feeds Karp's
 * maximum-cycle-mean algorithm; the critical cycle is recovered from
 * the tight-edge subgraph after reweighting by the exact rational
 * mean, and each cycle edge is expanded back into positioned
 * instruction echoes by a provenance-tracking re-pass.
 */

#include "analysis/bound.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>
#include <limits>
#include <span>
#include <unordered_map>

#include "common/logging.hh"
#include "core/memo.hh"
#include "core/result.hh"
#include "sim/program.hh"
#include "uarch/timing.hh"
#include "x86/assembler.hh"
#include "x86/reg.hh"

namespace nb::analysis
{

using x86::Reg;

namespace
{

constexpr std::size_t kNumRegs =
    static_cast<std::size_t>(Reg::NumRegs);
constexpr std::int64_t kNegInf =
    std::numeric_limits<std::int64_t>::min() / 4;

/** The timing edges one decoded entry is guaranteed to impose: input
 *  registers (readiness slots) with per-edge weights, and the
 *  registers whose readiness timestamps the result replaces. */
struct TimingEdges
{
    /** (register, guaranteed delay) pairs: sources, then addresses. */
    std::array<std::pair<std::size_t, std::int64_t>,
               sim::kPlanSrcSlots + sim::kPlanAddrSlots>
        in;
    std::size_t inCount = 0;
    /** The entry's dst slots. */
    std::span<const std::uint8_t> out;
};

void
collectEdges(const uarch::MicroArch &ua, const sim::EntryPlan &p,
             TimingEdges &e)
{
    e.inCount = 0;
    std::int64_t w_core = 0;
    if (p.nCore > 0) {
        w_core = p.core[0] != 0 ? std::max<std::int64_t>(1, p.latency)
                                : p.latency;
        for (std::uint8_t s : sim::usedSlots(p.src))
            e.in[e.inCount++] = {s, w_core};
    }
    if (p.flags & sim::planflag::kDoLoadUop) {
        std::int64_t w_load =
            static_cast<std::int64_t>(ua.cacheConfig.l1Latency) +
            w_core;
        for (std::uint8_t s : sim::usedSlots(p.addr))
            e.in[e.inCount++] = {s, w_load};
    }
    e.out = sim::usedSlots(p.dst);
}

using DistRow = std::array<std::int64_t, kNumRegs>;
using DistMatrix = std::array<DistRow, kNumRegs>;

/** One pass over the body pattern: dist[r][e] = largest guaranteed
 *  timing distance from the pattern-entry value of register e to the
 *  pattern-exit value of register r (kNegInf: no dependence). */
DistMatrix
transferPass(const uarch::MicroArch &ua, const sim::Program &body)
{
    DistMatrix dist;
    for (std::size_t r = 0; r < kNumRegs; ++r) {
        dist[r].fill(kNegInf);
        dist[r][r] = 0;
    }
    TimingEdges edges;
    DistRow row;
    for (std::size_t i = 0; i < body.entryCount(); ++i) {
        collectEdges(ua, body.plan(i), edges);
        if (edges.out.empty())
            continue;
        row.fill(kNegInf);
        for (std::size_t k = 0; k < edges.inCount; ++k) {
            const auto &[src, w] = edges.in[k];
            const DistRow &srow = dist[src];
            for (std::size_t e = 0; e < kNumRegs; ++e) {
                if (srow[e] > kNegInf)
                    row[e] = std::max(row[e], srow[e] + w);
            }
        }
        for (std::uint8_t r : edges.out)
            dist[r] = row;
    }
    return dist;
}

/** Provenance-tracking single-source re-pass: the longest guaranteed
 *  path from the entry value of @p source, with the instruction chain
 *  recoverable per register. */
struct Trace
{
    struct Step
    {
        std::int32_t entry; ///< index within the body pattern
        std::int64_t weight;
        std::int32_t prev;  ///< index into steps; -1 terminates
    };
    std::vector<Step> steps;
    std::array<std::int64_t, kNumRegs> value;
    std::array<std::int32_t, kNumRegs> prov;
};

Trace
tracePass(const uarch::MicroArch &ua, const sim::Program &body,
          std::size_t source)
{
    Trace t;
    t.value.fill(kNegInf);
    t.prov.fill(-1);
    t.value[source] = 0;
    TimingEdges edges;
    for (std::size_t i = 0; i < body.entryCount(); ++i) {
        collectEdges(ua, body.plan(i), edges);
        if (edges.out.empty())
            continue;
        std::int64_t best = kNegInf;
        std::int64_t best_w = 0;
        std::int32_t best_prev = -1;
        for (std::size_t k = 0; k < edges.inCount; ++k) {
            const auto &[src, w] = edges.in[k];
            if (t.value[src] > kNegInf && t.value[src] + w > best) {
                best = t.value[src] + w;
                best_w = w;
                best_prev = t.prov[src];
            }
        }
        std::int32_t step = -1;
        if (best > kNegInf) {
            step = static_cast<std::int32_t>(t.steps.size());
            t.steps.push_back({static_cast<std::int32_t>(i), best_w,
                               best_prev});
        }
        for (std::uint8_t r : edges.out) {
            t.value[r] = best;
            t.prov[r] = step;
        }
    }
    return t;
}

/** The critical latency cycle of the loop-carried register graph. */
struct LatencyCycle
{
    /** Register sequence c[0] -> c[1] -> ... -> c[len-1] -> c[0]. */
    std::vector<std::size_t> regs;
    std::int64_t weight = 0; ///< Σ edge weights around the cycle
};

/**
 * Maximum cycle mean of the loop-carried graph W[e][r] (one edge per
 * body copy) via Karp's theorem, plus an exact critical cycle from the
 * tight-edge subgraph after reweighting by the rational mean. Returns
 * an empty cycle when no positive-mean cycle exists.
 */
LatencyCycle
maxCycleMean(const DistMatrix &dist)
{
    const std::size_t n = kNumRegs;
    // W[e][r]: entry value of e reaches the exit value of r.
    auto W = [&](std::size_t e, std::size_t r) { return dist[r][e]; };

    std::vector<DistRow> D(n + 1);
    D[0].fill(0);
    for (std::size_t k = 1; k <= n; ++k) {
        D[k].fill(kNegInf);
        for (std::size_t r = 0; r < n; ++r) {
            std::int64_t best = kNegInf;
            for (std::size_t e = 0; e < n; ++e) {
                if (D[k - 1][e] > kNegInf && W(e, r) > kNegInf)
                    best = std::max(best, D[k - 1][e] + W(e, r));
            }
            D[k][r] = best;
        }
    }

    // mean = max_v min_k (D[n][v] - D[k][v]) / (n - k), as a fraction.
    std::int64_t p = 0; // numerator; <= 0 means no positive cycle
    std::int64_t q = 1;
    for (std::size_t v = 0; v < n; ++v) {
        if (D[n][v] <= kNegInf)
            continue;
        std::int64_t vp = 0;
        std::int64_t vq = 0; // unset
        for (std::size_t k = 0; k < n; ++k) {
            if (D[k][v] <= kNegInf)
                continue;
            std::int64_t cp = D[n][v] - D[k][v];
            auto cq = static_cast<std::int64_t>(n - k);
            if (vq == 0 || cp * vq < vp * cq) {
                vp = cp;
                vq = cq;
            }
        }
        if (vq != 0 && vp * q > p * vq) {
            p = vp;
            q = vq;
        }
    }
    LatencyCycle cycle;
    if (p <= 0)
        return cycle;

    // Reweight w' = q*W - p: the maximum cycle mean becomes exactly 0,
    // longest paths converge, and every max-mean cycle is tight
    // (d[r] == d[e] + w') under the converged potentials.
    DistRow d;
    d.fill(0);
    for (std::size_t round = 0; round <= n; ++round) {
        bool changed = false;
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t e = 0; e < n; ++e) {
                if (W(e, r) <= kNegInf)
                    continue;
                std::int64_t cand = d[e] + q * W(e, r) - p;
                if (cand > d[r]) {
                    d[r] = cand;
                    changed = true;
                }
            }
        }
        if (!changed)
            break;
    }

    // Any cycle of tight edges sums to 0 reweighted, i.e. has mean
    // exactly p/q. Find one with an iterative DFS.
    std::array<std::int8_t, kNumRegs> color{}; // 0 new 1 open 2 done
    std::array<std::int32_t, kNumRegs> parent;
    parent.fill(-1);
    auto tight = [&](std::size_t e, std::size_t r) {
        return W(e, r) > kNegInf && d[r] == d[e] + q * W(e, r) - p;
    };
    for (std::size_t start = 0; start < n && cycle.regs.empty();
         ++start) {
        if (color[start] != 0)
            continue;
        std::vector<std::size_t> stack = {start};
        while (!stack.empty() && cycle.regs.empty()) {
            std::size_t e = stack.back();
            if (color[e] == 0)
                color[e] = 1;
            bool descended = false;
            for (std::size_t r = 0; r < n; ++r) {
                if (!tight(e, r))
                    continue;
                if (color[r] == 1) { // back edge: cycle r ->...-> e -> r
                    for (std::size_t c = e;; ) {
                        cycle.regs.push_back(c);
                        if (c == r)
                            break;
                        c = static_cast<std::size_t>(parent[c]);
                    }
                    std::reverse(cycle.regs.begin(),
                                 cycle.regs.end());
                    break;
                }
                if (color[r] == 0) {
                    parent[r] = static_cast<std::int32_t>(e);
                    stack.push_back(r);
                    descended = true;
                    break;
                }
            }
            if (!descended && cycle.regs.empty()) {
                color[e] = 2;
                stack.pop_back();
            }
        }
    }
    if (cycle.regs.empty())
        return cycle; // unreachable in theory; degrade to "no cycle"
    for (std::size_t i = 0; i < cycle.regs.size(); ++i) {
        cycle.weight += W(cycle.regs[i],
                          cycle.regs[(i + 1) % cycle.regs.size()]);
    }
    return cycle;
}

/** Compact display rendering of a double (trailing zeros trimmed). */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4g", v);
    return buf;
}

} // namespace

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
    DistMatrix dist = transferPass(ua, body);
    LatencyCycle cycle = maxCycleMean(dist);
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
            Trace t = tracePass(ua, body, from);
            std::vector<PathStep> seg;
            for (std::int32_t s = t.prov[to]; s >= 0;
                 s = t.steps[static_cast<std::size_t>(s)].prev) {
                const Trace::Step &st =
                    t.steps[static_cast<std::size_t>(s)];
                PathStep step;
                step.index = st.entry;
                step.insn =
                    body.insn(static_cast<std::size_t>(st.entry))
                        .toString();
                step.latency = st.weight;
                seg.push_back(std::move(step));
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
    std::vector<x86::Instruction> body_code = spec.code;
    if (body_code.empty() && !spec.asmCode.empty())
        body_code = x86::assemble(spec.asmCode);
    std::vector<sim::Program::Segment> segs(1);
    segs[0].code = std::move(body_code);
    segs[0].repeat = std::max<std::uint64_t>(1, spec.unrollCount);
    sim::Program body = sim::Program::decode(ua, std::move(segs));
    return analyzeBounds(ua, body);
}

double
totalCycleBound(const BoundReport &rep, std::uint64_t copies)
{
    auto n = static_cast<double>(copies);
    double best = std::max(n * rep.portBound, n * rep.frontEndBound);
    if (rep.latencyCycleLen > 0) {
        std::uint64_t traversals = copies / rep.latencyCycleLen;
        if (traversals > 1) {
            best = std::max(
                best, static_cast<double>(traversals - 1) *
                          static_cast<double>(rep.latencyCycleWeight));
        }
    }
    return best;
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
    out += "latency bound:   " + fmtDouble(latencyBound) +
           " cycles/copy";
    if (latencyCycleLen > 0) {
        out += " (cycle: " + std::to_string(latencyCycleWeight) +
               " cycles across " + std::to_string(latencyCycleLen) +
               (latencyCycleLen == 1 ? " copy)" : " copies)");
    }
    out += '\n';
    out += "port bound:      " + fmtDouble(portBound) +
           " cycles/copy\n";
    out += "front-end bound: " + fmtDouble(frontEndBound) +
           " cycles/copy (" + fmtDouble(uopsPerCopy) +
           " uops / issue width " + std::to_string(issueWidth) +
           ")\n";
    if (!ports.empty()) {
        out += "port utilization:\n";
        for (const PortUse &use : ports) {
            out += "  p" + std::to_string(use.port) + ": " +
                   fmtDouble(use.uops) + " uops/copy (" +
                   fmtDouble(use.util * 100) + "% @ bound)\n";
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

namespace
{

/** Whole-report memo keyed on (uarch, canonical spec key), the
 *  analyzeSpecCached() pattern. */
Memo<BoundReport> &
boundMemo()
{
    static Memo<BoundReport> memo;
    return memo;
}

} // namespace

BoundReport
analyzeBoundsCached(const uarch::MicroArch &ua,
                    const core::BenchmarkSpec &spec)
{
    std::string key = ua.name;
    key += '\0';
    key += core::specCanonicalKey(spec);
    return *boundMemo().get(key, [&] { return analyzeBounds(ua, spec); });
}

CacheStats
boundCacheCounters()
{
    return boundMemo().stats();
}

} // namespace nb::analysis
