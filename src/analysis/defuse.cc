/**
 * @file
 * The def/use walk both static analyzers read (see defuse.hh).
 */

#include "analysis/defuse.hh"

#include <algorithm>

namespace nb::analysis::defuse
{

Edges
entryEdges(const uarch::MicroArch &ua, const sim::Program &prog,
           std::size_t e, bool idiom_reads)
{
    namespace pf = sim::planflag;
    const sim::EntryPlan &p = prog.plan(e);
    const x86::Instruction &insn = prog.insn(e);
    Edges edges;
    // A core µop completes max(1, latency) cycles after its sources
    // are ready (plain latency when port-less).
    std::int64_t w_core = 0;
    if (p.nCore > 0) {
        w_core = p.core[0] != 0 ? std::max<std::int64_t>(1, p.latency)
                                : p.latency;
    }
    for (std::uint8_t s : sim::usedSlots(p.src))
        edges.in[edges.inCount++] = {s, p.nCore > 0 ? w_core : kDataOnly};
    // A pure store's address is no input.
    if ((p.flags & pf::kHasLoad) || p.opcode == x86::Opcode::LEA) {
        std::int64_t w_addr =
            p.flags & pf::kDoLoadUop
                ? static_cast<std::int64_t>(ua.cacheConfig.l1Latency) +
                      w_core
                : kDataOnly;
        for (std::uint8_t s : sim::usedSlots(p.addr))
            edges.in[edges.inCount++] = {s, w_addr};
    }
    // The opcode table leaves the implicit RAX out, so the executor's
    // readiness timing stays as measured.
    if (insn.opcode == x86::Opcode::IMUL && insn.operands.size() == 1)
        edges.in[edges.inCount++] = {sim::slotOf(x86::Reg::RAX), kDataOnly};
    // On request, a zero idiom reads the register operands the
    // scheduler ignores.
    if ((p.flags & pf::kZeroIdiom) && idiom_reads) {
        for (const x86::Operand &op : insn.operands) {
            if (op.kind == x86::OperandKind::Register)
                edges.in[edges.inCount++] = {sim::slotOf(op.reg), kDataOnly};
        }
    }
    edges.out = sim::usedSlots(p.dst);
    edges.entry = static_cast<std::int32_t>(e);
    return edges;
}

Walk::Walk()
{
    for (std::size_t r = 0; r < kNumRegs; ++r) {
        dist[r].fill(kNoPath);
        dist[r][r] = 0;
        prov[r].fill(-1);
    }
}

void
Walk::advance(const Edges &edges, View view)
{
    if (edges.out.empty())
        return;
    DistRow row;
    row.fill(kNoPath);
    std::array<Step, kNumRegs> link;
    for (const Input &in : edges.inputs()) {
        if (view == View::Timed && in.delay == kDataOnly)
            continue;
        std::int64_t w = view == View::Timed ? in.delay : 1;
        for (std::size_t e = 0; e < kNumRegs; ++e) {
            if (dist[in.slot][e] > kNoPath &&
                dist[in.slot][e] + w > row[e]) {
                row[e] = dist[in.slot][e] + w;
                link[e] = {edges.entry, w, prov[in.slot][e]};
            }
        }
    }
    std::array<std::int32_t, kNumRegs> prov_row;
    for (std::size_t e = 0; e < kNumRegs; ++e) {
        prov_row[e] = -1;
        if (row[e] > kNoPath) {
            prov_row[e] = static_cast<std::int32_t>(steps.size());
            steps.push_back(link[e]);
        }
    }
    for (std::uint8_t r : edges.out) {
        dist[r] = row;
        prov[r] = prov_row;
        written |= std::uint64_t{1} << r;
    }
}

LatencyCycle
maxCycleMean(const Walk &walk)
{
    // W[e][r]: entry value of e reaches the exit value of r.
    auto W = [&](std::size_t e, std::size_t r) { return walk.dist[r][e]; };

    // Karp's recurrence runs over the registers the walk wrote: any
    // other keeps its identity row -- a 0-weight self-loop and no
    // other incoming edge -- so it lies on no positive-mean cycle.
    std::vector<std::size_t> active;
    for (std::size_t r = 0; r < kNumRegs; ++r) {
        if (walk.written >> r & 1)
            active.push_back(r);
    }
    const std::size_t n = active.size();
    std::vector<DistRow> D(n + 1);
    D[0].fill(0);
    for (std::size_t k = 1; k <= n; ++k) {
        D[k].fill(kNoPath);
        for (std::size_t r : active) {
            for (std::size_t e : active) {
                if (D[k - 1][e] > kNoPath && W(e, r) > kNoPath)
                    D[k][r] = std::max(D[k][r], D[k - 1][e] + W(e, r));
            }
        }
    }

    // mean = max_v min_k (D[n][v] - D[k][v]) / (n - k), as a fraction.
    std::int64_t p = 0; // numerator; <= 0 means no positive cycle
    std::int64_t q = 1;
    for (std::size_t v : active) {
        if (D[n][v] <= kNoPath)
            continue;
        std::int64_t vp = 0;
        std::int64_t vq = 0; // unset
        for (std::size_t k = 0; k < n; ++k) {
            if (D[k][v] <= kNoPath)
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
    // (d[r] == d[e] + w') under the converged potentials (0 for an
    // inactive register, whose only incoming edge weighs -p).
    DistRow d;
    d.fill(0);
    for (std::size_t round = 0; round <= kNumRegs; ++round) {
        bool changed = false;
        for (std::size_t r : active) {
            for (std::size_t e = 0; e < kNumRegs; ++e) {
                if (W(e, r) <= kNoPath)
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
        return W(e, r) > kNoPath && d[r] == d[e] + q * W(e, r) - p;
    };
    for (std::size_t start = 0; start < kNumRegs && cycle.regs.empty();
         ++start) {
        if (color[start] != 0)
            continue;
        std::vector<std::size_t> stack = {start};
        while (!stack.empty() && cycle.regs.empty()) {
            std::size_t e = stack.back();
            if (color[e] == 0)
                color[e] = 1;
            bool descended = false;
            for (std::size_t r = 0; r < kNumRegs; ++r) {
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

} // namespace nb::analysis::defuse
