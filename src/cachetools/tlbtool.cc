/**
 * @file
 * TLB-characterization implementation.
 */

#include "tlbtool.hh"

#include <algorithm>

#include "common/logging.hh"
#include "x86/assembler.hh"

namespace nb::cachetools
{

using x86::imm;
using x86::ins;
using x86::Instruction;
using x86::memAbs;
using x86::memAt;
using x86::Opcode;
using x86::Reg;
using x86::reg;

namespace
{

/** One load per stride step: mov RBX, [R14 + i*stride]. */
std::vector<Instruction>
strideLoads(unsigned n, Addr stride)
{
    std::vector<Instruction> body;
    body.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        body.push_back(ins(
            Opcode::MOV,
            {reg(Reg::RBX),
             memAt(Reg::R14, static_cast<std::int64_t>(i * stride))}));
    }
    return body;
}

/** The capacity-sweep grid: 2^k and 3*2^k points up to max_pages
 *  (plus max_pages itself), so the usual TLB sizes -- 64, 1536, ... --
 *  land exactly on grid points. */
std::vector<unsigned>
sweepLadder(unsigned max_pages)
{
    std::vector<unsigned> ladder = {1};
    for (unsigned p = 2; p <= max_pages && p != 0; p *= 2) {
        ladder.push_back(p);
        unsigned q = p + p / 2;
        if (q <= max_pages)
            ladder.push_back(q);
    }
    ladder.push_back(max_pages);
    std::sort(ladder.begin(), ladder.end());
    ladder.erase(std::unique(ladder.begin(), ladder.end()),
                 ladder.end());
    return ladder;
}

/** Ring addresses of the penalty chase: page-stride rings stagger the
 *  line offset within each page, so the ring spreads over all L1/L2
 *  sets instead of colliding in one. */
Addr
ringAddr(Addr base, unsigned i, Addr stride)
{
    Addr a = base + i * stride;
    if (stride >= 4096)
        a += ((i / 8) % 64) * 64;
    return a;
}

} // namespace

core::BenchmarkSpec
chaseSpec(Addr base, unsigned n, Addr stride)
{
    std::vector<Instruction> init;
    init.reserve(2 * n);
    for (unsigned i = 0; i < n; ++i) {
        auto next =
            static_cast<std::int64_t>(ringAddr(base, (i + 1) % n, stride));
        init.push_back(ins(Opcode::MOV, {reg(Reg::RBX), imm(next)}));
        init.push_back(ins(Opcode::MOV, {memAbs(ringAddr(base, i, stride)),
                                         reg(Reg::RBX)}));
    }
    core::BenchmarkSpec spec;
    spec.init = std::move(init);
    spec.asmCode = "mov R14, [R14]";
    spec.unrollCount = 1;
    spec.loopCount = 4 * n;
    spec.warmUpCount = 2;
    spec.nMeasurements = 3;
    spec.agg = Aggregate::Median;
    return spec;
}

TlbPlan
planTlb(core::Runner &runner, unsigned max_pages)
{
    if (runner.mode() != core::Mode::Kernel)
        fatal("the TLB tool requires the kernel-space runner");
    Addr needed = static_cast<Addr>(max_pages + 1) * 4096;
    if (runner.r14AreaSize() < needed)
        fatal("the TLB plan needs an R14 area of at least ", needed,
              " bytes (reserve it first)");

    TlbPlan plan;
    plan.maxPages = max_pages;
    plan.ladder = sweepLadder(max_pages);
    plan.r14Size = runner.r14AreaSize();

    // Miss sweep: one spec per ladder size, cycling the working set
    // (cyclic = LRU worst case) and counting the DTLB miss events.
    for (unsigned n : plan.ladder) {
        core::BenchmarkSpec spec;
        spec.code = strideLoads(n, 4096);
        spec.unrollCount = 1;
        spec.loopCount = 4;
        spec.warmUpCount = 2;
        spec.nMeasurements = 3;
        spec.agg = Aggregate::Median;
        spec.noMem = true;
        spec.fixedCounters = false;
        spec.config.add("DTLB_LOAD_MISSES.STLB_HIT");
        spec.config.add("DTLB_LOAD_MISSES.MISS_CAUSES_A_WALK");
        plan.specs.push_back(std::move(spec));
    }

    // Penalty chases: a (page-strided, dense) pair per ladder size.
    // The identical cache footprint of a pair cancels the cache-
    // hierarchy contribution and isolates the translation penalty;
    // decodeTlb() picks the pairs whose ring sizes bracket the
    // capacities it finds in the sweep.
    Addr base = runner.r14Area();
    for (unsigned n : plan.ladder) {
        plan.specs.push_back(chaseSpec(base, n, 4096));
        plan.specs.push_back(chaseSpec(base, n, 64));
    }
    return plan;
}

TlbCharacterization
decodeTlb(const TlbPlan &plan, std::span<const RunOutcome> outcomes)
{
    NB_ASSERT(outcomes.size() == 3 * plan.ladder.size(),
              "TLB decode needs one outcome per planned spec");
    TlbCharacterization out;
    auto fail = [&](const RunOutcome &outcome) {
        if (out.error.empty())
            out.error = outcome.error().message;
    };
    auto fail_text = [&](const std::string &message) {
        if (out.error.empty())
            out.error = message;
    };

    // Capacities: the largest ladder size with (near-)zero misses at
    // the respective level -- the same monotone criterion the former
    // binary search evaluated, on the fixed grid.
    std::size_t n_ladder = plan.ladder.size();
    bool dtlb_done = false;
    for (std::size_t i = 0; i < n_ladder; ++i) {
        const RunOutcome &outcome = outcomes[i];
        if (!outcome.ok()) {
            fail(outcome);
            break;
        }
        const auto &result = outcome.result();
        double denom = plan.ladder[i];
        auto stlb_line = result.find("DTLB_LOAD_MISSES.STLB_HIT");
        auto walk_line =
            result.find("DTLB_LOAD_MISSES.MISS_CAUSES_A_WALK");
        if (!stlb_line || !walk_line) {
            fail_text("DTLB_LOAD_MISSES events unavailable");
            break;
        }
        double stlb_hits = *stlb_line / denom;
        double walks = *walk_line / denom;
        if (!dtlb_done && stlb_hits + walks < 0.01)
            out.dtlbEntries = plan.ladder[i];
        else
            dtlb_done = true;
        if (walks < 0.01)
            out.stlbEntries = plan.ladder[i];
        else
            break; // past both capacities: the rest adds nothing
    }

    // Penalties: STLB penalty from a ring small enough that both
    // chase variants stay L1-resident (pure translation difference);
    // walk penalty from a ring past the STLB but still cache-resident
    // in both variants.
    auto chase_pair = [&](unsigned n) -> std::optional<double> {
        auto it = std::find(plan.ladder.begin(), plan.ladder.end(), n);
        NB_ASSERT(it != plan.ladder.end(), "ring size off ladder");
        std::size_t i =
            n_ladder +
            2 * static_cast<std::size_t>(it - plan.ladder.begin());
        if (!outcomes[i].ok() || !outcomes[i + 1].ok()) {
            fail(!outcomes[i].ok() ? outcomes[i] : outcomes[i + 1]);
            return std::nullopt;
        }
        auto strided = outcomes[i].result().find("Core cycles");
        auto dense = outcomes[i + 1].result().find("Core cycles");
        if (!strided || !dense) {
            fail_text("no Core cycles line (fixed counters "
                      "unavailable on this machine)");
            return std::nullopt;
        }
        return *strided - *dense;
    };
    auto ladder_at_most = [&](unsigned cap,
                              unsigned above) -> std::optional<unsigned> {
        std::optional<unsigned> best;
        for (unsigned n : plan.ladder) {
            if (n > above && n <= cap)
                best = n;
        }
        return best;
    };

    if (out.stlbEntries > out.dtlbEntries) {
        unsigned target = std::min(
            6 * out.dtlbEntries,
            (out.dtlbEntries + out.stlbEntries) / 2);
        if (auto n = ladder_at_most(target, out.dtlbEntries)) {
            if (auto penalty = chase_pair(*n))
                out.stlbPenalty = *penalty;
        }
    }
    unsigned beyond = std::min(plan.maxPages, out.stlbEntries + 512);
    if (auto n = ladder_at_most(beyond, out.stlbEntries)) {
        if (auto penalty = chase_pair(*n))
            out.walkPenalty = *penalty;
    }
    return out;
}

TlbCharacterization
measureTlb(core::Runner &runner, unsigned max_pages)
{
    if (runner.mode() != core::Mode::Kernel)
        fatal("the TLB tool requires the kernel-space runner");
    Addr needed = static_cast<Addr>(max_pages + 1) * 4096;
    if (runner.r14AreaSize() < needed && !runner.reserveR14Area(needed))
        fatal("cannot reserve the page-sweep area");
    // Hardware prefetchers would give the dense baseline rings an
    // unfair cache advantage (§IV-A2); disable them like the cache
    // tools do.
    if (runner.machine().caches().prefetcherDisableSupported()) {
        runner.machine().writeMsr(sim::msr::kPrefetchControl,
                                  cache::pf::kDisableAll);
    }

    TlbPlan plan = planTlb(runner, max_pages);
    std::vector<RunOutcome> outcomes;
    outcomes.reserve(plan.specs.size());
    for (const auto &spec : plan.specs)
        outcomes.push_back(runSpecOnRunner(runner, spec));
    return decodeTlb(plan, outcomes);
}

TlbCharacterization
measureTlb(Session &session, unsigned max_pages)
{
    return measureTlb(session.runner(), max_pages);
}

} // namespace nb::cachetools
