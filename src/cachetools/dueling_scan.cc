/**
 * @file
 * Set-dueling scanner implementation.
 *
 * Two-phase protocol: every probe spec first drives the duel towards
 * one policy (A or B) and then records one candidate set's signature.
 * Follower sets change signature between the phases; dedicated sets
 * keep the signature of their own policy.
 */

#include "dueling_scan.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "cachetools/policy_sim.hh"
#include "common/bits.hh"
#include "common/logging.hh"
#include "core/engine.hh"

namespace nb::cachetools
{

const char *
setRoleName(SetRole role)
{
    switch (role) {
      case SetRole::Follower:
        return "follower";
      case SetRole::FixedA:
        return "fixed-A";
      case SetRole::FixedB:
        return "fixed-B";
      case SetRole::Unknown:
        return "unknown";
    }
    return "?";
}

std::string
DuelingScanResult::summary() const
{
    std::ostringstream os;
    for (const auto &range : dedicatedRanges) {
        os << "slice " << range.slice << ": sets " << range.setLo << "-"
           << range.setHi << " " << setRoleName(range.role) << "\n";
    }
    if (dedicatedRanges.empty())
        os << "no dedicated sets found\n";
    return os.str();
}

DuelingScanner::DuelingScanner(Session &session, std::string policy_a,
                               std::string policy_b)
    : DuelingScanner(session.runner(), std::move(policy_a),
                     std::move(policy_b))
{
}

DuelingScanner::DuelingScanner(core::Runner &runner, std::string policy_a,
                               std::string policy_b)
    : runner_(runner), policyA_(std::move(policy_a)),
      policyB_(std::move(policy_b)),
      assoc_(runner.machine().uarch().cacheConfig.l3.assoc)
{
    chooseSignature();
    chooseColdTraining();
}

void
DuelingScanner::chooseSignature()
{
    // Offline search: find sequences whose expected hit counts under
    // the two candidate policies differ by as much as possible -- in
    // both directions. The A-favoring sequence (A hits more) produces
    // extra leader-B misses and drives the duel towards A; the
    // B-favoring one does the opposite. The larger gap of the two
    // doubles as the probe signature.
    Rng rng(271828);
    Rng sim_rng(31415);
    double best_a = 0.0; // ha - hb
    double best_b = 0.0; // hb - ha
    std::vector<SeqAccess> best_a_seq;
    constexpr unsigned kSimReps = 96;
    for (unsigned trial = 0; trial < 200; ++trial) {
        std::vector<SeqAccess> seq;
        seq.push_back({-1, false, true}); // <wbinvd>
        unsigned n_blocks = assoc_ + 1 +
                            static_cast<unsigned>(rng.nextBelow(3));
        unsigned len = 2 * assoc_ +
                       static_cast<unsigned>(rng.nextBelow(assoc_));
        for (unsigned k = 0; k < len; ++k) {
            seq.push_back({static_cast<int>(rng.nextBelow(n_blocks)),
                           true, false});
        }
        double ha = simulatedHits(policyA_, assoc_, seq, &sim_rng, kSimReps);
        double hb = simulatedHits(policyB_, assoc_, seq, &sim_rng, kSimReps);
        if (ha - hb > best_a) {
            best_a = ha - hb;
            best_a_seq = seq;
        }
        if (hb - ha > best_b) {
            best_b = hb - ha;
            sig_ = seq;
            expectedA_ = ha;
            expectedB_ = hb;
        }
    }
    if (best_a > best_b) {
        sig_ = std::move(best_a_seq);
        Rng check_rng(8128);
        expectedA_ =
            simulatedHits(policyA_, assoc_, sig_, &check_rng, kSimReps);
        expectedB_ =
            simulatedHits(policyB_, assoc_, sig_, &check_rng, kSimReps);
    }
    if (std::max(best_a, best_b) < 1.5) {
        warn("set-dueling scanner: weak signature (gap ",
             std::max(best_a, best_b),
             "); classification may be unreliable");
    }
}

void
DuelingScanner::chooseColdTraining()
{
    // The oracle is a SINGLE pattern pass against an initially empty
    // set: the probe specs flush the caches every loop iteration, so
    // their in-spec training always runs from cold and needs patterns
    // whose miss gap exists without accumulated state.
    auto pass_misses_cold = [&](const std::string &policy,
                                const std::vector<int> &pattern) {
        Rng sim_rng(135791);
        PolicySim sim(policy, assoc_, &sim_rng);
        double misses = 0.0;
        constexpr unsigned kSimReps = 16;
        for (unsigned outer = 0; outer < kSimReps; ++outer) {
            sim.flush();
            for (int b : pattern) {
                if (!sim.access(b))
                    misses += 1.0;
            }
        }
        return misses / kSimReps;
    };

    // plan() replays the pattern block-major over the probed grid, so
    // between two uses of a block at least slices-many distinct lines
    // per pattern position land in the same L2 set: a reuse distance
    // of 2*assoc(L2)/slices makes every reuse miss L1/L2 and reach the
    // L3, where the per-set policy simulation is the right oracle.
    const auto &cfg = runner_.machine().uarch().cacheConfig;
    unsigned slices = runner_.machine().caches().numSlices();
    unsigned min_reuse =
        (2 * std::max(cfg.l1.assoc, cfg.l2.assoc) + slices - 1) / slices;

    auto min_reuse_distance = [](const std::vector<int> &pattern) {
        std::size_t best = ~std::size_t{0};
        for (std::size_t i = 0; i < pattern.size(); ++i) {
            std::set<int> seen;
            for (std::size_t j = i + 1; j < pattern.size(); ++j) {
                if (pattern[j] == pattern[i]) {
                    best = std::min(best, seen.size());
                    break;
                }
                seen.insert(pattern[j]);
            }
        }
        return best;
    };

    Rng rng(606060);
    double best_a = 0.0;
    double best_b = 0.0;
    for (unsigned trial = 0; trial < 400; ++trial) {
        unsigned n_blocks = std::max(assoc_ - 2, min_reuse + 2) +
                            static_cast<unsigned>(rng.nextBelow(8));
        std::vector<int> perm(n_blocks);
        for (unsigned i = 0; i < n_blocks; ++i)
            perm[i] = static_cast<int>(i);
        for (unsigned i = n_blocks; i > 1; --i) {
            std::size_t j = rng.nextBelow(i);
            std::swap(perm[i - 1], perm[j]);
        }
        unsigned rounds = 2 + static_cast<unsigned>(rng.nextBelow(2));
        std::vector<int> pattern;
        for (unsigned r = 0; r < rounds; ++r) {
            for (int b : perm) {
                if (rng.nextBelow(8) == 0)
                    continue;
                pattern.push_back(b);
            }
        }
        if (min_reuse_distance(pattern) < min_reuse)
            continue;
        double ma = pass_misses_cold(policyA_, pattern);
        double mb = pass_misses_cold(policyB_, pattern);
        auto to_seq = [](const std::vector<int> &p) {
            std::vector<SeqAccess> seq;
            for (int b : p)
                seq.push_back({b, false, false});
            return seq;
        };
        if (ma - mb > best_b) {
            best_b = ma - mb;
            trainColdB_ = to_seq(pattern);
        }
        if (mb - ma > best_a) {
            best_a = mb - ma;
            trainColdA_ = to_seq(pattern);
        }
    }
    if (best_a < 0.5 || best_b < 0.5) {
        warn("set-dueling scanner: weak cold training patterns (gaps ",
             best_a, " / ", best_b, ")");
    }
}

namespace
{

/** The follower/fixed-A/fixed-B verdict of one probed set, from its
 *  signature under the two training phases. */
SetRole
classifyRole(double sig_a, double sig_b, double gap, double expected_a,
             double expected_b)
{
    if (std::abs(sig_a - sig_b) > gap / 2)
        return SetRole::Follower;
    double s = 0.5 * (sig_a + sig_b);
    if (gap < 1e-9)
        return SetRole::Unknown;
    bool closer_to_a =
        std::abs(s - expected_a) < std::abs(s - expected_b);
    return closer_to_a ? SetRole::FixedA : SetRole::FixedB;
}

/** Group consecutive dedicated probes into ranges (per slice). */
void
groupDedicatedRanges(DuelingScanResult &result, unsigned stride)
{
    for (unsigned slice = 0; slice < result.roles.size(); ++slice) {
        const auto &probes = result.roles[slice];
        std::size_t i = 0;
        while (i < probes.size()) {
            SetRole role = probes[i].second;
            if (role != SetRole::FixedA && role != SetRole::FixedB) {
                ++i;
                continue;
            }
            std::size_t j = i;
            while (j + 1 < probes.size() &&
                   probes[j + 1].second == role &&
                   probes[j + 1].first - probes[j].first <= stride)
                ++j;
            result.dedicatedRanges.push_back(
                {slice, probes[i].first, probes[j].first, role});
            i = j + 1;
        }
    }
}

} // namespace

// ------------------------------------------------------- plan/decode --

Addr
DuelingScanner::planAreaSize(const DuelingPlanOptions &opt)
{
    (void)opt;
    const auto &caches = runner_.machine().caches();
    Addr stride = static_cast<Addr>(caches.l3Slice(0).numSets()) *
                  kCacheLineSize;
    int max_block = 0;
    for (const auto &seq : {trainColdA_, trainColdB_}) {
        for (const auto &acc : seq)
            max_block = std::max(max_block, acc.block);
    }
    auto blocks = static_cast<Addr>(max_block) + 1;
    // Candidates for one (set, slice) appear every ~slices * stride
    // bytes; double that for slice-hash clustering, plus alignment.
    return stride * (blocks * caches.numSlices() * 2 + 2);
}

DuelingPlan
DuelingScanner::plan(const DuelingPlanOptions &opt)
{
    auto &machine = runner_.machine();
    auto &caches = machine.caches();
    unsigned slices = caches.numSlices();

    DuelingPlan plan;
    plan.options = opt;
    plan.policyA = policyA_;
    plan.policyB = policyB_;
    plan.expectedA = expectedA_;
    plan.expectedB = expectedB_;

    // The CacheSeq reserves its (large) R14 area first; the training
    // lines are then laid out in the same area, so one machineSetup
    // reservation reproduces everything.
    CacheSeqOptions seq_opt;
    seq_opt.level = CacheLevel::L3;
    seq_opt.set = opt.setLo;
    seq_opt.cbox = 0;
    seq_opt.repetitions = opt.reps;
    CacheSeq cache_seq(runner_, seq_opt);
    if (runner_.r14AreaSize() < planAreaSize(opt))
        fatal("set-dueling plan: R14 area too small for the training "
              "lines (have ", runner_.r14AreaSize(), ", need ",
              planAreaSize(opt), ")");
    plan.r14Size = runner_.r14AreaSize();

    // The probed set grid; the in-spec training replays the pattern
    // over exactly this grid (block-major across sets and slices, so
    // reuses reach the L3 through the slice interleaving).
    std::vector<unsigned> grid;
    for (unsigned set = opt.setLo; set <= opt.setHi; set += opt.stride)
        grid.push_back(set);

    int max_block = 0;
    for (const auto &seq : {trainColdA_, trainColdB_}) {
        for (const auto &acc : seq)
            max_block = std::max(max_block, acc.block);
    }
    auto blocks = static_cast<unsigned>(max_block) + 1;

    // Training lines: lines[(set index in grid) * slices + slice][b].
    Addr area_virt = runner_.r14Area();
    Addr area_phys = machine.memory().translate(area_virt);
    Addr stride = static_cast<Addr>(caches.l3Slice(0).numSets()) *
                  kCacheLineSize;
    Addr origin = alignUp(area_phys, stride);
    std::vector<std::vector<Addr>> lines;
    lines.reserve(grid.size() * slices);
    for (unsigned set : grid) {
        for (unsigned slice = 0; slice < slices; ++slice) {
            std::vector<Addr> per_block;
            Addr candidate =
                origin + static_cast<Addr>(set) * kCacheLineSize;
            while (per_block.size() < blocks) {
                if (candidate + kCacheLineSize >
                    area_phys + runner_.r14AreaSize())
                    fatal("set-dueling plan ran out of training lines");
                if (caches.sliceOf(candidate) == slice)
                    per_block.push_back(area_virt +
                                        (candidate - area_phys));
                candidate += stride;
            }
            lines.push_back(std::move(per_block));
        }
    }

    // One training replay per phase, block-major over the grid.
    auto train_body = [&](bool towards_a) {
        const auto &seq = towards_a ? trainColdA_ : trainColdB_;
        std::vector<x86::Instruction> body;
        body.reserve(seq.size() * lines.size());
        for (const auto &acc : seq) {
            if (acc.wbinvd)
                continue;
            auto b = static_cast<std::size_t>(acc.block);
            for (const auto &set_lines : lines)
                body.push_back(x86::ins(x86::Opcode::MOV,
                                        {x86::reg(x86::Reg::RBX),
                                         x86::memAbs(set_lines[b])}));
        }
        return body;
    };
    std::vector<x86::Instruction> train_a = train_body(true);
    std::vector<x86::Instruction> train_b = train_body(false);

    // One self-contained spec per (phase, slice, set): the loop
    // replays [train (paused), probe signature (measured)] -- the
    // warm-up execution saturates the PSEL duel, the measured
    // execution averages the signature over trainReplays probes.
    for (bool phase_a : {true, false}) {
        for (unsigned slice = 0; slice < slices; ++slice) {
            for (unsigned set : grid) {
                cache_seq.setTarget(set, slice);
                core::BenchmarkSpec spec = cache_seq.planSeqWithPrelude(
                    phase_a ? train_a : train_b, sig_);
                spec.loopCount = std::max(1u, opt.trainReplays);
                spec.warmUpCount = 1;
                plan.probes.push_back({slice, set, phase_a});
                plan.specs.push_back(std::move(spec));
            }
        }
    }
    return plan;
}

DuelingScanResult
DuelingScanner::decode(const DuelingPlan &plan,
                       std::span<const RunOutcome> outcomes)
{
    NB_ASSERT(outcomes.size() == plan.probes.size(),
              "dueling decode needs one outcome per probe");
    unsigned slices = 0;
    for (const auto &probe : plan.probes)
        slices = std::max(slices, probe.slice + 1);

    // Signatures of every probed (slice, set) under each phase;
    // failed probes simply stay absent.
    std::vector<std::map<unsigned, double>> sig_a(slices);
    std::vector<std::map<unsigned, double>> sig_b(slices);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].ok())
            continue;
        const DuelingProbe &probe = plan.probes[i];
        double hits = CacheSeq::decodeHitMiss(CacheLevel::L3,
                                              outcomes[i].result())
                          .hits;
        (probe.phaseA ? sig_a : sig_b)[probe.slice][probe.set] = hits;
    }

    double gap = std::abs(plan.expectedA - plan.expectedB);
    DuelingScanResult result;
    result.roles.resize(slices);
    for (unsigned slice = 0; slice < slices; ++slice) {
        for (const auto &[set, a] : sig_a[slice]) {
            auto it = sig_b[slice].find(set);
            SetRole role =
                it == sig_b[slice].end()
                    ? SetRole::Unknown
                    : classifyRole(a, it->second, gap, plan.expectedA,
                                   plan.expectedB);
            result.roles[slice].push_back({set, role});
        }
        // Phase-B-only probes (phase A failed) classify as Unknown.
        for (const auto &[set, b] : sig_b[slice]) {
            (void)b;
            if (!sig_a[slice].count(set))
                result.roles[slice].push_back({set, SetRole::Unknown});
        }
        std::sort(result.roles[slice].begin(),
                  result.roles[slice].end());
    }
    groupDedicatedRanges(result, plan.options.stride);
    return result;
}

} // namespace nb::cachetools
