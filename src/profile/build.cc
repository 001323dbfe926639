/**
 * @file
 * Profile planner, campaign driver, and decoder.
 */

#include "build.hh"

#include "common/bits.hh"
#include "common/logging.hh"
#include "sim/machine.hh"
#include "uarch/uarch.hh"

namespace nb::profile
{

using cachetools::CacheLevel;
using cachetools::CacheSeq;
using cachetools::CacheSeqOptions;
using x86::Instruction;
using x86::MemRef;
using x86::Opcode;
using x86::Operand;
using x86::Reg;

namespace
{

// ------------------------------------------------------ plan helpers --

Instruction
loadFrom(Addr vaddr)
{
    MemRef m;
    m.disp = static_cast<std::int64_t>(vaddr);
    Instruction insn;
    insn.opcode = Opcode::MOV;
    insn.operands = {Operand::makeReg(Reg::RBX),
                     Operand::makeMem(m, 64)};
    return insn;
}

Instruction
movImm(Reg r, std::int64_t value)
{
    Instruction insn;
    insn.opcode = Opcode::MOV;
    insn.operands = {Operand::makeReg(r), Operand::makeImm(value)};
    return insn;
}

Instruction
storeAbs(Addr addr, Reg r)
{
    MemRef m;
    m.disp = static_cast<std::int64_t>(addr);
    Instruction insn;
    insn.opcode = Opcode::MOV;
    insn.operands = {Operand::makeMem(m, 64), Operand::makeReg(r)};
    return insn;
}

Instruction
wbinvd()
{
    Instruction insn;
    insn.opcode = Opcode::WBINVD;
    return insn;
}

/** Configured geometry of a level (planning knowledge; the profile
 *  measures everything independently, the plan just needs address
 *  math and ladders in the right ballpark). */
struct LevelGeometry
{
    unsigned assoc = 0;
    unsigned sets = 0;
    unsigned slices = 1;
    Addr size = 0;
};

LevelGeometry
geometryOf(const uarch::MicroArch &ua, CacheLevel level)
{
    const auto &cfg = ua.cacheConfig;
    LevelGeometry g;
    switch (level) {
      case CacheLevel::L1:
        g.assoc = cfg.l1.assoc;
        g.size = cfg.l1.sizeBytes;
        break;
      case CacheLevel::L2:
        g.assoc = cfg.l2.assoc;
        g.size = cfg.l2.sizeBytes;
        break;
      case CacheLevel::L3:
        g.assoc = cfg.l3.assoc;
        g.size = cfg.l3.sizeBytes;
        g.slices = cfg.l3Slices;
        break;
    }
    g.sets = static_cast<unsigned>(
        g.size / (kCacheLineSize * g.assoc * g.slices));
    return g;
}

const char *
levelName(CacheLevel level)
{
    switch (level) {
      case CacheLevel::L1:
        return "L1";
      case CacheLevel::L2:
        return "L2";
      case CacheLevel::L3:
        return "L3";
    }
    return "?";
}

/** Set-count hypotheses probed per level (fixed, uarch-independent
 *  ladders bracketing every modelled geometry). */
std::vector<unsigned>
setsLadder(CacheLevel level)
{
    switch (level) {
      case CacheLevel::L1:
        return {16, 32, 64, 128, 256};
      case CacheLevel::L2:
        return {128, 256, 512, 1024, 2048, 4096};
      case CacheLevel::L3:
        return {512, 1024, 2048, 4096, 8192};
    }
    return {};
}

/** Ring length of the set-count hypothesis probes: 2A+1 lines thrash
 *  one A-way set completely, while the A-line half of a split ring
 *  still fits (so a half-stride hypothesis reads ~50% misses, not
 *  100%); the ring must also exceed the upstream associativities so
 *  it reaches the level under test at all. */
unsigned
hypothesisRingLines(const uarch::MicroArch &ua, CacheLevel level)
{
    LevelGeometry g = geometryOf(ua, level);
    unsigned upstream = 0;
    if (level != CacheLevel::L1)
        upstream = ua.cacheConfig.l1.assoc;
    if (level == CacheLevel::L3)
        upstream = std::max(upstream, ua.cacheConfig.l2.assoc);
    return std::max(2 * g.assoc + 1, upstream + 1);
}

/** The miss event of a level, as a one-event CounterConfig. */
core::CounterConfig
missEventConfig(CacheLevel level)
{
    auto info =
        sim::findEvent(std::string(CacheSeq::missEventName(level)));
    NB_ASSERT(info.has_value(), "miss event missing from catalog");
    core::CounterConfig config;
    config.add(core::ConfiguredEvent{info->code, info->id, info->name});
    return config;
}

/** Line-size strides probed (bytes). */
std::vector<unsigned>
lineStrides()
{
    return {16, 32, 64, 128, 256};
}

constexpr unsigned kLineFootprint = 16 * 1024;
constexpr unsigned kSetsRingPasses = 8;
constexpr unsigned kLatencyRingPasses = 4;

/** Bytes of the pointer-chase latency ring per level: past the
 *  previous level's capacity, comfortably inside this one. */
Addr
latencyRingBytes(const uarch::MicroArch &ua, CacheLevel level)
{
    const auto &cfg = ua.cacheConfig;
    switch (level) {
      case CacheLevel::L1:
        return cfg.l1.sizeBytes / 4;
      case CacheLevel::L2:
        return 2 * cfg.l1.sizeBytes;
      case CacheLevel::L3:
        return 2 * cfg.l2.sizeBytes;
    }
    return 0;
}

/** R14 bytes the whole profile needs (max over every planned tool;
 *  reserved once, up front, so all planned addresses stay stable). */
Addr
profileAreaSize(const uarch::MicroArch &ua, const ProfileOptions &opt)
{
    Addr need = 8 * 1024 * 1024;
    for (CacheLevel level :
         {CacheLevel::L1, CacheLevel::L2, CacheLevel::L3}) {
        LevelGeometry g = geometryOf(ua, level);
        // CacheSeq's own candidate area (cacheseq.cc).
        Addr seq_stride = static_cast<Addr>(g.sets) * kCacheLineSize;
        need = std::max(need,
                        seq_stride * 320 *
                            (level == CacheLevel::L3 ? g.slices + 1
                                                     : 1));
        // The largest set-count hypothesis ring.
        unsigned ring = hypothesisRingLines(ua, level);
        unsigned filter = level == CacheLevel::L3 ? g.slices : 1;
        Addr max_hyp = setsLadder(level).back();
        need = std::max(need, max_hyp * kCacheLineSize *
                                  (static_cast<Addr>(ring) * filter * 2 +
                                   2));
    }
    if (opt.tlbMaxPages > 0) {
        need = std::max(need,
                        static_cast<Addr>(opt.tlbMaxPages + 1) * 4096);
    }
    if (opt.duelingScan && !ua.cacheConfig.l3Dueling.empty()) {
        // Generous bound on DuelingScanner::planAreaSize() (the
        // training block count is only known after the offline
        // pattern search).
        LevelGeometry g = geometryOf(ua, CacheLevel::L3);
        Addr stride = static_cast<Addr>(g.sets) * kCacheLineSize;
        need = std::max(need,
                        stride * (static_cast<Addr>(g.assoc + 32) *
                                      g.slices * 2 +
                                  2));
    }
    return need;
}

/** Candidate lines with equal index under a set-count hypothesis
 *  (and, for the L3, in slice 0). */
std::vector<Addr>
hypothesisRing(core::Runner &runner, CacheLevel level, unsigned hyp,
               unsigned lines)
{
    auto &machine = runner.machine();
    Addr area_virt = runner.r14Area();
    Addr area_phys = machine.memory().translate(area_virt);
    Addr stride = static_cast<Addr>(hyp) * kCacheLineSize;
    Addr candidate = alignUp(area_phys, stride);
    std::vector<Addr> ring;
    while (ring.size() < lines) {
        if (candidate + kCacheLineSize > area_phys + runner.r14AreaSize())
            fatal("profile plan ran out of hypothesis-ring lines");
        if (level != CacheLevel::L3 ||
            machine.caches().sliceOf(candidate) == 0)
            ring.push_back(area_virt + (candidate - area_phys));
        candidate += stride;
    }
    return ring;
}

/** Steady-state ring spec: loop the ring, count this level's misses. */
core::BenchmarkSpec
ringSpec(const std::vector<Addr> &ring, CacheLevel level)
{
    core::BenchmarkSpec spec;
    spec.code.reserve(ring.size());
    for (Addr vaddr : ring)
        spec.code.push_back(loadFrom(vaddr));
    spec.unrollCount = 1;
    spec.loopCount = kSetsRingPasses;
    spec.warmUpCount = 2;
    spec.nMeasurements = 2;
    spec.agg = Aggregate::Mean;
    spec.basicMode = true;
    spec.noMem = true;
    spec.fixedCounters = false;
    spec.config = missEventConfig(level);
    return spec;
}

/** Cold-scan spec of the line-size sweep: flush, touch `footprint`
 *  bytes at `stride`, count this level's (compulsory) misses. */
core::BenchmarkSpec
lineSpec(Addr base, unsigned footprint, unsigned stride,
         CacheLevel level)
{
    core::BenchmarkSpec spec;
    spec.code.push_back(wbinvd());
    for (unsigned off = 0; off < footprint; off += stride)
        spec.code.push_back(loadFrom(base + off));
    spec.unrollCount = 1;
    spec.loopCount = 0;
    spec.warmUpCount = 0;
    spec.nMeasurements = 1;
    spec.agg = Aggregate::Mean;
    spec.basicMode = true;
    spec.noMem = true;
    spec.fixedCounters = false;
    spec.config = missEventConfig(level);
    return spec;
}

/** Dependent pointer-chase spec around a sequential ring of lines. */
core::BenchmarkSpec
chaseSpec(Addr base, unsigned lines)
{
    std::vector<Instruction> init;
    init.reserve(2 * lines);
    for (unsigned i = 0; i < lines; ++i) {
        Addr slot = base + static_cast<Addr>(i) * kCacheLineSize;
        Addr next =
            base + static_cast<Addr>((i + 1) % lines) * kCacheLineSize;
        init.push_back(movImm(Reg::RBX, static_cast<std::int64_t>(next)));
        init.push_back(storeAbs(slot, Reg::RBX));
    }
    core::BenchmarkSpec spec;
    spec.init = std::move(init);
    spec.asmCode = "mov R14, [R14]";
    spec.unrollCount = 1;
    spec.loopCount =
        static_cast<std::uint64_t>(kLatencyRingPasses) * lines;
    spec.warmUpCount = 2;
    spec.nMeasurements = 3;
    spec.agg = Aggregate::Median;
    return spec;
}

/** Policy-probe target sets, outside the §VI-D leader bands. */
unsigned
policyProbeSet(CacheLevel level)
{
    switch (level) {
      case CacheLevel::L1:
        return 5;
      case CacheLevel::L2:
        return 33;
      case CacheLevel::L3:
        return 101;
    }
    return 0;
}

/** Plan all experiments of one cache level. Throws FatalError when the
 *  machine cannot support them (caught into LevelPlan::error). */
ProfilePlan::LevelPlan
planLevel(core::Runner &runner, const uarch::MicroArch &ua,
          CacheLevel level, const ProfileOptions &opt, Rng &rng,
          std::vector<core::BenchmarkSpec> &specs)
{
    ProfilePlan::LevelPlan lp;
    lp.level = level;
    lp.name = levelName(level);
    LevelGeometry g = geometryOf(ua, level);
    lp.slices = g.slices;

    // The cacheSeq target for the associativity ladder and the policy
    // inference, against one arbitrary non-leader set. Constructed
    // FIRST: its constructor also validates that this machine supports
    // cache analysis at all (kernel mode, prefetchers off, §VI-D), and
    // a planning failure must not leave earlier specs behind.
    CacheSeqOptions seq_opt;
    seq_opt.level = level;
    seq_opt.set = policyProbeSet(level);
    seq_opt.cbox = 0;
    seq_opt.repetitions = 1;
    CacheSeq seq(runner, seq_opt);

    // Set-count hypotheses.
    lp.setsHypotheses = setsLadder(level);
    lp.setsRingLines = hypothesisRingLines(ua, level);
    lp.setsFirst = specs.size();
    for (unsigned hyp : lp.setsHypotheses) {
        specs.push_back(ringSpec(
            hypothesisRing(runner, level, hyp, lp.setsRingLines),
            level));
    }

    // Line-size sweep.
    lp.lineStrides = lineStrides();
    lp.lineFootprint = kLineFootprint;
    lp.lineFirst = specs.size();
    for (unsigned stride : lp.lineStrides) {
        specs.push_back(
            lineSpec(runner.r14Area(), kLineFootprint, stride, level));
    }

    lp.assoc = cachetools::planAssociativity(seq, opt.maxAssoc);
    lp.assocFirst = specs.size();
    for (auto &spec : lp.assoc.specs)
        specs.push_back(std::move(spec));
    lp.assoc.specs.clear();

    // Latency ring.
    lp.latencyRingLines = static_cast<unsigned>(
        latencyRingBytes(ua, level) / kCacheLineSize);
    lp.latencySpec = specs.size();
    specs.push_back(chaseSpec(runner.r14Area(), lp.latencyRingLines));

    // Replacement-policy inference (§VI-C1).
    lp.policy = cachetools::planPolicyId(seq, g.assoc, rng,
                                         opt.policySequences, 3);
    lp.policyFirst = specs.size();
    for (auto &spec : lp.policy.specs)
        specs.push_back(std::move(spec));
    lp.policy.specs.clear();

    return lp;
}

// ---------------------------------------------------- decode helpers --

/** A level plan that only records why planning failed. */
ProfilePlan::LevelPlan
erroredLevelPlan(CacheLevel level, const std::string &why)
{
    ProfilePlan::LevelPlan lp;
    lp.level = level;
    lp.name = levelName(level);
    lp.error = why;
    return lp;
}

/** Merge a sub-experiment failure into a level's error field. */
void
levelFail(CacheLevelProfile &level, const std::string &what,
          const std::string &message)
{
    if (!level.error.empty())
        level.error += "; ";
    level.error += what + ": " + message;
}

} // namespace

// ------------------------------------------------------------ planner --

ProfilePlan
planMachineProfile(const ProfileOptions &options)
{
    const uarch::MicroArch &ua =
        uarch::getMicroArch(options.session.uarch);

    ProfilePlan plan;
    plan.uarch = options.session.uarch;
    plan.mode = options.session.mode;
    plan.seed = options.session.seed;
    plan.duelAdvertised = !ua.cacheConfig.l3Dueling.empty();

    if (options.session.mode != core::Mode::Kernel) {
        // Every §VI experiment needs the kernel runner (WBINVD,
        // physically-contiguous memory, uncore access).
        const char *why = "requires the kernel-space runner (§VI)";
        for (CacheLevel level :
             {CacheLevel::L1, CacheLevel::L2, CacheLevel::L3})
            plan.levels.push_back(erroredLevelPlan(level, why));
        plan.tlbError = why;
        if (plan.duelAdvertised && options.duelingScan)
            plan.duelingError = why;
        return plan;
    }

    // A private, freshly constructed planning machine: never the
    // Engine pool, so the memory layout every planned address depends
    // on is a pure function of (uarch, mode, seed) -- exactly what
    // prepareProfileMachine() reproduces on the campaign workers.
    sim::Machine machine(ua, options.session.seed);
    core::Runner runner(machine, core::Mode::Kernel);

    plan.r14Size = profileAreaSize(ua, options);
    if (!runner.reserveR14Area(plan.r14Size))
        fatal("cannot reserve the profile's R14 area (", plan.r14Size,
              " bytes)");
    plan.disablePrefetchers =
        machine.caches().prefetcherDisableSupported();
    if (plan.disablePrefetchers) {
        machine.writeMsr(sim::msr::kPrefetchControl,
                         cache::pf::kDisableAll);
    }

    for (CacheLevel level :
         {CacheLevel::L1, CacheLevel::L2, CacheLevel::L3}) {
        // A per-level RNG stream keeps the planned policy sequences
        // independent of whether other levels planned successfully.
        Rng level_rng(options.session.seed +
                      1000003 *
                          (static_cast<std::uint64_t>(level) + 1));
        // Section failures become errored profile sections; keep
        // fatal()'s courtesy stderr print quiet for them.
        ScopedFatalMessageSuppression suppress_fatal_prints;
        try {
            plan.levels.push_back(planLevel(runner, ua, level, options,
                                            level_rng, plan.specs));
        } catch (const FatalError &e) {
            plan.levels.push_back(erroredLevelPlan(level, e.what()));
        }
    }

    if (options.tlbMaxPages > 0) {
        ScopedFatalMessageSuppression suppress_fatal_prints;
        try {
            plan.tlb = cachetools::planTlb(runner, options.tlbMaxPages);
            plan.tlbFirst = plan.specs.size();
            for (auto &spec : plan.tlb->specs)
                plan.specs.push_back(std::move(spec));
            plan.tlb->specs.clear();
        } catch (const FatalError &e) {
            plan.tlb.reset();
            plan.tlbError = e.what();
        }
    }

    if (plan.duelAdvertised && options.duelingScan) {
        ScopedFatalMessageSuppression suppress_fatal_prints;
        try {
            cachetools::DuelingScanner scanner(
                runner, ua.cacheConfig.l3Dueling.policyA,
                ua.cacheConfig.l3Dueling.policyB);
            plan.dueling = scanner.plan(options.dueling);
            plan.duelingFirst = plan.specs.size();
            for (auto &spec : plan.dueling->specs)
                plan.specs.push_back(std::move(spec));
            plan.dueling->specs.clear();
        } catch (const FatalError &e) {
            plan.dueling.reset();
            plan.duelingError = e.what();
        }
    }
    return plan;
}

void
prepareProfileMachine(core::Runner &runner, const ProfilePlan &plan)
{
    if (runner.mode() != core::Mode::Kernel)
        return;
    if (runner.r14AreaSize() < plan.r14Size &&
        !runner.reserveR14Area(plan.r14Size))
        fatal("profile worker: cannot reserve the R14 area");
    if (plan.disablePrefetchers) {
        runner.machine().writeMsr(sim::msr::kPrefetchControl,
                                  cache::pf::kDisableAll);
    }
}

// ------------------------------------------------------------ decoder --

MachineProfile
decodeMachineProfile(const ProfilePlan &plan,
                     const std::vector<RunOutcome> &outcomes)
{
    MachineProfile profile;
    profile.uarch = plan.uarch;
    profile.mode = core::modeName(plan.mode);

    for (const auto &lp : plan.levels) {
        CacheLevelProfile level;
        level.level = lp.name;
        level.slices = lp.slices;
        if (!lp.error.empty()) {
            level.error = lp.error;
            profile.levels.push_back(std::move(level));
            continue;
        }

        // Set count: the miss rate grows while the hypothesis is
        // below the true set count (the ring spreads over several
        // sets, most of it fits) and plateaus once the hypothesis
        // reaches it (the whole ring collides in one set). The
        // plateau level is policy-dependent -- ~100% for LRU-like
        // eviction, but barely above 50% for thrash-resistant
        // adaptive policies (§VI-B3) -- so the verdict is the
        // smallest hypothesis within 90% of the plateau.
        {
            std::vector<double> rates;
            for (std::size_t i = 0; i < lp.setsHypotheses.size(); ++i) {
                const RunOutcome &outcome = outcomes[lp.setsFirst + i];
                if (!outcome.ok()) {
                    levelFail(level, "sets", outcome.error().message);
                    break;
                }
                rates.push_back(
                    outcome.result()[CacheSeq::missEventName(
                        lp.level)] /
                    lp.setsRingLines);
            }
            double plateau = 0.0;
            for (double rate : rates)
                plateau = std::max(plateau, rate);
            if (level.error.empty()) {
                if (plateau < 0.25) {
                    levelFail(level, "sets",
                              "no hypothesis ring thrashed");
                } else {
                    for (std::size_t i = 0; i < rates.size(); ++i) {
                        if (rates[i] >= 0.9 * plateau) {
                            level.sets = lp.setsHypotheses[i];
                            break;
                        }
                    }
                }
            }
        }

        // Line size: the largest stride still producing (nearly) the
        // dense sweep's compulsory miss count.
        double base_misses = 0.0;
        for (std::size_t i = 0; i < lp.lineStrides.size(); ++i) {
            const RunOutcome &outcome = outcomes[lp.lineFirst + i];
            if (!outcome.ok()) {
                levelFail(level, "line", outcome.error().message);
                break;
            }
            double misses = outcome.result()[CacheSeq::missEventName(
                lp.level)];
            if (i == 0)
                base_misses = misses;
            if (base_misses > 0 && misses >= 0.75 * base_misses)
                level.lineSize = lp.lineStrides[i];
        }
        if (level.lineSize == 0 && level.error.empty())
            levelFail(level, "line", "no compulsory misses observed");

        // Associativity.
        auto assoc = cachetools::decodeAssociativity(
            lp.assoc,
            {outcomes.begin() +
                 static_cast<std::ptrdiff_t>(lp.assocFirst),
             outcomes.begin() +
                 static_cast<std::ptrdiff_t>(lp.assocFirst +
                                             lp.assoc.maxAssoc)});
        level.assoc = assoc.assoc;
        if (!assoc.error.empty())
            levelFail(level, "assoc", assoc.error);

        // Latency.
        const RunOutcome &latency = outcomes[lp.latencySpec];
        if (!latency.ok()) {
            levelFail(level, "latency", latency.error().message);
        } else if (auto cycles = latency.result().find("Core cycles")) {
            level.loadLatency = *cycles;
        } else {
            levelFail(level, "latency",
                      "no Core cycles line (fixed counters "
                      "unavailable on this machine)");
        }

        // Policy verdict.
        auto policy = cachetools::decodePolicyId(
            lp.policy,
            {outcomes.begin() +
                 static_cast<std::ptrdiff_t>(lp.policyFirst),
             outcomes.begin() +
                 static_cast<std::ptrdiff_t>(
                     lp.policyFirst + 2 * lp.policy.sequences.size())});
        level.policyMatches = std::move(policy.matches);
        level.policyDeterministic = policy.deterministic;
        if (policy.sequencesSkipped > 0) {
            levelFail(level, "policy",
                      std::to_string(policy.sequencesSkipped) +
                          " sequence benchmark(s) failed");
        }

        level.sizeKb = static_cast<double>(level.sets) * level.assoc *
                       level.lineSize * level.slices / 1024.0;
        profile.levels.push_back(std::move(level));
    }

    if (plan.tlb) {
        profile.tlb.measured = true;
        auto tlb = cachetools::decodeTlb(
            *plan.tlb,
            {outcomes.begin() +
                 static_cast<std::ptrdiff_t>(plan.tlbFirst),
             outcomes.begin() +
                 static_cast<std::ptrdiff_t>(
                     plan.tlbFirst + 3 * plan.tlb->ladder.size())});
        profile.tlb.dtlbEntries = tlb.dtlbEntries;
        profile.tlb.stlbEntries = tlb.stlbEntries;
        profile.tlb.stlbPenalty = tlb.stlbPenalty;
        profile.tlb.walkPenalty = tlb.walkPenalty;
        profile.tlb.error = std::move(tlb.error);
    } else if (!plan.tlbError.empty()) {
        profile.tlb.measured = true;
        profile.tlb.error = plan.tlbError;
    }

    profile.dueling.scanned = plan.dueling.has_value();
    if (plan.dueling) {
        profile.dueling.policyA = plan.dueling->policyA;
        profile.dueling.policyB = plan.dueling->policyB;
        auto result = cachetools::DuelingScanner::decode(
            *plan.dueling,
            {outcomes.begin() +
                 static_cast<std::ptrdiff_t>(plan.duelingFirst),
             outcomes.begin() +
                 static_cast<std::ptrdiff_t>(
                     plan.duelingFirst + plan.dueling->probes.size())});
        for (const auto &range : result.dedicatedRanges) {
            profile.dueling.ranges.push_back(
                {range.slice, range.setLo, range.setHi,
                 range.role == cachetools::SetRole::FixedA ? "A"
                                                           : "B"});
        }
    } else if (!plan.duelingError.empty()) {
        profile.dueling.scanned = true;
        profile.dueling.error = plan.duelingError;
    }
    return profile;
}

// ------------------------------------------------------------ builder --

ProfileBuild
buildMachineProfile(Engine &engine, const ProfileOptions &options)
{
    // Plan first: an unknown uarch throws here, before any work.
    ProfilePlan plan = planMachineProfile(options);

    ProfileBuild build;
    if (plan.specs.empty()) {
        // Nothing runnable (user mode / unsupported machine): the
        // decoded profile carries the per-section errors.
        build.profile = decodeMachineProfile(plan, {});
        return build;
    }

    CampaignOptions campaign_opt;
    campaign_opt.jobs = options.jobs;
    campaign_opt.dedup = options.dedup;
    campaign_opt.session = options.session;
    if (options.progress) {
        // The builder's coarse (done, total) callback maps onto the
        // settle events of the richer campaign progress stream.
        campaign_opt.progress =
            [cb = options.progress](const CampaignProgress &event) {
                if (!event.starting)
                    cb(event.done, event.total);
            };
    }
    campaign_opt.trace = options.trace;
    campaign_opt.observe = options.observe;
    // A runaway planner spec settles as BudgetExceeded instead of
    // hanging profile generation (outcomes for sane specs, and thus
    // the golden profiles, are unaffected).
    campaign_opt.specBudget = kBuilderSpecBudget;
    // Workers reproduce the planning machine's reservation and
    // prefetcher state before running anything.
    Addr r14_size = plan.r14Size;
    bool disable_pf = plan.disablePrefetchers;
    campaign_opt.machineSetup = [r14_size,
                                 disable_pf](core::Runner &runner) {
        ProfilePlan shim;
        shim.r14Size = r14_size;
        shim.disablePrefetchers = disable_pf;
        prepareProfileMachine(runner, shim);
    };

    CampaignResult campaign =
        engine.runCampaign(plan.specs, campaign_opt);
    build.profile = decodeMachineProfile(plan, campaign.outcomes);
    build.report = std::move(campaign.report);
    return build;
}

} // namespace nb::profile
