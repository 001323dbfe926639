/**
 * @file
 * Reset ≡ construct: a machine + runner pair that has run arbitrary
 * work and then Runner::reset() must be indistinguishable from a
 * just-built Machine(ua, seed) + Runner(machine, mode) pair.
 *
 * Each test dirties one rig with seeded mixed specs (loads, stores,
 * pointer chases, WBINVD, CLFLUSH, RDPMC, CPUID, loops; user mode with
 * timer interrupts and fragmented areas, kernel mode with a reserved
 * R14 area and disabled prefetchers), resets it, and then replays a
 * second seeded sequence on it and on a freshly built rig, comparing
 * every observable after each spec: results, ExecStats of a raw
 * program, registers, PMU totals and time-resolved samples, cache,
 * C-Box and TLB statistics, PSEL, the memory layout, and finally the
 * RNG stream. A reset point moved past a setup (Runner::markResetPoint)
 * must likewise equal construction plus that setup. Every campaign
 * worker relies on exactly this: it sets up one machine once, marks
 * the reset point, and resets before every spec instead of building
 * one per spec.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/runner.hh"
#include "sim/machine.hh"
#include "x86/assembler.hh"

namespace nb
{
namespace
{

using core::BenchmarkSpec;
using core::Mode;
using core::Runner;
using sim::Machine;

struct Scenario
{
    const char *uarch;
    Mode mode;
    /** Reserve a large R14 area and disable the prefetchers (the
     *  profile builder's machine setup); kernel mode only. */
    bool profileSetup;
};

std::string
scenarioName(const testing::TestParamInfo<Scenario> &info)
{
    return std::string(info.param.uarch) +
           (info.param.mode == Mode::Kernel ? "Kernel" : "User") +
           (info.param.profileSetup ? "R14" : "");
}

constexpr Addr kLargeR14 = 6 * 1024 * 1024;

/** One machine + runner pair, set up like a campaign worker. */
struct Rig
{
    explicit Rig(const Scenario &s)
        : machine(std::make_unique<Machine>(uarch::getMicroArch(s.uarch),
                                            42)),
          runner(std::make_unique<Runner>(*machine, s.mode))
    {
    }

    void
    setup(const Scenario &s)
    {
        if (!s.profileSetup)
            return;
        ASSERT_TRUE(runner->reserveR14Area(kLargeR14));
        machine->writeMsr(sim::msr::kPrefetchControl,
                          cache::pf::kDisableAll);
    }

    std::unique_ptr<Machine> machine;
    std::unique_ptr<Runner> runner;
};

/** Seeded mixed specs; privileged bodies only in kernel mode. */
std::vector<BenchmarkSpec>
mixedSpecs(std::uint64_t seed, Mode mode, const std::string &uarch,
           std::size_t count)
{
    struct Body
    {
        const char *init;
        const char *code;
        bool privileged;
    };
    static const Body kBodies[] = {
        {"", "mov RAX, [R14]", false},
        {"mov [R14], R14", "mov R14, [R14]", false},
        {"", "mov [R14+128], RAX; mov RBX, [R14+4096]", false},
        {"", "mov RAX, [R14+262144]; mov RBX, [RDI+8192]", false},
        {"", "clflush [R14]; mov RAX, [R14]", false},
        {"", "wbinvd", true},
        {"", "xor ECX, ECX; rdpmc", false},
        {"", "mov EAX, 0; cpuid", false},
        {"", "add RAX, RBX; imul RCX, RDX; lfence", false},
        {"", "add RSI, 64; mov RAX, [RSI]", false},
    };
    core::CounterConfig config = core::CounterConfig::forMicroArch(uarch);
    Rng rng(seed);
    std::vector<BenchmarkSpec> specs;
    while (specs.size() < count) {
        const Body &body = kBodies[rng.nextBelow(std::size(kBodies))];
        if (body.privileged && mode != Mode::Kernel)
            continue;
        BenchmarkSpec spec;
        spec.asmInit = body.init;
        spec.asmCode = body.code;
        spec.unrollCount = 1 + rng.nextBelow(12);
        spec.loopCount = rng.oneIn(3) ? 2 + rng.nextBelow(6) : 0;
        spec.nMeasurements = 2 + static_cast<unsigned>(rng.nextBelow(3));
        spec.warmUpCount = static_cast<unsigned>(rng.nextBelow(2));
        if (rng.oneIn(2))
            spec.config = config;
        // noMem keeps readouts in registers: fixed counters only.
        spec.noMem = spec.config.empty() && rng.oneIn(3);
        specs.push_back(spec);
    }
    return specs;
}

void
expectSameCache(const cache::Cache &a, const cache::Cache &b)
{
    EXPECT_EQ(a.stats().hits, b.stats().hits) << a.name();
    EXPECT_EQ(a.stats().misses, b.stats().misses) << a.name();
    EXPECT_EQ(a.stats().evictions, b.stats().evictions) << a.name();
    EXPECT_EQ(a.stats().writebacks, b.stats().writebacks) << a.name();
    EXPECT_EQ(a.stats().invalidations, b.stats().invalidations)
        << a.name();
}

/** Every observable of two machines + runners, except the RNG stream
 *  (comparing it draws from it; see expectSameRng). */
void
expectSameState(Rig &a, Rig &b)
{
    Machine &ma = *a.machine;
    Machine &mb = *b.machine;
    ASSERT_EQ(ma.cycles(), mb.cycles());
    EXPECT_EQ(ma.arch().gpr, mb.arch().gpr);
    EXPECT_EQ(ma.arch().vec, mb.arch().vec);
    EXPECT_EQ(ma.arch().zf, mb.arch().zf);
    EXPECT_EQ(ma.arch().cf, mb.arch().cf);
    EXPECT_EQ(ma.arch().sf, mb.arch().sf);
    EXPECT_EQ(ma.arch().of, mb.arch().of);
    EXPECT_EQ(ma.privilege(), mb.privilege());
    EXPECT_EQ(ma.interruptsEnabled(), mb.interruptsEnabled());

    for (unsigned e = 0; e < sim::kNumEvents; ++e) {
        auto id = static_cast<sim::EventId>(e);
        EXPECT_EQ(ma.pmu().total(id), mb.pmu().total(id)) << "event " << e;
    }
    for (unsigned i = 0; i < ma.pmu().numProg(); ++i)
        EXPECT_EQ(ma.pmu().progEvent(i), mb.pmu().progEvent(i));
    Cycles end = ma.cycles();
    Cycles step = std::max<Cycles>(1, end / 97);
    for (Cycles c = 0; c <= end + step; c += step) {
        if (ma.pmu().hasFixed()) {
            for (unsigned i = 0; i < 3; ++i)
                EXPECT_EQ(ma.pmu().readFixed(i, c), mb.pmu().readFixed(i, c))
                    << "fixed " << i << " at " << c;
        }
        for (unsigned i = 0; i < ma.pmu().numProg(); ++i)
            EXPECT_EQ(ma.pmu().readProg(i, c), mb.pmu().readProg(i, c))
                << "prog " << i << " at " << c;
    }

    cache::Hierarchy &ca = ma.caches();
    cache::Hierarchy &cb = mb.caches();
    expectSameCache(ca.l1(), cb.l1());
    expectSameCache(ca.l2(), cb.l2());
    ASSERT_EQ(ca.numSlices(), cb.numSlices());
    for (unsigned s = 0; s < ca.numSlices(); ++s) {
        expectSameCache(ca.l3Slice(s), cb.l3Slice(s));
        EXPECT_EQ(ca.cboxStats(s).lookups, cb.cboxStats(s).lookups);
        EXPECT_EQ(ca.cboxStats(s).hits, cb.cboxStats(s).hits);
        EXPECT_EQ(ca.cboxStats(s).misses, cb.cboxStats(s).misses);
    }
    EXPECT_EQ(ca.duelState().psel(), cb.duelState().psel());
    EXPECT_EQ(ca.prefetcherControl(), cb.prefetcherControl());
    EXPECT_EQ(ma.tlb().dtlbMisses(), mb.tlb().dtlbMisses());
    EXPECT_EQ(ma.tlb().stlbMisses(), mb.tlb().stlbMisses());

    EXPECT_EQ(ma.memory().pageTable().size(),
              mb.memory().pageTable().size());
    EXPECT_EQ(a.runner->r14Area(), b.runner->r14Area());
    EXPECT_EQ(a.runner->r14AreaSize(), b.runner->r14AreaSize());
    EXPECT_EQ(a.runner->rdiArea(), b.runner->rdiArea());
    EXPECT_EQ(a.runner->rspArea(), b.runner->rspArea());
    EXPECT_EQ(a.runner->resultArea(), b.runner->resultArea());
    EXPECT_EQ(a.runner->allocator().physInUse(),
              b.runner->allocator().physInUse());
    EXPECT_EQ(a.runner->lastRunCycles(), b.runner->lastRunCycles());
}

void
expectSameRng(Rig &a, Rig &b)
{
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.machine->rng().next(), b.machine->rng().next()) << i;
}

/** Execute @p asm repeated @p repeat times straight on the machine
 *  (no runner, so ExecStats compare too), with R14 at the R14 area
 *  and the machine's own interrupt setting. */
sim::ExecStats
runRaw(Rig &rig, const std::string &asm_code, std::uint32_t repeat)
{
    std::vector<sim::Program::Segment> segments(1);
    segments[0].code = x86::assemble(asm_code);
    segments[0].repeat = repeat;
    sim::Program prog = sim::Program::decode(rig.machine->uarch(),
                                             std::move(segments));
    sim::ArchState saved = rig.machine->arch();
    rig.machine->arch().writeGpr(x86::Reg::R14, 64, rig.runner->r14Area());
    sim::ExecStats stats = rig.machine->execute(prog);
    rig.machine->arch() = saved;
    return stats;
}

/** Loads, stores and CPUID over a few pages of the R14 area. */
sim::ExecStats
mixedRaw(Rig &rig)
{
    return runRaw(rig,
                  "mov RAX, [R14]; mov [R14+192], RAX; add R14, 4160; "
                  "mov RBX, [R14]; cpuid; add RCX, RBX",
                  40);
}

/** A line-strided walk over the whole R14 area: misses in every L3
 *  set, leaders included. */
sim::ExecStats
sweepRaw(Rig &rig)
{
    return runRaw(rig, "mov RAX, [R14]; add R14, 64",
                  static_cast<std::uint32_t>(rig.runner->r14AreaSize() /
                                             64));
}

/** ~2.8M cycles of CPUIDs (each draws its latency from the RNG):
 *  longer than the timer period, so interrupts fire while they are
 *  enabled. */
sim::ExecStats
spinRaw(Rig &rig)
{
    return runRaw(rig, "cpuid", 14'000);
}

void
expectSameStats(const sim::ExecStats &a, const sim::ExecStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.uops, b.uops);
    EXPECT_EQ(a.startCycle, b.startCycle);
    EXPECT_EQ(a.endCycle, b.endCycle);
    EXPECT_EQ(a.interrupts, b.interrupts);
}

class ResetParity : public testing::TestWithParam<Scenario>
{
};

TEST_P(ResetParity, ResetEqualsConstruction)
{
    const Scenario &s = GetParam();
    Rig reset(s);
    reset.setup(s);
    for (const auto &spec : mixedSpecs(7, s.mode, s.uarch, 24))
        reset.runner->run(spec);
    mixedRaw(reset);
    sweepRaw(reset);
    ASSERT_GT(spinRaw(reset).interrupts, 0u);
    // Dirty what the work above may not: registers (runs restore
    // them), PSEL (a sweep misses in both leader groups alike), MSRs,
    // pause, the interrupt setting.
    reset.machine->arch().writeGpr(x86::Reg::RBX, 64, 0xDEAD);
    reset.machine->arch().vec[3][1] = 7;
    reset.machine->arch().cf = true;
    for (int i = 0; i < 5; ++i)
        reset.machine->caches().duelState().recordMiss(
            cache::DuelRole::LeaderA);
    reset.machine->writeMsr(sim::msr::kPrefetchControl,
                            cache::pf::kDisableL2Adjacent);
    reset.machine->pmu().setPaused(true);
    reset.machine->setInterruptsEnabled(!reset.machine->interruptsEnabled());

    reset.runner->reset();
    reset.setup(s);
    Rig built(s);
    built.setup(s);
    expectSameState(reset, built);

    auto specs = mixedSpecs(11, s.mode, s.uarch, 24);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].summary());
        EXPECT_EQ(reset.runner->run(specs[i]).toCsv(),
                  built.runner->run(specs[i]).toCsv());
        expectSameStats(mixedRaw(reset), mixedRaw(built));
        if (i == 8)
            expectSameStats(sweepRaw(reset), sweepRaw(built));
        if (i == 16)
            expectSameStats(spinRaw(reset), spinRaw(built));
        expectSameState(reset, built);
        if (HasFailure())
            return;
    }
    expectSameRng(reset, built);
}

TEST_P(ResetParity, RepeatedResetsStayExact)
{
    // Set up once, mark, and reset after every spec, as a campaign
    // worker does; each spec must see the machine a newly built and
    // set-up rig would.
    const Scenario &s = GetParam();
    Rig worker(s);
    worker.setup(s);
    worker.runner->markResetPoint();
    for (const auto &spec : mixedSpecs(23, s.mode, s.uarch, 12)) {
        SCOPED_TRACE(spec.summary());
        Rig built(s);
        built.setup(s);
        EXPECT_EQ(worker.runner->run(spec).toCsv(),
                  built.runner->run(spec).toCsv());
        expectSameState(worker, built);
        expectSameRng(worker, built);
        worker.runner->reset();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ResetParity,
    testing::Values(Scenario{"Skylake", Mode::Kernel, true},
                    Scenario{"Skylake", Mode::Kernel, false},
                    Scenario{"Skylake", Mode::User, false},
                    Scenario{"Broadwell", Mode::Kernel, true},
                    Scenario{"Broadwell", Mode::User, false}),
    scenarioName);

TEST(ResetParity, PostSetupResetPointEqualsSetUpConstruction)
{
    // Construct, set up (a 4 MB R14 area and a prefetcher-control
    // write), mark, run, reset: the rig must equal a twin that was only
    // constructed and set up -- R14 area, allocator cursor, page
    // mapping, the MSR, and every later run.
    const Scenario s{"Skylake", Mode::Kernel, false};
    constexpr Addr kArea = 4 * 1024 * 1024;
    auto setup = [&](Rig &rig) {
        ASSERT_TRUE(rig.runner->reserveR14Area(kArea));
        rig.machine->writeMsr(sim::msr::kPrefetchControl,
                              cache::pf::kDisableAll);
    };
    Rig worker(s);
    setup(worker);
    worker.runner->markResetPoint();
    for (const auto &spec : mixedSpecs(5, s.mode, s.uarch, 16))
        worker.runner->run(spec);
    mixedRaw(worker);
    sweepRaw(worker);
    worker.machine->writeMsr(sim::msr::kPrefetchControl, 0);
    worker.runner->reset();

    Rig built(s);
    setup(built);
    EXPECT_EQ(worker.runner->r14Area(), built.runner->r14Area());
    EXPECT_EQ(worker.runner->r14AreaSize(), kArea);
    EXPECT_EQ(built.runner->r14AreaSize(), kArea);
    auto wc = worker.runner->allocator().cursor();
    auto bc = built.runner->allocator().cursor();
    EXPECT_EQ(wc.nextPhys, bc.nextPhys);
    EXPECT_EQ(wc.nextVirt, bc.nextVirt);
    EXPECT_EQ(wc.fragProbability, bc.fragProbability);
    sim::PageTable &wpt = worker.machine->memory().pageTable();
    sim::PageTable &bpt = built.machine->memory().pageTable();
    ASSERT_EQ(wpt.size(), bpt.size());
    for (Addr off = 0; off < kArea; off += kPageSize) {
        Addr va = built.runner->r14Area() + off;
        ASSERT_TRUE(wpt.isMapped(va)) << off;
        EXPECT_EQ(wpt.translate(va), bpt.translate(va)) << off;
    }
    EXPECT_EQ(worker.machine->readMsr(sim::msr::kPrefetchControl),
              cache::pf::kDisableAll);
    EXPECT_EQ(built.machine->readMsr(sim::msr::kPrefetchControl),
              cache::pf::kDisableAll);
    expectSameState(worker, built);

    for (const auto &spec : mixedSpecs(9, s.mode, s.uarch, 12)) {
        SCOPED_TRACE(spec.summary());
        EXPECT_EQ(worker.runner->run(spec).toCsv(),
                  built.runner->run(spec).toCsv());
        expectSameState(worker, built);
        if (HasFailure())
            return;
    }
    expectSameRng(worker, built);
}

TEST(ResetParity, MachineAloneReturnsToConstruction)
{
    // Without a runner the reset point is construction itself: every
    // mapping is rolled back and memory reads as zero again.
    Machine machine(uarch::getMicroArch("Skylake"), 42);
    Machine built(uarch::getMicroArch("Skylake"), 42);
    auto map = [](Machine &m) {
        for (Addr page = 0; page < 8; ++page)
            m.memory().pageTable().mapPage(0x10000 + page * kPageSize,
                                           0x40000 + page * kPageSize);
    };
    map(machine);
    machine.memory().writeVirt(0x10008, 0x1234, 8);
    machine.memory().pageTable().mapPage(0x90000, 0x10000);
    machine.memory().pageTable().unmapPage(0x10000);
    sim::Program prog = sim::Program::decode(
        machine.uarch(), x86::assemble("mov RAX, [69648]; cpuid"));
    machine.execute(prog);

    machine.reset();
    EXPECT_EQ(machine.memory().pageTable().size(), 0u);
    EXPECT_EQ(machine.memory().phys().livePages(), 0u);
    EXPECT_EQ(machine.cycles(), 0u);
    map(machine);
    map(built);
    EXPECT_EQ(machine.memory().readVirt(0x10008, 8), 0u);
    sim::ExecStats a = machine.execute(prog);
    sim::ExecStats b = built.execute(prog);
    EXPECT_EQ(a.endCycle, b.endCycle);
    EXPECT_EQ(machine.arch().gpr, built.arch().gpr);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(machine.rng().next(), built.rng().next());
}

} // namespace
} // namespace nb
