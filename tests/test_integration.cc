/**
 * @file
 * Cross-module integration tests: full paper-experiment slices run end
 * to end on small configurations.
 */

#include <gtest/gtest.h>

#include "cachetools/cacheseq.hh"
#include "cachetools/infer.hh"
#include "core/engine.hh"
#include "core/module.hh"
#include "uops/characterize.hh"
#include "x86/assembler.hh"

namespace nb
{
namespace
{

using namespace core;
using namespace cachetools;

TEST(Integration, TableOneRowSkylake)
{
    // One full Table I row, produced exactly as the bench does it.
    Engine engine;
    SessionOptions opt;
    opt.uarch = "Skylake";
    opt.mode = Mode::Kernel;
    Session session = engine.session(opt);

    // L1: permutation tool.
    {
        CacheSeqOptions co;
        co.level = CacheLevel::L1;
        co.set = 9;
        CacheSeq cs(session, co);
        auto plan = planPermutation(cs, 8);
        EXPECT_EQ(decodePermutation(plan, session.runBatch(plan.specs))
                      .value_or("?"),
                  "PLRU");
    }
    // L2: random-sequence tool.
    {
        CacheSeqOptions co;
        co.level = CacheLevel::L2;
        co.set = 700;
        CacheSeq cs(session, co);
        Rng rng(2);
        auto plan = planPolicyId(cs, 4, rng, 90);
        auto id = decodePolicyId(plan, session.runBatch(plan.specs));
        ASSERT_EQ(id.matches.size(), 1u);
        EXPECT_EQ(id.matches[0], "QLRU_H00_M1_R2_U1");
    }
    // L3: random-sequence tool; the paper-reported name must be among
    // the (observationally equivalent) matches.
    {
        CacheSeqOptions co;
        co.level = CacheLevel::L3;
        co.set = 1234;
        co.cbox = 0;
        CacheSeq cs(session, co);
        Rng rng(3);
        auto plan = planPolicyId(cs, 16, rng, 70);
        auto id = decodePolicyId(plan, session.runBatch(plan.specs));
        EXPECT_TRUE(id.deterministic);
        EXPECT_NE(std::find(id.matches.begin(), id.matches.end(),
                            std::string("QLRU_H11_M1_R0_U0")),
                  id.matches.end());
    }
}

TEST(Integration, KernelFasterThanUserOnSameWork)
{
    // §III-K shape: the kernel version evaluates the same benchmark
    // with less total work than the user-space version.
    BenchmarkSpec spec;
    spec.asmCode = "nop";
    spec.unrollCount = 100;
    spec.nMeasurements = 10;
    spec.warmUpCount = 0;
    spec.config = CounterConfig::parseString(
        "0E.01 UOPS_ISSUED.ANY\nA1.01 P0\nA1.02 P1\nA1.04 P2\n");

    Engine engine;
    SessionOptions kopt;
    kopt.mode = Mode::Kernel;
    Session kernel = engine.session(kopt);
    Cycles kernel_cycles = kernel.runOrThrow(spec).lastRunCycles;

    SessionOptions uopt;
    uopt.mode = Mode::User;
    Session user = engine.session(uopt);
    Cycles user_cycles = user.runOrThrow(spec).lastRunCycles;

    EXPECT_LT(kernel_cycles, user_cycles);
}

TEST(Integration, SerializationComparison)
{
    // §IV-A1: LFENCE-based measurements are stable; unfenced and
    // CPUID-fenced ones show more variance.
    auto run_stddev = [](SerializeMode mode) {
        Engine engine;
        SessionOptions opt;
        opt.mode = Mode::Kernel;
        Session session = engine.session(opt);
        BenchmarkSpec spec;
        spec.asmCode = "imul RAX, RAX";
        spec.unrollCount = 20;
        spec.serialize = mode;
        spec.warmUpCount = 1;
        auto outcomes = session.runBatch(
            std::vector<BenchmarkSpec>(8, spec));
        std::vector<double> values;
        for (const auto &outcome : outcomes)
            values.push_back(outcome.resultOrThrow()["Core cycles"]);
        return stddev(values);
    };
    double sd_lfence = run_stddev(SerializeMode::Lfence);
    double sd_cpuid = run_stddev(SerializeMode::Cpuid);
    EXPECT_LT(sd_lfence, 0.05);
    EXPECT_GT(sd_cpuid, sd_lfence);
}

TEST(Integration, ModuleDrivesCacheExperiment)
{
    // Drive a §VI-style experiment purely through the kernel module's
    // virtual files, with magic markers in the code (§III-I).
    sim::Machine machine(uarch::getMicroArch("Skylake"), 42);
    NanoBenchModule module(machine);
    module.writeFile("/sys/nb/no_mem", "1");
    module.writeFile("/sys/nb/fixed_counters", "0");
    module.writeFile("/sys/nb/basic_mode", "1");
    module.writeFile("/sys/nb/unroll_count", "1");
    module.writeFile("/sys/nb/config",
                     "D1.01 MEM_LOAD_RETIRED.L1_HIT\n"
                     "D1.08 MEM_LOAD_RETIRED.L1_MISS\n");
    // Two misses outside the measurement, one measured hit.
    module.writeFile("/sys/nb/code",
                     "pfc_pause; mov RBX, [R14]; mov RBX, [R14+64]; "
                     "pfc_resume; mov RBX, [R14]");
    auto out = module.readFile("/proc/nanoBench");
    EXPECT_NE(out.find("MEM_LOAD_RETIRED.L1_HIT: 1.00"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("MEM_LOAD_RETIRED.L1_MISS: 0.00"),
              std::string::npos)
        << out;
}

TEST(Integration, UopsOnAllMicroarchitectures)
{
    // The characterizer runs on every modelled CPU (incl. AMD Zen,
    // which has no fixed counters but six programmable ones).
    Engine engine;
    for (const auto &name : {"Nehalem", "Haswell", "Skylake", "Zen"}) {
        SessionOptions opt;
        opt.uarch = name;
        opt.mode = Mode::Kernel;
        Session session = engine.session(opt);
        uops::Characterizer tool(session);
        auto r = tool.characterize(x86::assemble("add RAX, RBX")[0]);
        ASSERT_TRUE(r.latency.has_value()) << name;
        EXPECT_NEAR(*r.latency, 1.0, 0.1) << name;
    }
}

TEST(Integration, AdaptiveFollowerTracksDuel)
{
    // End-to-end: follower sets on IvyBridge change observable hit
    // counts when the duel flips (the mechanism behind §VI-C3).
    Engine engine;
    SessionOptions opt;
    opt.uarch = "IvyBridge";
    opt.mode = Mode::Kernel;
    Session session = engine.session(opt);
    auto &duel = session.machine().caches().duelState();

    CacheSeqOptions co;
    co.level = CacheLevel::L3;
    co.set = 100; // follower
    co.cbox = 0;
    co.repetitions = 4;
    CacheSeq cs(session, co);

    // A thrash-with-reuse sequence distinguishes M1 from MR161.
    auto seq = parseAccessSeq("<wbinvd> B0 B1 B2 B3 B4 B5 B6 B7 B8 B9 "
                              "B10 B11 B12 B0 B1 B2 B3 B4 B5 B6 B7 B8 "
                              "B9 B10 B11 B12");
    // Saturate towards A, then towards B, via direct leader misses.
    for (int i = 0; i < 2000; ++i)
        duel.recordMiss(cache::DuelRole::LeaderB);
    double hits_a_state = cs.run(seq);
    for (int i = 0; i < 2000; ++i)
        duel.recordMiss(cache::DuelRole::LeaderA);
    double hits_b_state = cs.run(seq);
    EXPECT_NE(hits_a_state, hits_b_state);
}

} // namespace
} // namespace nb
