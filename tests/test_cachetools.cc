/**
 * @file
 * Tests for the cache-characterization tools (§VI-C): cacheSeq, the two
 * policy-inference tools, age graphs, and the TLB tool. The planned
 * set-dueling scan is covered end to end in test_profile.
 */

#include <gtest/gtest.h>

#include "cachetools/cacheseq.hh"
#include "cachetools/infer.hh"
#include "cachetools/tlbtool.hh"
#include "core/engine.hh"

namespace nb::cachetools
{
namespace
{

Session
makeSession(const std::string &uarch = "Skylake",
            core::Mode mode = core::Mode::Kernel)
{
    Engine engine;
    SessionOptions opt;
    opt.uarch = uarch;
    opt.mode = mode;
    return engine.session(opt);
}

TEST(AccessSeq, ParseAndPrint)
{
    auto seq = parseAccessSeq("<wbinvd> B0 B1 B0? A");
    ASSERT_EQ(seq.size(), 5u);
    EXPECT_TRUE(seq[0].wbinvd);
    EXPECT_EQ(seq[1].block, 0);
    EXPECT_TRUE(seq[1].measured);
    EXPECT_EQ(seq[3].block, 0);
    EXPECT_FALSE(seq[3].measured);
    EXPECT_EQ(seq[4].block, 2); // "A" is the third distinct name
    EXPECT_EQ(accessSeqToString(seq), "<wbinvd> B0 B1 B0? B2");
}

TEST(PolicySim, TraceMatchesExpectation)
{
    Rng rng(1);
    PolicySim sim(cache::makePolicy("LRU", 2, &rng));
    std::string trace;
    for (const auto &acc : parseAccessSeq("<wbinvd> B0 B1 B0 B2 B1")) {
        if (acc.wbinvd)
            sim.flush();
        else
            trace += sim.access(acc.block) ? 'H' : 'M';
    }
    // B0 miss, B1 miss, B0 hit, B2 miss (evicts B1), B1 miss.
    EXPECT_EQ(trace, "MMHMM");
}

// ---------------------------------------------------------- cacheSeq --

TEST(CacheSeq, RequiresKernelMode)
{
    auto session = makeSession("Skylake", core::Mode::User);
    CacheSeqOptions co;
    EXPECT_THROW(CacheSeq(session, co), FatalError);
}

TEST(CacheSeq, RefusesAmdWithoutPrefetchControl)
{
    // §VI-D: "We did not consider recent AMD CPUs ... as we could not
    // find a way to disable their cache prefetchers."
    auto session = makeSession("Zen");
    CacheSeqOptions co;
    EXPECT_THROW(CacheSeq(session, co), FatalError);
}

TEST(CacheSeq, L1HitsMatchPolicySimulation)
{
    auto session = makeSession();
    CacheSeqOptions co;
    co.level = CacheLevel::L1;
    co.set = 3;
    CacheSeq cs(session, co);

    Rng rng(1);
    Rng seq_rng(2);
    for (int trial = 0; trial < 5; ++trial) {
        std::vector<SeqAccess> seq;
        seq.push_back({-1, false, true});
        for (int k = 0; k < 30; ++k)
            seq.push_back({static_cast<int>(seq_rng.nextBelow(11)), true,
                           false});
        PolicySim reference(cache::makePolicy("PLRU", 8, &rng));
        EXPECT_DOUBLE_EQ(cs.run(seq),
                         static_cast<double>(
                             reference.runSequence(seq)))
            << accessSeqToString(seq);
    }
}

TEST(CacheSeq, L2HitsMatchPolicySimulation)
{
    auto session = makeSession(); // Skylake L2: QLRU_H00_M1_R2_U1, 4-way
    CacheSeqOptions co;
    co.level = CacheLevel::L2;
    co.set = 99;
    CacheSeq cs(session, co);
    Rng rng(1);
    Rng seq_rng(7);
    for (int trial = 0; trial < 4; ++trial) {
        std::vector<SeqAccess> seq;
        seq.push_back({-1, false, true});
        for (int k = 0; k < 16; ++k)
            seq.push_back({static_cast<int>(seq_rng.nextBelow(6)), true,
                           false});
        PolicySim reference(
            cache::makePolicy("QLRU_H00_M1_R2_U1", 4, &rng));
        EXPECT_DOUBLE_EQ(cs.run(seq),
                         static_cast<double>(reference.runSequence(seq)))
            << accessSeqToString(seq);
    }
}

TEST(CacheSeq, L3TargetsChosenCbox)
{
    auto session = makeSession();
    CacheSeqOptions co;
    co.level = CacheLevel::L3;
    co.set = 42;
    co.cbox = 1;
    CacheSeq cs(session, co);
    auto &machine = session.machine();
    auto lookups_before = machine.caches().cboxStats(1).lookups;
    cs.run("<wbinvd> B0 B1 B2 B0");
    EXPECT_GT(machine.caches().cboxStats(1).lookups, lookups_before);
    // All blocks map to the requested set and slice.
    for (int b = 0; b < 3; ++b) {
        Addr paddr = machine.memory().translate(cs.blockVaddr(b));
        EXPECT_EQ(machine.caches().sliceOf(paddr), 1u);
        EXPECT_EQ(machine.caches().l3Slice(1).setIndex(paddr), 42u);
    }
}

TEST(CacheSeq, HitMissPartition)
{
    auto session = makeSession();
    CacheSeqOptions co;
    co.level = CacheLevel::L3;
    co.set = 17;
    CacheSeq cs(session, co);
    // All measured accesses reach the L3 and partition into hits and
    // misses.
    auto hm = cs.runHitMiss(parseAccessSeq(
        "<wbinvd> B0 B1 B2 B3 B0 B1 B2 B3"));
    EXPECT_DOUBLE_EQ(hm.hits + hm.misses, 8.0);
    EXPECT_DOUBLE_EQ(hm.misses, 4.0);
}

TEST(CacheSeq, UnmeasuredAccessesExcluded)
{
    auto session = makeSession();
    CacheSeqOptions co;
    co.level = CacheLevel::L3;
    co.set = 17;
    CacheSeq cs(session, co);
    auto hm = cs.runHitMiss(parseAccessSeq("<wbinvd> B0? B1? B0"));
    EXPECT_DOUBLE_EQ(hm.hits + hm.misses, 1.0);
    EXPECT_DOUBLE_EQ(hm.hits, 1.0);
}

TEST(CacheSeq, Retargeting)
{
    auto session = makeSession();
    CacheSeqOptions co;
    co.level = CacheLevel::L3;
    co.set = 10;
    co.cbox = 0;
    CacheSeq cs(session, co);
    cs.run("<wbinvd> B0 B1");
    cs.setTarget(20, 1);
    cs.run("<wbinvd> B0 B1");
    Addr paddr = session.machine().memory().translate(cs.blockVaddr(0));
    EXPECT_EQ(session.machine().caches().sliceOf(paddr), 1u);
    EXPECT_EQ(session.machine().caches().l3Slice(1).setIndex(paddr), 20u);
}

// ----------------------------------------------------- assoc inference

TEST(Infer, AssociativityOnSimulatedPolicies)
{
    Rng rng(1);
    for (unsigned assoc : {4u, 8u, 16u}) {
        SimSetProbe probe("LRU", assoc, &rng);
        EXPECT_EQ(inferAssociativity(probe), assoc);
    }
    SimSetProbe plru("PLRU", 8, &rng);
    EXPECT_EQ(inferAssociativity(plru), 8u);
}

TEST(Infer, AssociativityOnHardware)
{
    auto session = makeSession();
    CacheSeqOptions co;
    co.level = CacheLevel::L1;
    co.set = 12;
    CacheSeq cs(session, co);
    HardwareSetProbe probe(cs, 8);
    EXPECT_EQ(inferAssociativity(probe), 8u);
}

// ----------------------------------------- permutation-policy inference

TEST(Infer, PermutationIdentifiesReferencePolicies)
{
    Rng rng(1);
    for (const char *name : {"LRU", "FIFO", "PLRU"}) {
        SimSetProbe probe(name, 4, &rng);
        auto id = identifyPermutationPolicy(probe, &rng);
        ASSERT_TRUE(id.has_value()) << name;
        EXPECT_EQ(*id, name);
    }
}

TEST(Infer, PermutationRejectsNonPermutationPolicy)
{
    Rng rng(1);
    SimSetProbe probe("QLRU_H11_M1_R0_U0", 4, &rng);
    EXPECT_FALSE(identifyPermutationPolicy(probe, &rng).has_value());
}

TEST(Infer, PermutationIdentifiesL1PlruOnHardware)
{
    // Table I: every CPU's L1 uses PLRU; found via the first tool
    // (§VI-C1).
    auto session = makeSession();
    CacheSeqOptions co;
    co.level = CacheLevel::L1;
    co.set = 7;
    CacheSeq cs(session, co);
    HardwareSetProbe probe(cs, 8);
    Rng rng(3);
    auto id = identifyPermutationPolicy(probe, &rng);
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(*id, "PLRU");
}

// -------------------------------------- random-sequence identification

TEST(Infer, RandomSequencesIdentifySimPolicies)
{
    Rng rng(5);
    for (const char *name :
         {"LRU", "FIFO", "MRU", "QLRU_H00_M1_R2_U1"}) {
        SimSetProbe probe(name, 4, &rng);
        Rng id_rng(6);
        auto id = identifyPolicy(probe, id_rng, 120);
        EXPECT_TRUE(id.deterministic) << name;
        ASSERT_FALSE(id.matches.empty()) << name;
        EXPECT_NE(std::find(id.matches.begin(), id.matches.end(),
                            std::string(name)),
                  id.matches.end())
            << name;
    }
}

TEST(Infer, SkylakeL2PolicyUniquelyIdentified)
{
    // Table I row: Skylake L2 = QLRU_H00_M1_R2_U1.
    auto session = makeSession();
    CacheSeqOptions co;
    co.level = CacheLevel::L2;
    co.set = 33;
    CacheSeq cs(session, co);
    HardwareSetProbe probe(cs, 4);
    Rng rng(11);
    auto id = identifyPolicy(probe, rng, 100);
    EXPECT_TRUE(id.deterministic);
    ASSERT_EQ(id.matches.size(), 1u);
    EXPECT_EQ(id.matches[0], "QLRU_H00_M1_R2_U1");
}

TEST(Infer, NehalemL3IsMru)
{
    auto session = makeSession("Nehalem");
    CacheSeqOptions co;
    co.level = CacheLevel::L3;
    co.set = 21;
    CacheSeq cs(session, co);
    HardwareSetProbe probe(cs, 16);
    Rng rng(13);
    auto id = identifyPolicy(probe, rng, 60);
    ASSERT_EQ(id.matches.size(), 1u);
    EXPECT_EQ(id.matches[0], "MRU");
}

TEST(Infer, ProbabilisticPolicyDetectedAsNondeterministic)
{
    // §VI-D: the IvB leader sets 768-831 use probabilistic insertion;
    // the random-sequence tool cannot identify them (age graphs can).
    auto session = makeSession("IvyBridge");
    CacheSeqOptions co;
    co.level = CacheLevel::L3;
    co.set = 800;
    co.cbox = 0;
    CacheSeq cs(session, co);
    HardwareSetProbe probe(cs, 12);
    Rng rng(17);
    auto id = identifyPolicy(probe, rng, 40);
    EXPECT_FALSE(id.deterministic);
    EXPECT_TRUE(id.matches.empty());
}

TEST(Infer, CandidateListContainsTableOnePolicies)
{
    auto names = candidatePolicyNames(16);
    for (const char *required :
         {"LRU", "FIFO", "MRU", "MRU_SBV", "PLRU", "QLRU_H11_M1_R0_U0",
          "QLRU_H00_M1_R2_U1", "QLRU_H00_M1_R0_U1"}) {
        EXPECT_NE(std::find(names.begin(), names.end(),
                            std::string(required)),
                  names.end())
            << required;
    }
}

// -------------------------------------------------------- age graphs --

TEST(AgeGraph, LruStaircaseOnSim)
{
    Rng rng(1);
    SimSetProbe probe("LRU", 4, &rng);
    auto graph = computeAgeGraph(probe, 4, 4, 1);
    // Under LRU, block Bi (i-th of 4 fills) survives exactly
    // (4 - 1 - i) ... check the eviction boundary: B0 dies after 1
    // fresh block... B0 is the oldest: dies first.
    // hitRate[b][n] for n fresh blocks: survives iff n + (4 - b) <= 4.
    for (unsigned b = 0; b < 4; ++b) {
        for (std::size_t p = 0; p < graph.freshCounts.size(); ++p) {
            unsigned n = graph.freshCounts[p];
            double expected = n <= b ? 1.0 : 0.0;
            EXPECT_DOUBLE_EQ(graph.hitRate[b][p], expected)
                << "B" << b << " n=" << n;
        }
    }
}

TEST(AgeGraph, CsvShape)
{
    Rng rng(1);
    SimSetProbe probe("LRU", 4, &rng);
    auto graph = computeAgeGraph(probe, 2, 4, 2);
    auto csv = graph.toCsv();
    EXPECT_NE(csv.find("fresh,B0,B1"), std::string::npos);
    EXPECT_NE(csv.find("\n0,"), std::string::npos);
    EXPECT_NE(csv.find("\n4,"), std::string::npos);
}

TEST(AgeGraph, IvyBridgeProbabilisticSets)
{
    // The Figure 1 shape on the real (simulated) machine: in sets
    // 768-831, B0 is mostly gone after ~16 fresh blocks but a ~1/16
    // fraction survives much longer (§VI-D).
    auto session = makeSession("IvyBridge");
    CacheSeqOptions co;
    co.level = CacheLevel::L3;
    co.set = 800;
    co.cbox = 0;
    co.repetitions = 16;
    CacheSeq cs(session, co);
    HardwareSetProbe probe(cs, 12);
    auto graph = computeAgeGraph(probe, 2, 48, 16);
    // n=0: everything hits.
    EXPECT_NEAR(graph.hitRate[0][0], 1.0, 0.01);
    // B0 after 16 fresh blocks: mostly evicted.
    EXPECT_LT(graph.hitRate[0][1], 0.45);
    // ...but clearly more often alive than under a deterministic
    // policy with age-3 insertion would allow at n=48.
    double late_survival = graph.hitRate[0][2] + graph.hitRate[0][3];
    EXPECT_GT(late_survival, 0.0);
}

// -------------------------------------------------------------- TLB --

TEST(TlbTool, RecoversCapacitiesAndPenalties)
{
    auto session = makeSession();
    // Search bounded at 2048 pages for test speed: the DTLB boundary
    // (64) is inside the range, the STLB boundary (1536) is too.
    auto tlb = measureTlb(session, 2048);
    EXPECT_NEAR(tlb.dtlbEntries, 64, 2);
    EXPECT_NEAR(tlb.stlbEntries, 1536, 8);
    EXPECT_NEAR(tlb.stlbPenalty,
                session.machine().tlb().config().stlbLatency, 1.0);
    EXPECT_NEAR(tlb.walkPenalty,
                session.machine().tlb().config().walkLatency, 2.0);
}

TEST(TlbTool, RequiresKernelMode)
{
    Engine engine;
    SessionOptions opt;
    opt.mode = core::Mode::User;
    auto session = engine.session(opt);
    EXPECT_THROW(measureTlb(session, 128), FatalError);
}

} // namespace
} // namespace nb::cachetools
