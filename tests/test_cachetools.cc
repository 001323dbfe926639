/**
 * @file
 * Tests for the cache-characterization tools (§VI-C): cacheSeq, the two
 * policy-inference tools, age graphs, and the TLB tool. The planned
 * set-dueling scan is covered end to end in test_profile.
 */

#include <gtest/gtest.h>

#include <cmath>

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
    PolicySim sim("LRU", 2, &rng);
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
        PolicySim reference("PLRU", 8, &rng);
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
        PolicySim reference("QLRU_H00_M1_R2_U1", 4, &rng);
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
    // The constructor's range checks apply to retargeting too: an
    // out-of-range set would alias another set.
    unsigned sets = session.machine().caches().l3Slice(0).numSets();
    EXPECT_THROW(cs.setTarget(sets, 0), FatalError);
}

// ------------------------------------------------------- inference --
//
// The sim-policy tests plan against a Skylake L1 target and decode the
// outcomes a machine running the policy would produce instead of
// running the specs; the hardware tests run the plans on the session.

/** A target to plan against; its specs are never run. */
struct Planner
{
    Session session = makeSession();
    CacheSeq cs{session, CacheSeqOptions{CacheLevel::L1}};
};

/** Outcomes of @p plan on a set running @p policy: one result per spec,
 *  holding the level's hit-event line with the PolicySim hit count of
 *  the spec's sequence. */
std::vector<RunOutcome>
simulatedOutcomes(const SeqPlan &plan, const std::string &policy,
                  unsigned assoc)
{
    Rng rng(1);
    std::size_t specs_per_seq = plan.specs.size() / plan.sequences.size();
    std::vector<RunOutcome> outcomes;
    for (const auto &seq : plan.sequences) {
        core::BenchmarkResult result;
        result.lines.push_back({CacheSeq::hitEventName(plan.level),
                                simulatedHits(policy, assoc, seq, &rng)});
        for (std::size_t c = 0; c < specs_per_seq; ++c)
            outcomes.emplace_back(result);
    }
    return outcomes;
}

TEST(Infer, AssociativityOnSimulatedPolicies)
{
    Planner planner;
    auto plan = planAssociativity(planner.cs);
    for (unsigned assoc : {4u, 8u, 16u}) {
        EXPECT_EQ(decodeAssociativity(
                      plan, simulatedOutcomes(plan, "LRU", assoc))
                      .assoc,
                  assoc);
    }
    EXPECT_EQ(
        decodeAssociativity(plan, simulatedOutcomes(plan, "PLRU", 8))
            .assoc,
        8u);
}

TEST(Infer, AssociativityOnHardware)
{
    auto session = makeSession();
    CacheSeqOptions co;
    co.level = CacheLevel::L1;
    co.set = 12;
    CacheSeq cs(session, co);
    auto plan = planAssociativity(cs);
    auto result = decodeAssociativity(plan, session.runBatch(plan.specs));
    EXPECT_EQ(result.assoc, 8u);
    EXPECT_TRUE(result.error.empty());
}

// ----------------------------------------- permutation-policy inference

TEST(Infer, PermutationIdentifiesReferencePolicies)
{
    Planner planner;
    auto plan = planPermutation(planner.cs, 4);
    for (const char *name : {"LRU", "FIFO", "PLRU"}) {
        auto id =
            decodePermutation(plan, simulatedOutcomes(plan, name, 4));
        ASSERT_TRUE(id.has_value()) << name;
        EXPECT_EQ(*id, name);
    }
}

TEST(Infer, PermutationRejectsNonPermutationPolicy)
{
    Planner planner;
    auto plan = planPermutation(planner.cs, 4);
    EXPECT_FALSE(decodePermutation(
                     plan, simulatedOutcomes(plan, "QLRU_H11_M1_R0_U0", 4))
                     .has_value());
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
    auto plan = planPermutation(cs, 8);
    auto id = decodePermutation(plan, session.runBatch(plan.specs));
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(*id, "PLRU");
}

TEST(Infer, FailedSpecsDegradeDecodes)
{
    Planner planner;
    RunError failure{RunError::Code::InvalidSpec, "sabotaged"};

    auto perm = planPermutation(planner.cs, 4);
    auto perm_outcomes = simulatedOutcomes(perm, "LRU", 4);
    perm_outcomes.back() = failure;
    EXPECT_FALSE(decodePermutation(perm, perm_outcomes).has_value());

    auto ages = planAgeGraph(planner.cs, 2, 4, 2);
    auto age_outcomes = simulatedOutcomes(ages, "LRU", 4);
    age_outcomes[1] = failure; // B0 after 2 fresh blocks
    auto graph = decodeAgeGraph(ages, age_outcomes);
    EXPECT_TRUE(std::isnan(graph.hitRate[0][1]));
    EXPECT_DOUBLE_EQ(graph.hitRate[0][0], 1.0);
}

// -------------------------------------- random-sequence identification

TEST(Infer, RandomSequencesIdentifySimPolicies)
{
    Planner planner;
    Rng id_rng(6);
    auto plan = planPolicyId(planner.cs, 4, id_rng, 120);
    for (const char *name :
         {"LRU", "FIFO", "MRU", "QLRU_H00_M1_R2_U1"}) {
        auto id = decodePolicyId(plan, simulatedOutcomes(plan, name, 4));
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
    Rng rng(11);
    auto plan = planPolicyId(cs, 4, rng, 100);
    auto id = decodePolicyId(plan, session.runBatch(plan.specs));
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
    Rng rng(13);
    auto plan = planPolicyId(cs, 16, rng, 60);
    auto id = decodePolicyId(plan, session.runBatch(plan.specs));
    ASSERT_EQ(id.matches.size(), 1u);
    EXPECT_EQ(id.matches[0], "MRU");
}

TEST(Infer, ProbabilisticPolicyDetectedAsNondeterministic)
{
    // §VI-D: the IvB leader sets 768-831 use probabilistic insertion;
    // the random-sequence tool cannot identify them (age graphs can).
    // The Min/Max spec pair of the plan is the determinism check.
    auto session = makeSession("IvyBridge");
    CacheSeqOptions co;
    co.level = CacheLevel::L3;
    co.set = 800;
    co.cbox = 0;
    CacheSeq cs(session, co);
    Rng rng(17);
    auto plan = planPolicyId(cs, 12, rng, 40);
    auto id = decodePolicyId(plan, session.runBatch(plan.specs));
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
    Planner planner;
    auto plan = planAgeGraph(planner.cs, 4, 4, 1);
    auto graph = decodeAgeGraph(plan, simulatedOutcomes(plan, "LRU", 4));
    // Under LRU, B0 is the oldest of the 4 fills and dies first: block
    // Bb survives n fresh blocks iff n <= b.
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
    Planner planner;
    auto plan = planAgeGraph(planner.cs, 2, 4, 2);
    auto csv =
        decodeAgeGraph(plan, simulatedOutcomes(plan, "LRU", 4)).toCsv();
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
    auto plan = planAgeGraph(cs, 2, 48, 16);
    auto graph = decodeAgeGraph(plan, session.runBatch(plan.specs));
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
