/**
 * @file
 * Tests for the replacement-policy framework (§VI-B): behaviour of each
 * policy, the QLRU naming scheme, and cross-policy property tests.
 */

#include <gtest/gtest.h>

#include "cache/policy.hh"
#include "cachetools/policy_sim.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace nb::cache
{
namespace
{

using cachetools::PolicySim;
using cachetools::parseAccessSeq;

Rng &
testRng()
{
    static Rng rng(2024);
    return rng;
}

PolicySim
makeSim(const std::string &name, unsigned assoc = 4)
{
    return PolicySim(name, assoc, &testRng());
}

/** A one-set replacement engine, reset and ready. */
Replacement
oneSet(const std::string &name, unsigned assoc, Rng *rng)
{
    Replacement policy(name, assoc, 1, rng);
    policy.reset(0);
    return policy;
}

/** QLRU age of @p way in a one-set engine. */
unsigned
ageOf(const Replacement &policy, unsigned way)
{
    return static_cast<unsigned>(policy.state(0)[way] - '0');
}

// ------------------------------------------------------- way masks --

TEST(WayMask, HelpersFindEmptyWays)
{
    EXPECT_EQ(fullMask(1), 0x1u);
    EXPECT_EQ(fullMask(4), 0xFu);
    EXPECT_EQ(fullMask(64), ~WayMask{0});
    EXPECT_EQ(leftmostEmpty(0, 4), 0u);
    EXPECT_EQ(rightmostEmpty(0, 4), 3u);
    EXPECT_EQ(leftmostEmpty(0b1011, 4), 2u);
    EXPECT_EQ(rightmostEmpty(0b0111, 4), 3u);
    EXPECT_EQ(rightmostEmpty(0b1101, 4), 1u);
    EXPECT_FALSE(leftmostEmpty(0xF, 4).has_value());
    EXPECT_FALSE(rightmostEmpty(0xF, 4).has_value());
    EXPECT_TRUE(isFull(0xF, 4));
    EXPECT_FALSE(isFull(0x7, 4));
    WayMask all_but_top = ~WayMask{0} >> 1;
    EXPECT_EQ(leftmostEmpty(all_but_top, 64), 63u);
    EXPECT_EQ(rightmostEmpty(all_but_top, 64), 63u);
    EXPECT_EQ(rightmostEmpty(~WayMask{1}, 64), 0u);
    EXPECT_TRUE(isFull(~WayMask{0}, 64));
}

TEST(WayMask, ReplacementRejectsAssocOutsideMask)
{
    // Associativities reach PolicySim from measurements (infer,
    // dueling scans), so an unrepresentable one is a typed fatal.
    for (const char *name : {"LRU", "PLRU", "MRU", "QLRU_H11_M1_R0_U0"}) {
        EXPECT_THROW(Replacement(name, 0, 1, &testRng()), FatalError)
            << name;
        EXPECT_EQ(Replacement(name, 64, 1, &testRng()).assoc(), 64u)
            << name;
        EXPECT_THROW(Replacement(name, 65, 1, &testRng()), FatalError)
            << name;
        EXPECT_THROW(PolicySim(name, 65, &testRng()), FatalError) << name;
    }
}

TEST(WayMask, SixtyFourWaysFillAndEvict)
{
    // Way 63 is the mask's top bit: every policy fills all 64 ways
    // before it replaces one.
    for (const char *name : {"LRU", "FIFO", "PLRU", "MRU", "MRU_SBV",
                             "QLRU_H11_M1_R2_U1"}) {
        PolicySim sim = makeSim(name, 64);
        for (int b = 0; b < 64; ++b)
            EXPECT_FALSE(sim.access(b)) << name;
        for (int b = 0; b < 64; ++b)
            EXPECT_TRUE(sim.access(b)) << name << " block " << b;
        EXPECT_FALSE(sim.access(64)) << name;
    }
}

// ------------------------------------------------------------- LRU --

TEST(Lru, EvictsLeastRecentlyUsed)
{
    auto sim = makeSim("LRU");
    for (int b = 0; b < 4; ++b)
        sim.access(b);
    sim.access(0);       // 0 is now MRU; 1 is LRU
    sim.access(4);       // evicts 1
    EXPECT_TRUE(sim.access(0));
    EXPECT_FALSE(sim.access(1));
}

TEST(Lru, SequenceHits)
{
    auto sim = makeSim("LRU");
    // <wbinvd> 0 1 2 3 0 1 2 3 -> all hits in the second round.
    EXPECT_EQ(sim.runSequence(
                  parseAccessSeq("<wbinvd> B0? B1? B2? B3? B0 B1 B2 B3")),
              4u);
}

TEST(Lru, ThrashingPattern)
{
    auto sim = makeSim("LRU");
    // Cyclic pattern over assoc+1 blocks: LRU gets zero hits.
    unsigned hits = 0;
    for (int round = 0; round < 4; ++round)
        for (int b = 0; b < 5; ++b)
            hits += sim.access(b) ? 1 : 0;
    EXPECT_EQ(hits, 0u);
}

// ------------------------------------------------------------ FIFO --

TEST(Fifo, HitsDoNotRefresh)
{
    auto sim = makeSim("FIFO");
    for (int b = 0; b < 4; ++b)
        sim.access(b);
    sim.access(0); // hit; does NOT move 0 away from the head
    sim.access(4); // evicts 0 (oldest insertion)
    EXPECT_FALSE(sim.access(0));
}

TEST(Fifo, DiffersFromLru)
{
    auto seq = parseAccessSeq("<wbinvd> B0 B1 B2 B3 B0 B4 B0");
    auto lru = makeSim("LRU");
    auto fifo = makeSim("FIFO");
    EXPECT_NE(lru.runSequence(seq), fifo.runSequence(seq));
}

// ------------------------------------------------------------ PLRU --

TEST(Plru, RequiresPowerOfTwo)
{
    EXPECT_THROW(Replacement("PLRU", 12, 1, &testRng()), PanicError);
}

TEST(Plru, MissStreamCyclesAllWays)
{
    // Consecutive misses must visit every way within assoc misses: the
    // second 8-miss stream replaces each way once, so none of its
    // blocks evicts another one of the stream.
    auto sim = makeSim("PLRU", 8);
    for (int b = 0; b < 8; ++b)
        sim.access(b);
    for (int b = 8; b < 16; ++b)
        EXPECT_FALSE(sim.access(b)) << "block " << b;
    for (int b = 8; b < 16; ++b)
        EXPECT_TRUE(sim.access(b)) << "block " << b << " was evicted";
    auto sim2 = makeSim("PLRU", 8);
    for (int b = 0; b < 8; ++b)
        sim2.access(b);
    for (int b = 8; b < 16; ++b)
        sim2.access(b);
    for (int b = 0; b < 8; ++b)
        EXPECT_FALSE(sim2.access(b)) << "block " << b << " survived";
}

TEST(Plru, ProtectsRecentlyTouchedPath)
{
    auto sim = makeSim("PLRU", 4);
    for (int b = 0; b < 4; ++b)
        sim.access(b);
    sim.access(0);
    sim.access(4); // one miss: must not evict 0 (just touched)
    EXPECT_TRUE(sim.access(0));
}

// ------------------------------------------------------------- MRU --

TEST(Mru, PaperSemantics)
{
    // §VI-B2: access clears the line's bit; when the last set bit is
    // cleared all other bits are set; a miss replaces the leftmost line
    // whose bit is set.
    auto policy = oneSet("MRU", 4, &testRng());
    WayMask valid = 0;
    // Fill ways 0..3.
    for (unsigned w = 0; w < 4; ++w) {
        EXPECT_EQ(policy.insertWay(0, valid), w);
        valid |= WayMask{1} << w;
        policy.onInsert(0, w, valid);
    }
    // bits: 0 -> last-set rule fired at way 3: bits = 1110 with way3=0.
    EXPECT_EQ(policy.state(0), "1110");
    // Miss: replace leftmost set bit = way 0.
    EXPECT_EQ(policy.insertWay(0, valid), 0u);
}

TEST(Mru, SandyBridgeVariantSetsAllBitsWhileFilling)
{
    auto policy = oneSet("MRU_SBV", 4, &testRng());
    WayMask valid = 0;
    for (unsigned w = 0; w < 3; ++w) {
        policy.insertWay(0, valid);
        valid |= WayMask{1} << w;
        policy.onInsert(0, w, valid);
        // Not yet full: all bits stay set (Table I footnote).
        EXPECT_EQ(policy.state(0), "1111");
    }
}

TEST(Mru, VariantsAreDistinguishable)
{
    // At least one sequence separates MRU from MRU_SBV.
    Rng rng(5);
    bool differ = false;
    for (int trial = 0; trial < 50 && !differ; ++trial) {
        std::vector<cachetools::SeqAccess> seq;
        seq.push_back({-1, false, true});
        for (int k = 0; k < 20; ++k)
            seq.push_back({static_cast<int>(rng.nextBelow(6)), true,
                           false});
        differ = makeSim("MRU").runSequence(seq) !=
                 makeSim("MRU_SBV").runSequence(seq);
    }
    EXPECT_TRUE(differ);
}

// ------------------------------------------------------------ QLRU --

TEST(QlruSpec, NameFormatting)
{
    QlruSpec spec;
    spec.hitX = 1;
    spec.hitY = 1;
    spec.insertAge = 1;
    spec.rVariant = 0;
    spec.uVariant = 0;
    EXPECT_EQ(spec.name(), "QLRU_H11_M1_R0_U0");
    spec.probDenom = 16;
    spec.rVariant = 1;
    spec.uVariant = 2;
    EXPECT_EQ(spec.name(), "QLRU_H11_MR161_R1_U2");
    spec.umo = true;
    EXPECT_EQ(spec.name(), "QLRU_H11_MR161_R1_U2_UMO");
}

TEST(QlruSpec, PaperPolicyNames)
{
    // The names the paper uses for SRRIP-HP and BRRIP (§VI-B2).
    auto srrip = QlruSpec::parse("QLRU_H00_M2_R0_U0_UMO");
    ASSERT_TRUE(srrip.has_value());
    EXPECT_EQ(srrip->hitX, 0u);
    EXPECT_EQ(srrip->insertAge, 2u);
    EXPECT_TRUE(srrip->umo);
    auto brrip = QlruSpec::parse("QLRU_H00_MR22_R0_U0_UMO");
    ASSERT_TRUE(brrip.has_value());
    EXPECT_EQ(brrip->probDenom, 2u);
    EXPECT_EQ(brrip->insertAge, 2u);
}

TEST(QlruSpec, ParseRejectsInvalid)
{
    EXPECT_FALSE(QlruSpec::parse("LRU").has_value());
    EXPECT_FALSE(QlruSpec::parse("QLRU_H31_M1_R0_U0").has_value());
    EXPECT_FALSE(QlruSpec::parse("QLRU_H11_M5_R0_U0").has_value());
    EXPECT_FALSE(QlruSpec::parse("QLRU_H11_M1_R3_U0").has_value());
    EXPECT_FALSE(QlruSpec::parse("QLRU_H11_M1_R0_U9").has_value());
    EXPECT_FALSE(QlruSpec::parse("QLRU_H11_M1_R0_U0_XYZ").has_value());
}

TEST(QlruSpec, R0CannotCombineWithU2U3)
{
    // §VI-B2: "not all combinations are possible".
    QlruSpec spec;
    spec.rVariant = 0;
    spec.uVariant = 2;
    EXPECT_FALSE(spec.isValid());
    spec.uVariant = 3;
    EXPECT_FALSE(spec.isValid());
    spec.rVariant = 1;
    EXPECT_TRUE(spec.isValid());
}

TEST(QlruSpec, ParseFormatRoundTripAllVariants)
{
    for (const auto &spec : allQlruSpecs()) {
        auto parsed = QlruSpec::parse(spec.name());
        ASSERT_TRUE(parsed.has_value()) << spec.name();
        EXPECT_EQ(*parsed, spec) << spec.name();
    }
}

TEST(Qlru, U0NormalizationAfterInsert)
{
    // §VI-B2, U0: if no block has age 3 after an access, all ages are
    // increased by 3-M. The very first M0 insertion is therefore
    // immediately promoted to age 3; once an age-3 block exists,
    // further insertions keep their insertion age.
    auto spec = QlruSpec::parse("QLRU_H00_M0_R1_U0").value();
    Rng rng(3);
    auto policy = oneSet(spec.name(), 4, &rng);
    WayMask valid = 0;
    policy.insertWay(0, valid);
    valid |= WayMask{1} << 0;
    policy.onInsert(0, 0, valid);
    EXPECT_EQ(ageOf(policy, 0), 3u); // 0 + (3 - 0)
    policy.insertWay(0, valid);
    valid |= WayMask{1} << 1;
    policy.onInsert(0, 1, valid);
    EXPECT_EQ(ageOf(policy, 1), 0u); // age-3 block exists: no update
}

TEST(Qlru, InsertionAgeChangesEvictionOrder)
{
    // M1 vs M3 insertion is observable through hit counts.
    auto p_m1 = QlruSpec::parse("QLRU_H00_M1_R1_U0").value();
    auto p_m3 = QlruSpec::parse("QLRU_H00_M3_R1_U0").value();
    Rng rng(3);
    Rng seq_rng(23);
    bool differ = false;
    for (int trial = 0; trial < 60 && !differ; ++trial) {
        std::vector<cachetools::SeqAccess> seq;
        seq.push_back({-1, false, true});
        for (int k = 0; k < 24; ++k)
            seq.push_back({static_cast<int>(seq_rng.nextBelow(6)), true,
                           false});
        PolicySim a(p_m1.name(), 4, &rng);
        PolicySim b(p_m3.name(), 4, &rng);
        differ = a.runSequence(seq) != b.runSequence(seq);
    }
    EXPECT_TRUE(differ);
}

TEST(Qlru, R2InsertsRightmostWhileFilling)
{
    auto spec = QlruSpec::parse("QLRU_H00_M1_R2_U1").value();
    Rng rng(3);
    auto policy = oneSet(spec.name(), 4, &rng);
    WayMask valid = 0;
    EXPECT_EQ(policy.insertWay(0, valid), 3u);
    valid |= WayMask{1} << 3;
    policy.onInsert(0, 3, valid);
    EXPECT_EQ(policy.insertWay(0, valid), 2u);
}

TEST(Qlru, HitPromotionFunction)
{
    auto spec = QlruSpec::parse("QLRU_H21_M3_R1_U0").value();
    Rng rng(3);
    auto policy = oneSet(spec.name(), 2, &rng);
    WayMask valid = 0;
    // Fill both ways with age 3 so the normalization step stays
    // inactive while we exercise the promotion path on way 0.
    for (unsigned w = 0; w < 2; ++w) {
        policy.insertWay(0, valid);
        valid |= WayMask{1} << w;
        policy.onInsert(0, w, valid);
        EXPECT_EQ(ageOf(policy, w), 3u); // M3 insertion
    }
    policy.onHit(0, 0, valid); // H2y: age 3 -> 2
    EXPECT_EQ(ageOf(policy, 0), 2u);
    policy.onHit(0, 0, valid); // age 2 -> y = 1
    EXPECT_EQ(ageOf(policy, 0), 1u);
    policy.onHit(0, 0, valid); // age 1 -> 0
    EXPECT_EQ(ageOf(policy, 0), 0u);
}

TEST(Qlru, UmoDelaysAgingToMissTime)
{
    // Non-UMO updates after every access; UMO only before a
    // replacement. Distinguishable through hit counts.
    auto spec_now = QlruSpec::parse("QLRU_H00_M1_R1_U0").value();
    auto spec_umo = QlruSpec::parse("QLRU_H00_M1_R1_U0_UMO").value();
    Rng rng(3);
    bool differ = false;
    Rng seq_rng(17);
    for (int trial = 0; trial < 60 && !differ; ++trial) {
        std::vector<cachetools::SeqAccess> seq;
        seq.push_back({-1, false, true});
        for (int k = 0; k < 24; ++k)
            seq.push_back({static_cast<int>(seq_rng.nextBelow(6)), true,
                           false});
        PolicySim a(spec_now.name(), 4, &rng);
        PolicySim b(spec_umo.name(), 4, &rng);
        differ = a.runSequence(seq) != b.runSequence(seq);
    }
    EXPECT_TRUE(differ);
}

TEST(Qlru, ProbabilisticInsertionRate)
{
    // MR161: insert with age 1 in 1/16 of the cases, age 3 otherwise
    // (§VI-D).
    auto spec = QlruSpec::parse("QLRU_H11_MR161_R1_U2").value();
    Rng rng(77);
    int young = 0;
    constexpr int kTrials = 4000;
    for (int i = 0; i < kTrials; ++i) {
        auto policy = oneSet(spec.name(), 4, &rng);
        WayMask valid = 0;
        unsigned w = policy.insertWay(0, valid);
        valid |= WayMask{1} << w;
        policy.onInsert(0, w, valid);
        if (ageOf(policy, w) != 3)
            ++young;
    }
    EXPECT_NEAR(young, kTrials / 16.0, 60);
}

TEST(Qlru, AllSpecsCountMatchesParameterSpace)
{
    // 3*2 hit functions x 4 insertion ages x 3 R x 4 U x 2 UMO, minus
    // the invalid R0+U2/U3 combinations.
    unsigned total = 3 * 2 * 4 * 3 * 4 * 2;
    unsigned invalid = 3 * 2 * 4 * 1 * 2 * 2;
    EXPECT_EQ(allQlruSpecs().size(), total - invalid);
}

// ------------------------------------------ cross-policy properties --

class PolicyProperty : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PolicyProperty, InsertedBlockIsResident)
{
    auto sim = makeSim(GetParam(), 8);
    Rng rng(1);
    for (int i = 0; i < 500; ++i) {
        int b = static_cast<int>(rng.nextBelow(12));
        sim.access(b);
        EXPECT_TRUE(sim.access(b)) << GetParam() << " lost block " << b;
    }
}

TEST_P(PolicyProperty, NoMissWhenWorkingSetFits)
{
    auto sim = makeSim(GetParam(), 8);
    for (int b = 0; b < 8; ++b)
        sim.access(b);
    Rng rng(2);
    for (int i = 0; i < 300; ++i) {
        int b = static_cast<int>(rng.nextBelow(8));
        EXPECT_TRUE(sim.access(b)) << GetParam();
    }
}

TEST_P(PolicyProperty, FlushForgetsEverything)
{
    auto sim = makeSim(GetParam(), 8);
    for (int b = 0; b < 8; ++b)
        sim.access(b);
    sim.flush();
    for (int b = 0; b < 8; ++b)
        EXPECT_FALSE(sim.access(b)) << GetParam();
}

TEST_P(PolicyProperty, DeterministicReplay)
{
    std::string name(GetParam());
    if (name == "RANDOM" || name.find("MR") != std::string::npos)
        GTEST_SKIP() << "policy is intentionally nondeterministic";
    Rng rng(3);
    std::vector<cachetools::SeqAccess> seq;
    seq.push_back({-1, false, true});
    for (int k = 0; k < 200; ++k)
        seq.push_back({static_cast<int>(rng.nextBelow(12)), true, false});
    auto a = makeSim(GetParam(), 8).runSequence(seq);
    auto b = makeSim(GetParam(), 8).runSequence(seq);
    EXPECT_EQ(a, b) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyProperty,
    ::testing::Values("LRU", "FIFO", "PLRU", "MRU", "MRU_SBV", "RANDOM",
                      "QLRU_H11_M1_R0_U0", "QLRU_H00_M1_R2_U1",
                      "QLRU_H00_M1_R0_U1", "QLRU_H11_M1_R1_U2",
                      "QLRU_H11_MR161_R1_U2", "QLRU_H00_M2_R0_U0_UMO",
                      "QLRU_H21_M3_R0_U0_UMO"));

/** Every meaningful QLRU variant satisfies the residency property. */
class QlruVariantProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(QlruVariantProperty, InsertedBlockResidentAndDeterministic)
{
    auto specs = allQlruSpecs();
    auto spec = specs[static_cast<std::size_t>(GetParam()) %
                      specs.size()];
    Rng rng(4);
    PolicySim sim(spec.name(), 8, &rng);
    Rng seq_rng(5);
    for (int i = 0; i < 200; ++i) {
        int b = static_cast<int>(seq_rng.nextBelow(12));
        sim.access(b);
        EXPECT_TRUE(sim.access(b)) << spec.name();
    }
}

INSTANTIATE_TEST_SUITE_P(SampledVariants, QlruVariantProperty,
                         ::testing::Range(0, 384, 7));

TEST(PolicyName, UnknownPolicyIsFatal)
{
    Rng rng(1);
    EXPECT_THROW(Replacement("NOT_A_POLICY", 8, 1, &rng), FatalError);
    EXPECT_THROW(PolicySim("NOT_A_POLICY", 8, &rng), FatalError);
}

} // namespace
} // namespace nb::cache
