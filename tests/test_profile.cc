/**
 * @file
 * Tests for the machine-profile subsystem: plan structure, the
 * campaign-backed builder against ground truth, failure degradation,
 * serialization round-trips, and profile diffing.
 */

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "core/campaign.hh"
#include "profile/build.hh"
#include "profile/profile.hh"

namespace nb::profile
{
namespace
{

/** Reduced experiment sizing so one build stays test-sized. */
ProfileOptions
smallOptions(const std::string &uarch = "Skylake")
{
    ProfileOptions opt;
    opt.session.uarch = uarch;
    opt.maxAssoc = 18;
    opt.policySequences = 10;
    opt.tlbMaxPages = 512;
    opt.duelingScan = false;
    return opt;
}

/** One small profile per uarch, built once and shared by the tests
 *  (the campaign itself is deterministic, so sharing is safe). */
const ProfileBuild &
cachedBuild(const std::string &uarch)
{
    static std::map<std::string, ProfileBuild> cache;
    auto it = cache.find(uarch);
    if (it == cache.end()) {
        Engine engine;
        ProfileOptions opt = smallOptions(uarch);
        opt.jobs = 2;
        it = cache.emplace(uarch,
                           buildMachineProfile(engine, opt)).first;
    }
    return it->second;
}

// ---------------------------------------------------------- planning --

TEST(ProfilePlan, StructureCoversEverySection)
{
    ProfilePlan plan = planMachineProfile(smallOptions());
    ASSERT_EQ(plan.levels.size(), 3u);
    EXPECT_GT(plan.r14Size, 0u);
    EXPECT_TRUE(plan.disablePrefetchers);
    for (const auto &lp : plan.levels) {
        EXPECT_TRUE(lp.error.empty()) << lp.name << ": " << lp.error;
        EXPECT_FALSE(lp.setsHypotheses.empty());
        EXPECT_FALSE(lp.lineStrides.empty());
        EXPECT_EQ(lp.assoc.maxAssoc, 18u);
        EXPECT_EQ(lp.policy.sequences.size(), 10u);
        EXPECT_GT(lp.latencyRingLines, 0u);
    }
    ASSERT_TRUE(plan.tlb.has_value());
    EXPECT_FALSE(plan.tlb->ladder.empty());
    EXPECT_FALSE(plan.dueling.has_value());
    // The flat spec list covers every sub-range.
    const auto &last = plan.levels.back();
    EXPECT_GE(plan.specs.size(),
              last.policyFirst + 2 * last.policy.sequences.size());
    EXPECT_EQ(plan.specs.size(),
              plan.tlbFirst + 3 * plan.tlb->ladder.size());
}

TEST(ProfilePlan, PolicyPairsSurviveDedup)
{
    // Every policy sequence plans a Min/Max spec pair whose aggregate
    // differs; campaign dedup must never collapse the pair (it is the
    // determinism check).
    ProfilePlan plan = planMachineProfile(smallOptions());
    const auto &lp = plan.levels.front();
    for (std::size_t s = 0; s < lp.policy.sequences.size(); ++s) {
        const auto &lo = plan.specs[lp.policyFirst + 2 * s];
        const auto &hi = plan.specs[lp.policyFirst + 2 * s + 1];
        EXPECT_NE(specCanonicalKey(lo), specCanonicalKey(hi));
    }
}

TEST(ProfilePlan, UserModePlansNothingButExplains)
{
    ProfileOptions opt = smallOptions();
    opt.session.mode = core::Mode::User;
    ProfilePlan plan = planMachineProfile(opt);
    EXPECT_TRUE(plan.specs.empty());
    for (const auto &lp : plan.levels)
        EXPECT_FALSE(lp.error.empty());
    EXPECT_FALSE(plan.tlbError.empty());

    Engine engine;
    ProfileBuild build = buildMachineProfile(engine, opt);
    EXPECT_FALSE(build.profile.complete());
    EXPECT_EQ(build.profile.errorCount(), 4u); // 3 levels + TLB
    EXPECT_EQ(build.profile.mode, "user");
}

// ----------------------------------------------------- ground truth --

TEST(ProfileBuild, SkylakeMatchesConfiguredGeometry)
{
    const MachineProfile &profile = cachedBuild("Skylake").profile;
    EXPECT_TRUE(profile.complete()) << profile.format();
    ASSERT_EQ(profile.levels.size(), 3u);

    const CacheLevelProfile *l1 = profile.find("L1");
    ASSERT_NE(l1, nullptr);
    EXPECT_EQ(l1->sets, 64u);
    EXPECT_EQ(l1->assoc, 8u);
    EXPECT_EQ(l1->lineSize, 64u);
    EXPECT_EQ(l1->sizeKb, 32.0);
    EXPECT_NEAR(l1->loadLatency, 4.0, 1.0);
    EXPECT_EQ(l1->policy(), "PLRU"); // Table I: every L1 is PLRU

    const CacheLevelProfile *l2 = profile.find("L2");
    ASSERT_NE(l2, nullptr);
    EXPECT_EQ(l2->sets, 1024u);
    EXPECT_EQ(l2->assoc, 4u);
    EXPECT_EQ(l2->sizeKb, 256.0);
    EXPECT_NEAR(l2->loadLatency, 12.0, 1.0);
    // Table I: Skylake L2 = QLRU_H00_M1_R2_U1. A reduced sequence
    // count may leave equivalent QLRU variants standing, but the true
    // policy must be among them.
    EXPECT_TRUE(l2->policyDeterministic);
    EXPECT_NE(std::find(l2->policyMatches.begin(),
                        l2->policyMatches.end(),
                        std::string("QLRU_H00_M1_R2_U1")),
              l2->policyMatches.end());

    const CacheLevelProfile *l3 = profile.find("L3");
    ASSERT_NE(l3, nullptr);
    EXPECT_EQ(l3->sets, 2048u);
    EXPECT_EQ(l3->assoc, 16u);
    EXPECT_EQ(l3->slices, 2u);
    EXPECT_EQ(l3->sizeKb, 4096.0);
    EXPECT_NEAR(l3->loadLatency, 42.0, 2.0);
    EXPECT_NE(std::find(l3->policyMatches.begin(),
                        l3->policyMatches.end(),
                        std::string("QLRU_H11_M1_R0_U0")),
              l3->policyMatches.end());
}

TEST(ProfileBuild, TlbMatchesSerialTool)
{
    // The profile's TLB numbers come from the same plan/decode the
    // serial measureTlb() now uses, bounded at the test's maxPages.
    const MachineProfile &profile = cachedBuild("Skylake").profile;
    ASSERT_TRUE(profile.tlb.measured);
    EXPECT_TRUE(profile.tlb.ok()) << profile.tlb.error;
    EXPECT_EQ(profile.tlb.dtlbEntries, 64u);
    // maxPages 512 < the true STLB capacity: the sweep saturates at
    // its bound, exactly like a bounded serial search.
    EXPECT_EQ(profile.tlb.stlbEntries, 512u);

    Engine engine;
    auto session = engine.session(SessionOptions{});
    auto serial = cachetools::measureTlb(session, 512);
    EXPECT_EQ(profile.tlb.dtlbEntries, serial.dtlbEntries);
    EXPECT_EQ(profile.tlb.stlbEntries, serial.stlbEntries);
}

TEST(ProfileBuild, NehalemGroundTruth)
{
    const MachineProfile &profile = cachedBuild("Nehalem").profile;
    EXPECT_TRUE(profile.complete()) << profile.format();
    const CacheLevelProfile *l3 = profile.find("L3");
    ASSERT_NE(l3, nullptr);
    EXPECT_EQ(l3->sets, 8192u);
    EXPECT_EQ(l3->assoc, 16u);
    EXPECT_EQ(l3->slices, 1u);
    EXPECT_EQ(l3->sizeKb, 8192.0);
    EXPECT_EQ(l3->policy(), "MRU"); // Table I
    const CacheLevelProfile *l2 = profile.find("L2");
    ASSERT_NE(l2, nullptr);
    EXPECT_EQ(l2->assoc, 8u);
    EXPECT_EQ(l2->policy(), "PLRU");
}

TEST(ProfileBuild, ZenDegradesToErroredSections)
{
    // §VI-D: no prefetcher control on AMD -- cache analysis must
    // report errors, not die.
    Engine engine;
    ProfileOptions opt = smallOptions("Zen");
    ProfileBuild build = buildMachineProfile(engine, opt);
    EXPECT_FALSE(build.profile.complete());
    for (const auto &level : build.profile.levels) {
        EXPECT_FALSE(level.ok());
        EXPECT_NE(level.error.find("prefetchers"), std::string::npos);
    }
}

// ------------------------------------------------- layout invariance --

TEST(ProfileBuild, JobsOneAndFourBitIdentical)
{
    ProfileOptions opt = smallOptions();
    opt.tlbMaxPages = 128;
    opt.policySequences = 4;
    opt.maxAssoc = 10;

    Engine e1;
    opt.jobs = 1;
    ProfileBuild b1 = buildMachineProfile(e1, opt);
    Engine e4;
    opt.jobs = 4;
    ProfileBuild b4 = buildMachineProfile(e4, opt);

    EXPECT_EQ(b1.profile.toJson(), b4.profile.toJson());
    EXPECT_TRUE(diffProfiles(b1.profile, b4.profile).empty());
}

// ------------------------------------------------------ degradation --

TEST(ProfileDecode, SabotagedSpecsErrorOneSectionOnly)
{
    ProfileOptions opt = smallOptions();
    opt.tlbMaxPages = 128;
    opt.policySequences = 4;
    opt.maxAssoc = 8;
    ProfilePlan plan = planMachineProfile(opt);

    // Sabotage one L2 associativity spec and one L2 policy spec:
    // nMeasurements = 0 is rejected by validateSpec as InvalidSpec.
    const auto &l2 = plan.levels[1];
    plan.specs[l2.assocFirst + 2].nMeasurements = 0;
    plan.specs[l2.policyFirst].nMeasurements = 0;

    Engine engine;
    CampaignOptions campaign_opt;
    campaign_opt.jobs = 2;
    campaign_opt.machineSetup = [&plan](core::Runner &runner) {
        prepareProfileMachine(runner, plan);
    };
    auto campaign = engine.runCampaign(plan.specs, campaign_opt);
    MachineProfile profile =
        decodeMachineProfile(plan, campaign.outcomes);

    const CacheLevelProfile *lvl2 = profile.find("L2");
    ASSERT_NE(lvl2, nullptr);
    EXPECT_FALSE(lvl2->ok());
    EXPECT_NE(lvl2->error.find("assoc"), std::string::npos);
    EXPECT_NE(lvl2->error.find("policy"), std::string::npos);
    // The associativity ladder still reports its lower bound.
    EXPECT_EQ(lvl2->assoc, 2u);
    // Other sections are untouched.
    EXPECT_TRUE(profile.find("L1")->ok());
    EXPECT_TRUE(profile.find("L3")->ok());
    EXPECT_TRUE(profile.tlb.ok());
}

// ------------------------------------------------------ round-trips --

TEST(ProfileSerialization, JsonRoundTripIsExact)
{
    const MachineProfile &profile = cachedBuild("Skylake").profile;
    MachineProfile back = MachineProfile::fromJson(profile.toJson());
    EXPECT_EQ(back.toJson(), profile.toJson());
    EXPECT_TRUE(diffProfiles(profile, back).empty());
}

TEST(ProfileSerialization, CsvRoundTripIsExact)
{
    const MachineProfile &profile = cachedBuild("Skylake").profile;
    MachineProfile back = MachineProfile::fromCsv(profile.toCsv());
    EXPECT_EQ(back.toCsv(), profile.toCsv());
    EXPECT_TRUE(diffProfiles(profile, back).empty());
    // The two formats agree with each other too.
    EXPECT_EQ(MachineProfile::fromJson(profile.toJson()).toCsv(),
              profile.toCsv());
}

TEST(ProfileSerialization, ErrorsSurviveRoundTrip)
{
    Engine engine;
    ProfileOptions opt = smallOptions("Zen");
    MachineProfile profile = buildMachineProfile(engine, opt).profile;
    ASSERT_FALSE(profile.complete());
    EXPECT_EQ(MachineProfile::fromJson(profile.toJson()).toJson(),
              profile.toJson());
    EXPECT_EQ(MachineProfile::fromCsv(profile.toCsv()).toCsv(),
              profile.toCsv());
}

TEST(ProfileSerialization, LoadAutoDetectsFormat)
{
    const MachineProfile &profile = cachedBuild("Skylake").profile;
    std::string json_path = testing::TempDir() + "profile_ad.json";
    std::string csv_path = testing::TempDir() + "profile_ad.csv";
    std::ofstream(json_path) << profile.toJson();
    std::ofstream(csv_path) << profile.toCsv();
    EXPECT_EQ(MachineProfile::load(json_path).toJson(),
              profile.toJson());
    EXPECT_EQ(MachineProfile::load(csv_path).toJson(),
              profile.toJson());
    std::remove(json_path.c_str());
    std::remove(csv_path.c_str());
    EXPECT_THROW(MachineProfile::load("/nonexistent/profile.json"),
                 FatalError);
}

// ------------------------------------------------------------- diff --

TEST(ProfileDiff, ReportsEveryKind)
{
    MachineProfile a;
    a.uarch = "A";
    a.mode = "kernel";
    CacheLevelProfile l1;
    l1.level = "L1";
    l1.sets = 64;
    l1.assoc = 8;
    l1.lineSize = 64;
    l1.sizeKb = 32;
    l1.loadLatency = 4.0;
    l1.policyMatches = {"PLRU"};
    a.levels.push_back(l1);
    CacheLevelProfile l2 = l1;
    l2.level = "L2";
    a.levels.push_back(l2);
    a.tlb.measured = true;
    a.tlb.dtlbEntries = 64;
    a.dueling.scanned = true;
    a.dueling.policyA = "X";
    a.dueling.policyB = "Y";
    a.dueling.ranges = {{0, 512, 575, "A"}};

    MachineProfile b = a;
    b.uarch = "B";
    b.levels[0].assoc = 4;              // geometry
    b.levels[0].loadLatency = 7.0;      // latency
    b.levels[0].policyMatches = {"LRU"}; // policy
    b.levels[1].error = "boom";         // status
    b.tlb.dtlbEntries = 48;             // tlb
    b.dueling.ranges = {{0, 768, 831, "B"}}; // dueling
    CacheLevelProfile l3 = l1;
    l3.level = "L3";
    b.levels.push_back(l3);             // added

    auto diff = diffProfiles(a, b);
    auto has = [&](ProfileDiffEntry::Kind kind,
                   const std::string &section) {
        for (const auto &entry : diff.entries) {
            if (entry.kind == kind && entry.section == section)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(has(ProfileDiffEntry::Kind::GeometryChanged, "L1"));
    EXPECT_TRUE(has(ProfileDiffEntry::Kind::LatencyChanged, "L1"));
    EXPECT_TRUE(has(ProfileDiffEntry::Kind::PolicyChanged, "L1"));
    EXPECT_TRUE(has(ProfileDiffEntry::Kind::StatusChanged, "L2"));
    EXPECT_TRUE(has(ProfileDiffEntry::Kind::TlbChanged, "tlb"));
    EXPECT_TRUE(has(ProfileDiffEntry::Kind::DuelingChanged, "dueling"));
    EXPECT_TRUE(has(ProfileDiffEntry::Kind::Added, "L3"));

    // Removed: diff the other way round.
    auto reverse = diffProfiles(b, a);
    bool removed = false;
    for (const auto &entry : reverse.entries)
        removed |= entry.kind == ProfileDiffEntry::Kind::Removed &&
                   entry.section == "L3";
    EXPECT_TRUE(removed);
}

TEST(ProfileDiff, LatencyTolerance)
{
    MachineProfile a;
    CacheLevelProfile l1;
    l1.level = "L1";
    l1.sets = 64;
    l1.assoc = 8;
    l1.lineSize = 64;
    l1.loadLatency = 4.0;
    a.levels.push_back(l1);
    MachineProfile b = a;
    b.levels[0].loadLatency = 4.3;
    EXPECT_TRUE(diffProfiles(a, b).empty()); // within 0.5 cycles
    b.levels[0].loadLatency = 5.0;
    EXPECT_FALSE(diffProfiles(a, b).empty());
}

TEST(ProfileDiff, CrossUarchIsNonEmptyAndReadable)
{
    const MachineProfile &skl = cachedBuild("Skylake").profile;
    const MachineProfile &nhm = cachedBuild("Nehalem").profile;
    auto diff = diffProfiles(skl, nhm);
    ASSERT_FALSE(diff.empty());
    std::string text = diff.format();
    // Human-readable entries: "L2: assoc 4 -> 8" etc.
    EXPECT_NE(text.find("L2: assoc 4 -> 8"), std::string::npos) << text;
    EXPECT_NE(text.find("->"), std::string::npos);
}

// ---------------------------------------------------------- dueling --

TEST(ProfileBuild, IvyBridgeDuelingLeadersThroughCampaign)
{
    // §VI-D: IvB dedicates sets 512-575 (policy A) and 768-831
    // (policy B) in every slice. The planned scan probes a coarse
    // grid; every dedicated range it reports must fall inside a true
    // leader band, and both bands must be found in every slice.
    Engine engine;
    ProfileOptions opt = smallOptions("IvyBridge");
    opt.jobs = 4;
    opt.maxAssoc = 14;
    opt.policySequences = 4;
    opt.tlbMaxPages = 128;
    opt.duelingScan = true;
    opt.dueling.setLo = 496;
    opt.dueling.setHi = 847;
    opt.dueling.stride = 32;
    ProfileBuild build = buildMachineProfile(engine, opt);
    const DuelingProfile &duel = build.profile.dueling;
    ASSERT_TRUE(duel.scanned);
    EXPECT_TRUE(duel.ok()) << duel.error;
    EXPECT_EQ(duel.policyA, "QLRU_H11_M1_R1_U2");

    unsigned slices = 4;
    std::vector<bool> found_a(slices, false), found_b(slices, false);
    for (const auto &range : duel.ranges) {
        ASSERT_LT(range.slice, slices);
        if (range.role == "A") {
            EXPECT_GE(range.setLo, 512u);
            EXPECT_LE(range.setHi, 575u);
            found_a[range.slice] = true;
        } else {
            EXPECT_GE(range.setLo, 768u);
            EXPECT_LE(range.setHi, 831u);
            found_b[range.slice] = true;
        }
    }
    for (unsigned s = 0; s < slices; ++s) {
        EXPECT_TRUE(found_a[s]) << "slice " << s;
        EXPECT_TRUE(found_b[s]) << "slice " << s;
    }

    // The follower L3 runs the duel winner's probabilistic policy:
    // the profile's L3 policy verdict must flag non-determinism.
    const CacheLevelProfile *l3 = build.profile.find("L3");
    ASSERT_NE(l3, nullptr);
    EXPECT_FALSE(l3->policyDeterministic);
}

} // namespace
} // namespace nb::profile
