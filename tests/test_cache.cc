/**
 * @file
 * Tests for the cache structures: geometry, the hierarchy (inclusive L3
 * with back-invalidation), slice hashing, prefetchers, uncore counters,
 * and set dueling.
 */

#include <gtest/gtest.h>

#include <optional>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cachetools/policy_sim.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "uarch/uarch.hh"

namespace nb::cache
{
namespace
{

Rng &
testRng()
{
    static Rng rng(31337);
    return rng;
}

CacheConfig
smallCache(const std::string &policy = "LRU", Addr size = 4096,
           unsigned assoc = 4)
{
    CacheConfig cfg;
    cfg.name = "test";
    cfg.sizeBytes = size;
    cfg.assoc = assoc;
    cfg.policy = policy;
    return cfg;
}

/** One reference to a single cache, as a hierarchy level makes it: a
 *  lookup, then a fill if it missed. */
struct Touch
{
    bool hit = false;
    /** Line the fill evicted. */
    std::optional<Addr> evicted;
};

Touch
accessLine(Cache &c, Addr addr, bool write)
{
    if (c.lookup(addr, write))
        return {true, std::nullopt};
    return {false, c.fill(addr, write)};
}

TEST(Cache, Geometry)
{
    Cache c(smallCache()); // 4 KB, 4-way, 64 B lines -> 16 sets
    EXPECT_EQ(c.numSets(), 16u);
    EXPECT_EQ(c.setIndex(0x0), 0u);
    EXPECT_EQ(c.setIndex(0x40), 1u);
    EXPECT_EQ(c.setIndex(0x400), 0u); // wraps at 16 sets
    EXPECT_EQ(c.tagOf(0x400), 1u);
    EXPECT_EQ(c.addrOf(c.setIndex(0x7C0), c.tagOf(0x7C0)), 0x7C0u);
}

TEST(Cache, HitAfterFill)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.probe(0x1000));
    auto r = accessLine(c, 0x1000, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_TRUE(accessLine(c, 0x1000, false).hit);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
}

#ifndef NDEBUG
TEST(CacheDeathTest, FillOfAHeldLineAsserts)
{
    // fill() trusts that lookup() just missed; Debug builds check it.
    Cache c(smallCache());
    accessLine(c, 0x1000, false);
    EXPECT_DEATH(c.fill(0x1010, false), "fill\\(\\) of a line");
}
#endif

TEST(Cache, SameLineDifferentOffsets)
{
    Cache c(smallCache());
    accessLine(c, 0x1000, false);
    EXPECT_TRUE(accessLine(c, 0x103F, false).hit);
    EXPECT_FALSE(c.probe(0x1040));
}

TEST(Cache, EvictionReportsVictim)
{
    Cache c(smallCache("LRU"));
    // Fill set 0 (stride = 16 sets * 64 B).
    for (Addr i = 0; i < 4; ++i)
        accessLine(c, i * 0x400, false);
    auto r = accessLine(c, 4 * 0x400, false);
    ASSERT_TRUE(r.evicted.has_value());
    EXPECT_EQ(*r.evicted, 0u); // LRU victim is the first line
    EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, DirtyEvictionIsWriteback)
{
    Cache c(smallCache("LRU"));
    accessLine(c, 0x0, true); // dirty
    for (Addr i = 1; i <= 4; ++i)
        accessLine(c, i * 0x400, false);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, InvalidateAndFlush)
{
    Cache c(smallCache());
    accessLine(c, 0x1000, false);
    EXPECT_TRUE(c.invalidate(0x1000));
    EXPECT_FALSE(c.invalidate(0x1000));
    EXPECT_FALSE(c.probe(0x1000));
    accessLine(c, 0x2000, false);
    c.flushAll();
    EXPECT_FALSE(c.probe(0x2000));
    EXPECT_EQ(c.setOccupancy(c.setIndex(0x2000)), 0u);
}

TEST(Cache, OccupancyTracking)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.setFull(0));
    for (Addr i = 0; i < 4; ++i)
        accessLine(c, i * 0x400, false);
    EXPECT_TRUE(c.setFull(0));
    EXPECT_EQ(c.setOccupancy(0), 4u);
}

// ------------------------------------------- epoch-stamped flush/build --

/**
 * A cache with its policy RNG and PSEL counter as members, so a test can
 * reseed them. "ADAPTIVE" is set dueling between the §VI-D Ivy Bridge
 * pair; sets 0-3 lead for A, 4-7 for B, and 8-15 follow.
 */
struct SeededCache
{
    static constexpr unsigned kAssoc = 8;
    static constexpr Addr kSize = 16 * kAssoc * kCacheLineSize;

    explicit SeededCache(const std::string &policy)
        : cache(config(policy), &rng, &duel)
    {
    }

    static CacheConfig
    config(const std::string &policy)
    {
        CacheConfig cfg;
        cfg.name = policy;
        cfg.sizeBytes = kSize;
        cfg.assoc = kAssoc;
        if (policy == "ADAPTIVE") {
            cfg.dueling.leaders = {{-1, 0, 3, DuelRole::LeaderA},
                                   {-1, 4, 7, DuelRole::LeaderB}};
            cfg.dueling.policyA = "QLRU_H11_M1_R1_U2";
            cfg.dueling.policyB = "QLRU_H11_MR161_R1_U2";
        } else {
            cfg.policy = policy;
        }
        return cfg;
    }

    Rng rng{7};
    DuelState duel;
    Cache cache;
};

class FlushEqualsFresh : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FlushEqualsFresh, ReplayMatchesJustBuiltCache)
{
    SeededCache flushed(GetParam());
    SeededCache fresh(GetParam());

    // Dirty every set (all 16) and the policy state, then WBINVD.
    Rng fill(99);
    for (int i = 0; i < 3000; ++i) {
        Addr line = fill.nextBelow(16 * 20);
        accessLine(flushed.cache, line * kCacheLineSize, fill.oneIn(3));
    }
    flushed.cache.flushAll();

    // Same external state on both sides: RNG reseeded, PSEL carried
    // over (WBINVD does not reset it).
    flushed.rng.reseed(5);
    fresh.rng.reseed(5);
    fresh.duel = flushed.duel;
    CacheStats base = flushed.cache.stats();

    // Seeded mix of lookup-or-fills, hit-only lookups and invalidations
    // over sets 0-11 (12-15 stay untouched) with enough tags to evict.
    auto run = [](Cache &c, unsigned op, Addr addr) {
        if (op < 7)
            return accessLine(c, addr, op == 0);
        return Touch{op < 9 ? c.lookup(addr, op == 7) : c.invalidate(addr),
                     std::nullopt};
    };
    std::vector<bool> touched(16, false);
    Rng seq(1234);
    for (int step = 0; step < 4000; ++step) {
        auto op = static_cast<unsigned>(seq.nextBelow(10));
        Addr line = seq.nextBelow(14) * 16 + seq.nextBelow(12);
        Addr addr = line * kCacheLineSize;
        Touch a = run(flushed.cache, op, addr);
        Touch b = run(fresh.cache, op, addr);
        // Same hit, same victim, same dirty writebacks, and the same
        // per-way replacement state and occupancy of the touched set.
        unsigned set = flushed.cache.setIndex(addr);
        ASSERT_EQ(a.hit, b.hit) << "step " << step;
        ASSERT_EQ(a.evicted, b.evicted) << "step " << step;
        ASSERT_EQ(flushed.cache.stats().writebacks - base.writebacks,
                  fresh.cache.stats().writebacks)
            << "step " << step;
        ASSERT_EQ(flushed.cache.policyState(set),
                  fresh.cache.policyState(set))
            << "step " << step;
        ASSERT_EQ(flushed.cache.setOccupancy(set),
                  fresh.cache.setOccupancy(set))
            << "step " << step;
        if (op < 7)
            touched[line % 16] = true;
    }

    const CacheStats &f = flushed.cache.stats();
    const CacheStats &g = fresh.cache.stats();
    EXPECT_EQ(f.hits - base.hits, g.hits);
    EXPECT_EQ(f.misses - base.misses, g.misses);
    EXPECT_EQ(f.evictions - base.evictions, g.evictions);
    EXPECT_EQ(f.writebacks - base.writebacks, g.writebacks);
    EXPECT_EQ(f.invalidations - base.invalidations, g.invalidations);
    EXPECT_EQ(flushed.duel.psel(), fresh.duel.psel());
    for (unsigned s = 0; s < 16; ++s) {
        EXPECT_EQ(flushed.cache.setOccupancy(s), fresh.cache.setOccupancy(s))
            << "set " << s;
        if (!touched[s])
            continue;
        // A filled set's state is current (Random keeps none).
        ASSERT_TRUE(GetParam() == "RANDOM" ||
                    !fresh.cache.policyState(s).empty());
        EXPECT_EQ(flushed.cache.policyState(s), fresh.cache.policyState(s))
            << "set " << s;
    }
    EXPECT_EQ(flushed.cache.setOccupancy(13), 0u); // filled, then flushed
}

INSTANTIATE_TEST_SUITE_P(
    EveryPolicyKind, FlushEqualsFresh,
    ::testing::Values("LRU", "FIFO", "PLRU", "RANDOM", "MRU", "MRU_SBV",
                      "QLRU_H11_M1_R0_U0", "QLRU_H00_M1_R2_U1_UMO",
                      "QLRU_H11_MR161_R1_U2", "ADAPTIVE"));

TEST(Cache, HitLookupChangesNothingOnMiss)
{
    // Twin caches see the same stream; one also gets hit-only lookups
    // of absent lines, which must leave no trace.
    SeededCache looked("QLRU_H11_MR161_R1_U2");
    SeededCache plain("QLRU_H11_MR161_R1_U2");
    auto fill = [](Cache &c) {
        Rng seq(17);
        for (int i = 0; i < 200; ++i)
            accessLine(c, seq.nextBelow(12) * 16 * kCacheLineSize, i % 3 == 0);
    };
    fill(looked.cache);
    fill(plain.cache);
    ASSERT_TRUE(looked.cache.setFull(0));
    const CacheStats before = looked.cache.stats();
    const std::string state = looked.cache.policyState(0);

    for (Addr tag = 100; tag < 120; ++tag) {
        EXPECT_FALSE(looked.cache.lookup(tag * 16 * kCacheLineSize, true));
        EXPECT_FALSE(looked.cache.lookup(tag * 16 * kCacheLineSize + 5 *
                                         kCacheLineSize, false));
    }
    EXPECT_EQ(looked.cache.stats(), before);
    EXPECT_EQ(looked.cache.setOccupancy(0), SeededCache::kAssoc);
    EXPECT_EQ(looked.cache.setOccupancy(5), 0u);
    EXPECT_TRUE(looked.cache.policyState(5).empty());
    EXPECT_EQ(looked.cache.policyState(0), state);

    // The next miss picks the same victim (and so the same way, dirty
    // or not) as in the untouched twin.
    auto a = accessLine(looked.cache, 99 * 16 * kCacheLineSize, false);
    auto b = accessLine(plain.cache, 99 * 16 * kCacheLineSize, false);
    EXPECT_FALSE(a.hit);
    EXPECT_EQ(a.evicted, b.evicted);
    EXPECT_EQ(looked.cache.stats(), plain.cache.stats());
    EXPECT_EQ(looked.cache.policyState(0), plain.cache.policyState(0));

    // A hit is counted and updates the policy the same way in both.
    Addr present = 99 * 16 * kCacheLineSize;
    EXPECT_TRUE(looked.cache.lookup(present, true));
    EXPECT_TRUE(accessLine(plain.cache, present, true).hit);
    EXPECT_EQ(looked.cache.stats().hits, before.hits + 1);
    EXPECT_EQ(looked.cache.policyState(0), plain.cache.policyState(0));
}

/**
 * Cache and PolicySim are two simulators of one set under one policy;
 * on the same seeded stream into set @p set of @p c they must agree
 * step by step in hits and replacement state. PolicySim cannot
 * invalidate a single line, so the stream's invalidations are
 * whole-set flushes on both sides.
 */
void
expectSetMatchesPolicySim(SeededCache &c, unsigned set,
                          cachetools::PolicySim &sim)
{
    Rng seq(4321);
    unsigned hits = 0, flushes = 0;
    for (int step = 0; step < 4000; ++step) {
        if (seq.oneIn(150)) {
            c.cache.flushAll();
            sim.flush();
            ++flushes;
            continue;
        }
        int block = static_cast<int>(seq.nextBelow(12));
        Addr addr = (static_cast<Addr>(block) * 16 + set) * kCacheLineSize;
        bool hit = accessLine(c.cache, addr, seq.oneIn(4)).hit;
        ASSERT_EQ(hit, sim.access(block)) << "step " << step;
        ASSERT_EQ(c.cache.policyState(set), sim.state())
            << "step " << step;
        hits += hit ? 1 : 0;
    }
    // The stream exercised hits, replacements and flushes.
    EXPECT_GT(hits, 400u);
    EXPECT_GT(c.cache.stats().evictions, 400u);
    EXPECT_GT(flushes, 10u);
}

class OneSetMatchesPolicySim : public ::testing::TestWithParam<std::string>
{
};

TEST_P(OneSetMatchesPolicySim, SameHitsAndStatePerStep)
{
    SeededCache c(GetParam());
    Rng sim_rng(7); // the seed SeededCache gives its policies
    cachetools::PolicySim sim(GetParam(), SeededCache::kAssoc, &sim_rng);
    expectSetMatchesPolicySim(c, 0, sim);
}

INSTANTIATE_TEST_SUITE_P(
    EveryPolicyKind, OneSetMatchesPolicySim,
    ::testing::Values("LRU", "FIFO", "PLRU", "RANDOM", "MRU", "MRU_SBV",
                      "QLRU_H11_M1_R0_U0", "QLRU_H00_M1_R1_U1",
                      "QLRU_H21_M2_R1_U2", "QLRU_H10_M3_R2_U3",
                      "QLRU_H11_M1_R2_U0_UMO", "QLRU_H00_M0_R0_U1_UMO",
                      "QLRU_H11_MR161_R1_U2"));

class DuelingSetMatchesPolicySim : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DuelingSetMatchesPolicySim, SameHitsAndStatePerStep)
{
    // A stream confined to one set of the dueling cache: a leader set
    // runs its own spec. A follower set runs the PSEL winner's, which
    // stays the initial one, B, because no leader set is touched.
    unsigned set = GetParam();
    SeededCache c("ADAPTIVE");
    DuelRole role = SeededCache::config("ADAPTIVE").dueling.role(0, set);
    ASSERT_EQ(c.duel.winner(), DuelRole::LeaderB);
    std::string spec = role == DuelRole::LeaderA ? "QLRU_H11_M1_R1_U2"
                                                 : "QLRU_H11_MR161_R1_U2";
    Rng sim_rng(7); // the seed SeededCache gives its policies
    cachetools::PolicySim sim(spec, SeededCache::kAssoc, &sim_rng);
    unsigned psel = c.duel.psel();
    expectSetMatchesPolicySim(c, set, sim);
    if (role == DuelRole::Follower)
        EXPECT_EQ(c.duel.psel(), psel);
    else
        EXPECT_NE(c.duel.psel(), psel); // leader misses voted
}

INSTANTIATE_TEST_SUITE_P(
    IvyBridgePair, DuelingSetMatchesPolicySim, ::testing::Values(1u, 6u, 11u),
    [](const ::testing::TestParamInfo<unsigned> &info) -> std::string {
        return info.param < 4 ? "LeaderA"
               : info.param < 8 ? "LeaderB"
                                : "Follower";
    });

TEST(Cache, AssociativityMustFitWayMask)
{
    EXPECT_THROW(Cache{smallCache("LRU", 4096, 0)}, FatalError);
    EXPECT_THROW(Cache{smallCache("LRU", 2 * 65 * kCacheLineSize, 65)},
                 FatalError);

    // 64 ways: way 63 is the mask's top bit.
    Cache c(smallCache("LRU", 2 * 64 * kCacheLineSize, 64));
    ASSERT_EQ(c.numSets(), 2u);
    for (Addr i = 0; i < 64; ++i)
        EXPECT_FALSE(accessLine(c, i * 2 * kCacheLineSize, i == 63).hit);
    EXPECT_TRUE(c.setFull(0));
    EXPECT_EQ(c.setOccupancy(0), 64u);
    EXPECT_TRUE(c.lookup(63 * 2 * kCacheLineSize, false));
    auto r = accessLine(c, 64 * 2 * kCacheLineSize, false);
    ASSERT_TRUE(r.evicted.has_value());
    EXPECT_EQ(*r.evicted, 0u); // LRU victim is the first line
    EXPECT_EQ(c.stats().writebacks, 0u);
    // Way 63 (line 63, the one dirty line) becomes the only hole; the
    // next fill takes it without an eviction or a writeback.
    EXPECT_TRUE(c.invalidate(63 * 2 * kCacheLineSize));
    EXPECT_EQ(c.setOccupancy(0), 63u);
    EXPECT_FALSE(accessLine(c, 65 * 2 * kCacheLineSize, false).evicted);
    EXPECT_EQ(c.setOccupancy(0), 64u);
    EXPECT_EQ(c.stats().evictions, 1u);
    EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(Cache, BadPolicyFailsAtConstruction)
{
    // The policy name and the associativity are checked when the cache
    // is built, before any set is filled.
    EXPECT_THROW(Cache{smallCache("NOT_A_POLICY")}, FatalError);
    EXPECT_THROW(Cache{smallCache("LRU", 2 * 65 * kCacheLineSize, 65)},
                 FatalError);
    EXPECT_THROW(Cache(smallCache("PLRU", 16 * 12 * kCacheLineSize, 12),
                       &testRng()),
                 PanicError);
    EXPECT_THROW(Cache{smallCache("QLRU_H11_M1_R0_U2")}, PanicError);
    EXPECT_THROW(Cache{smallCache("RANDOM")}, PanicError); // no RNG

    CacheConfig dueling = smallCache();
    dueling.dueling.leaders = {{-1, 0, 0, DuelRole::LeaderA}};
    dueling.dueling.policyA = "QLRU_H11_M1_R1_U2";
    dueling.dueling.policyB = "LRU";
    DuelState duel;
    EXPECT_THROW(Cache(dueling, &testRng(), &duel), PanicError);
    dueling.dueling.policyB = "QLRU_H11_MR161_R1_U2";
    EXPECT_THROW(Cache(dueling, &testRng()), PanicError); // no DuelState
    EXPECT_NO_THROW(Cache(dueling, &testRng(), &duel));
}

TEST(Cache, StaleSetStaysStaleUntilFilled)
{
    // probe(), lookup() and invalidate() of a never-filled set, or of a
    // set filled before a flush, leave its replacement state unwritten;
    // only a fill makes the set current.
    Cache c(smallCache("PLRU"));
    auto touch = [&c](Addr addr) {
        EXPECT_FALSE(c.probe(addr));
        EXPECT_FALSE(c.lookup(addr, true));
        EXPECT_FALSE(c.invalidate(addr));
    };
    const Addr set5 = 5 * kCacheLineSize;
    touch(set5);
    EXPECT_TRUE(c.policyState(5).empty());

    accessLine(c, set5, false);
    EXPECT_FALSE(c.policyState(5).empty());
    c.flushAll();
    EXPECT_TRUE(c.policyState(5).empty());
    touch(set5);
    EXPECT_TRUE(c.policyState(5).empty());
    EXPECT_EQ(c.stats().invalidations, 0u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, EverySetEmptyAfterFlush)
{
    Cache c(smallCache("PLRU"));
    std::vector<Addr> lines;
    for (Addr tag = 0; tag < 4; ++tag) {
        for (Addr set = 0; set < c.numSets(); ++set)
            lines.push_back((tag * c.numSets() + set) * kCacheLineSize);
    }
    for (Addr line : lines)
        accessLine(c, line, true);
    for (unsigned s = 0; s < c.numSets(); ++s)
        ASSERT_TRUE(c.setFull(s));

    c.flushAll();
    for (unsigned s = 0; s < c.numSets(); ++s) {
        EXPECT_EQ(c.setOccupancy(s), 0u) << "set " << s;
        EXPECT_FALSE(c.setFull(s)) << "set " << s;
    }
    for (Addr line : lines) {
        EXPECT_FALSE(c.probe(line));
        EXPECT_FALSE(c.invalidate(line));
        EXPECT_FALSE(c.lookup(line, false));
    }
    // Refilling finds empty ways: no evictions, so no writebacks of the
    // dirty lines from before the flush.
    CacheStats before = c.stats();
    for (Addr line : lines)
        EXPECT_FALSE(accessLine(c, line, false).hit);
    EXPECT_EQ(c.stats().evictions, before.evictions);
    EXPECT_EQ(c.stats().writebacks, before.writebacks);
}

// --------------------------------------------------------- hierarchy --

HierarchyConfig
skylakeConfig()
{
    return uarch::getMicroArch("Skylake").cacheConfig;
}

TEST(Hierarchy, MissFillsAllLevels)
{
    Rng rng(1);
    Hierarchy h(skylakeConfig(), &rng);
    h.setPrefetcherControl(pf::kDisableAll);
    auto r = h.access(0x100000, AccessType::Load);
    EXPECT_EQ(r.level, HitLevel::Memory);
    EXPECT_TRUE(h.l1().probe(0x100000));
    EXPECT_TRUE(h.l2().probe(0x100000));
    EXPECT_TRUE(h.l3Slice(h.sliceOf(0x100000)).probe(0x100000));
    EXPECT_EQ(h.access(0x100000, AccessType::Load).level, HitLevel::L1);
}

TEST(Hierarchy, LatenciesFollowLevels)
{
    Rng rng(1);
    auto cfg = skylakeConfig();
    Hierarchy h(cfg, &rng);
    h.setPrefetcherControl(pf::kDisableAll);
    EXPECT_EQ(h.access(0x40000, AccessType::Load).latency,
              cfg.memLatency);
    EXPECT_EQ(h.access(0x40000, AccessType::Load).latency,
              cfg.l1Latency);
    h.l1().invalidate(0x40000);
    EXPECT_EQ(h.access(0x40000, AccessType::Load).latency,
              cfg.l2Latency);
    h.l1().invalidate(0x40000);
    h.l2().invalidate(0x40000);
    EXPECT_EQ(h.access(0x40000, AccessType::Load).latency,
              cfg.l3Latency);
}

TEST(Hierarchy, InclusiveBackInvalidation)
{
    Rng rng(1);
    auto cfg = skylakeConfig();
    Hierarchy h(cfg, &rng);
    h.setPrefetcherControl(pf::kDisableAll);

    // Fill one L3 set (slice of `base`) beyond its associativity and
    // check that L3 evictions remove lines from L1/L2 as well.
    Addr stride = static_cast<Addr>(h.l3Slice(0).numSets()) *
                  kCacheLineSize;
    unsigned slice0 = h.sliceOf(0);
    std::vector<Addr> lines;
    Addr a = 0;
    while (lines.size() < cfg.l3.assoc + 4) {
        if (h.sliceOf(a) == slice0)
            lines.push_back(a);
        a += stride;
    }
    for (Addr line : lines)
        h.access(line, AccessType::Load);
    // At least some early lines were evicted from the L3...
    unsigned in_l3 = 0;
    for (Addr line : lines)
        in_l3 += h.l3Slice(slice0).probe(line) ? 1 : 0;
    EXPECT_LE(in_l3, cfg.l3.assoc);
    // ...and none of the evicted ones may remain in L1 or L2.
    for (Addr line : lines) {
        if (!h.l3Slice(slice0).probe(line)) {
            EXPECT_FALSE(h.l1().probe(line));
            EXPECT_FALSE(h.l2().probe(line));
        }
    }
}

TEST(Hierarchy, SeededStreamKeepsInclusion)
{
    // A small hierarchy (4 L1 sets, 8 L2 sets, 2 slices of 8 L3 sets)
    // with every prefetcher on, under a seeded stream of demand loads,
    // stores and T0 prefetches over 4 pages, with CLFLUSH and WBINVD
    // mixed in. NTA prefetches are left out: they skip the L3 fill by
    // design. Every prefetch lands in another set than the demand line
    // (next, previous or buddy line), so it cannot evict that line.
    HierarchyConfig cfg;
    cfg.l1 = {4 * 2 * kCacheLineSize, 2, "PLRU"};
    cfg.l2 = {8 * 4 * kCacheLineSize, 4, "RANDOM"};
    cfg.l3 = {2 * 8 * 4 * kCacheLineSize, 4, "QLRU_H11_MR161_R1_U2"};
    cfg.l3Slices = 2;
    cfg.prefetcherControlInit = 0;
    Rng rng(5);
    Hierarchy h(cfg, &rng);
    ASSERT_EQ(h.l3Slice(1).numSets(), 8u);

    constexpr Addr kBase = 0x40000;
    constexpr Addr kLines = 4 * kPageSize / kCacheLineSize;
    const AccessType kinds[] = {AccessType::Load, AccessType::Store,
                                AccessType::PrefetchT0};
    Rng seq(2718);
    Addr line = 0;
    for (int step = 0; step < 3000; ++step) {
        if (seq.oneIn(100)) {
            h.wbinvd();
        } else if (seq.oneIn(8)) {
            h.clflush(kBase + seq.nextBelow(kLines) * kCacheLineSize);
        } else {
            // Runs of neighbouring lines feed the streamer.
            line = seq.oneIn(3) ? seq.nextBelow(kLines)
                                : (line + (seq.oneIn(2) ? 1 : kLines - 1)) %
                                      kLines;
            Addr addr = kBase + line * kCacheLineSize +
                        seq.nextBelow(kCacheLineSize);
            h.access(addr, kinds[seq.nextBelow(3)]);
            ASSERT_TRUE(h.l1().probe(addr)) << "step " << step;
        }
        for (Addr l = 0; l < kLines; ++l) {
            Addr a = kBase + l * kCacheLineSize;
            if (h.l1().probe(a) || h.l2().probe(a)) {
                ASSERT_TRUE(h.l3Slice(h.sliceOf(a)).probe(a))
                    << "step " << step << " line " << l;
            }
        }
    }
    // The stream evicted from every level and invalidated core-cache
    // lines (by CLFLUSH and by back-invalidation).
    EXPECT_GT(h.l1().stats().evictions, 100u);
    EXPECT_GT(h.l2().stats().evictions, 100u);
    EXPECT_GT(h.l3Slice(0).stats().evictions + h.l3Slice(1).stats().evictions,
              100u);
    EXPECT_GT(h.l1().stats().invalidations + h.l2().stats().invalidations,
              100u);
}

TEST(Hierarchy, WbinvdFlushesEverything)
{
    Rng rng(1);
    Hierarchy h(skylakeConfig(), &rng);
    h.access(0x5000, AccessType::Store);
    h.wbinvd();
    EXPECT_FALSE(h.l1().probe(0x5000));
    EXPECT_FALSE(h.l2().probe(0x5000));
    EXPECT_EQ(h.access(0x5000, AccessType::Load).level,
              HitLevel::Memory);
}

TEST(Hierarchy, WbinvdKeepsPsel)
{
    // WBINVD empties the caches but not the adaptive-policy selector.
    Rng rng(1);
    Hierarchy h(uarch::getMicroArch("IvyBridge").cacheConfig, &rng);
    h.setPrefetcherControl(pf::kDisableAll);
    unsigned psel = h.duelState().psel();
    // Misses in leader set 512 (an A leader in every slice).
    for (Addr k = 0; k < 64; ++k)
        h.access(512 * kCacheLineSize + (k << 17), AccessType::Load);
    ASSERT_NE(h.duelState().psel(), psel);
    psel = h.duelState().psel();
    h.wbinvd();
    EXPECT_EQ(h.duelState().psel(), psel);
    EXPECT_EQ(h.access(512 * kCacheLineSize, AccessType::Load).level,
              HitLevel::Memory);
}

TEST(Hierarchy, ClflushInvalidatesOneLine)
{
    Rng rng(1);
    Hierarchy h(skylakeConfig(), &rng);
    h.setPrefetcherControl(pf::kDisableAll);
    h.access(0x6000, AccessType::Load);
    h.access(0x9000, AccessType::Load);
    h.clflush(0x6000);
    EXPECT_EQ(h.access(0x6000, AccessType::Load).level,
              HitLevel::Memory);
    EXPECT_EQ(h.access(0x9000, AccessType::Load).level, HitLevel::L1);
}

TEST(Hierarchy, SliceHashIsBalanced)
{
    Rng rng(1);
    Hierarchy h(skylakeConfig(), &rng); // 2 slices
    std::vector<unsigned> counts(h.numSlices(), 0);
    for (Addr a = 0; a < (1 << 22); a += kCacheLineSize)
        ++counts[h.sliceOf(a)];
    double total = (1 << 22) / kCacheLineSize;
    for (unsigned c : counts)
        EXPECT_NEAR(c, total / h.numSlices(), total * 0.02);
}

TEST(Hierarchy, SliceHashUsesHighBits)
{
    // §VI-D: the slice is NOT simply determined by low set-index bits.
    Rng rng(1);
    Hierarchy h(skylakeConfig(), &rng);
    bool high_bit_changes_slice = false;
    for (Addr a = 0; a < 64 && !high_bit_changes_slice; ++a) {
        Addr base = a * 0x20000;
        high_bit_changes_slice =
            h.sliceOf(base) != h.sliceOf(base ^ (1ULL << 30));
    }
    EXPECT_TRUE(high_bit_changes_slice);
}

TEST(Hierarchy, UncoreCountersPerSlice)
{
    Rng rng(1);
    Hierarchy h(skylakeConfig(), &rng);
    h.setPrefetcherControl(pf::kDisableAll);
    Addr addr = 0x123440;
    unsigned slice = h.sliceOf(addr);
    auto lookups_before = h.cboxStats(slice).lookups;
    h.access(addr, AccessType::Load); // miss -> reaches L3
    EXPECT_EQ(h.cboxStats(slice).lookups, lookups_before + 1);
    EXPECT_EQ(h.cboxStats(slice).misses, 1u);
    // L1 hit: no uncore traffic.
    h.access(addr, AccessType::Load);
    EXPECT_EQ(h.cboxStats(slice).lookups, lookups_before + 1);
}

TEST(Hierarchy, StreamerPrefetchesNextLine)
{
    Rng rng(1);
    auto cfg = skylakeConfig();
    cfg.prefetcherControlInit = 0; // all prefetchers on
    Hierarchy h(cfg, &rng);
    // A 3-line ascending stream within one page triggers the streamer.
    h.access(0x10000, AccessType::Load);
    h.access(0x10040, AccessType::Load);
    h.access(0x10080, AccessType::Load);
    EXPECT_TRUE(h.l2().probe(0x100C0));
}

TEST(Hierarchy, PrefetcherMsrDisables)
{
    Rng rng(1);
    auto cfg = skylakeConfig();
    cfg.prefetcherControlInit = pf::kDisableAll;
    Hierarchy h(cfg, &rng);
    h.access(0x10000, AccessType::Load);
    h.access(0x10040, AccessType::Load);
    h.access(0x10080, AccessType::Load);
    EXPECT_FALSE(h.l2().probe(0x100C0));
    EXPECT_FALSE(h.l2().probe(0x10100));
}

TEST(Hierarchy, AdjacentLinePrefetcher)
{
    Rng rng(1);
    auto cfg = skylakeConfig();
    cfg.prefetcherControlInit =
        pf::kDisableL2Streamer | pf::kDisableDcu | pf::kDisableDcuIp;
    Hierarchy h(cfg, &rng);
    h.access(0x10040, AccessType::Load);
    // Buddy of 0x10040 within the 128-byte pair is 0x10000.
    EXPECT_TRUE(h.l2().probe(0x10000));
}

TEST(Hierarchy, AmdIgnoresPrefetcherWrites)
{
    // §VI-D: the paper could not disable prefetching on AMD.
    Rng rng(1);
    Hierarchy h(uarch::getMicroArch("Zen").cacheConfig, &rng);
    EXPECT_FALSE(h.prefetcherDisableSupported());
    h.setPrefetcherControl(pf::kDisableAll);
    EXPECT_EQ(h.prefetcherControl(), 0u);
}

// ---------------------------------------------------------- dueling --

TEST(Dueling, RoleLookup)
{
    DuelingConfig cfg;
    cfg.leaders = {
        {-1, 512, 575, DuelRole::LeaderA},
        {0, 768, 831, DuelRole::LeaderB},
    };
    EXPECT_EQ(cfg.role(3, 520), DuelRole::LeaderA);
    EXPECT_EQ(cfg.role(0, 800), DuelRole::LeaderB);
    EXPECT_EQ(cfg.role(1, 800), DuelRole::Follower);
    EXPECT_EQ(cfg.role(0, 100), DuelRole::Follower);
}

TEST(Dueling, PselSaturates)
{
    DuelState duel(10);
    EXPECT_EQ(duel.psel(), 512u);
    for (int i = 0; i < 2000; ++i)
        duel.recordMiss(DuelRole::LeaderA);
    EXPECT_EQ(duel.psel(), 1023u);
    EXPECT_EQ(duel.winner(), DuelRole::LeaderB);
    for (int i = 0; i < 2000; ++i)
        duel.recordMiss(DuelRole::LeaderB);
    EXPECT_EQ(duel.psel(), 0u);
    EXPECT_EQ(duel.winner(), DuelRole::LeaderA);
}

/** Adaptive QLRU over 4 sets of 4 ways: set 0 follows, set 1 leads
 *  for A, set 2 for B. */
Replacement
adaptiveEngine(const std::string &policy_b, DuelState *duel, Rng *rng)
{
    DuelingConfig dueling;
    dueling.leaders = {{-1, 1, 1, DuelRole::LeaderA},
                       {-1, 2, 2, DuelRole::LeaderB}};
    dueling.policyA = "QLRU_H11_M1_R1_U2";
    dueling.policyB = policy_b;
    Replacement engine(dueling, 0, 4, 4, duel, rng);
    for (unsigned set = 0; set < 3; ++set)
        engine.reset(set);
    return engine;
}

constexpr unsigned kFollower = 0;
constexpr unsigned kLeaderA = 1;

TEST(Dueling, FollowerSwitchesInsertionPolicy)
{
    Rng rng(1);
    DuelState duel(10);
    auto follower = adaptiveEngine("QLRU_H11_M3_R1_U2", &duel, &rng);
    WayMask valid = fullMask(4);

    // With A winning, insertions use age 1; with B winning, age 3.
    for (int i = 0; i < 2000; ++i)
        duel.recordMiss(DuelRole::LeaderB); // A wins
    follower.onInsert(kFollower, 0, valid);
    EXPECT_EQ(follower.state(kFollower)[0], '1');
    for (int i = 0; i < 2000; ++i)
        duel.recordMiss(DuelRole::LeaderA); // B wins
    follower.onInsert(kFollower, 1, valid);
    EXPECT_EQ(follower.state(kFollower)[1], '3');
}

TEST(Dueling, LeaderIgnoresPsel)
{
    Rng rng(1);
    DuelState duel(10);
    auto leader = adaptiveEngine("QLRU_H11_M3_R1_U2", &duel, &rng);
    WayMask valid = fullMask(4);
    for (int i = 0; i < 2000; ++i)
        duel.recordMiss(DuelRole::LeaderA); // B wins the duel
    leader.onInsert(kLeaderA, 0, valid);
    EXPECT_EQ(leader.state(kLeaderA)[0], '1'); // still uses spec A
}

TEST(Dueling, LeaderMissesMoveCounter)
{
    Rng rng(1);
    DuelState duel(10);
    auto leader = adaptiveEngine("QLRU_H11_M1_R1_U2", &duel, &rng);
    WayMask valid = fullMask(4);
    unsigned before = duel.psel();
    leader.onInsert(kLeaderA, 0, valid);
    EXPECT_EQ(duel.psel(), before + 1);
}

// -------------------------------------------- Table I configurations --

class TableOneGeometry : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TableOneGeometry, ConstructsAndServesAccesses)
{
    const auto &ua = uarch::getMicroArch(GetParam());
    Rng rng(1);
    Hierarchy h(ua.cacheConfig, &rng);
    h.setPrefetcherControl(pf::kDisableAll);
    // 2048 sets per slice on every sliced part.
    if (ua.cacheConfig.l3Slices > 1) {
        EXPECT_EQ(h.l3Slice(0).numSets(), 2048u);
    }
    // L1 geometry per Table I.
    EXPECT_EQ(h.l1().numSets(), 64u);
    EXPECT_EQ(h.l1().assoc(), ua.cacheConfig.l1.assoc);
    // Basic access sanity.
    auto r = h.access(0x77777740, AccessType::Load);
    EXPECT_EQ(r.level, HitLevel::Memory);
    EXPECT_EQ(h.access(0x77777740, AccessType::Load).level,
              HitLevel::L1);
}

INSTANTIATE_TEST_SUITE_P(
    AllTableOneCpus, TableOneGeometry,
    ::testing::ValuesIn(uarch::tableOneMicroArchNames()));

} // namespace
} // namespace nb::cache
