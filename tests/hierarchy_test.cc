/**
 * @file
 * Tests for the two-level hierarchy and the Fig. 7 targeted-line test:
 * the firmware trick must reliably turn step-3 accesses into L1 misses
 * that hit the resident L2 ways.
 */

#include <set>

#include <gtest/gtest.h>

#include "cache/geometry.hh"
#include "cache/hierarchy.hh"
#include "common/rng.hh"

namespace vspec
{
namespace
{

VcDistribution
quietDist()
{
    VcDistribution d;
    d.mean = 100.0;
    d.sigmaRandom = 5.0;
    d.sigmaDynamic = 5.0;
    return d;
}

/** A low-point die: a wide cell population sitting near the rail. */
VcDistribution
lowPointDist()
{
    VcDistribution d;
    d.mean = 300.0;
    d.sigmaRandom = 55.0;
    d.sigmaDynamic = 10.0;
    return d;
}

std::unique_ptr<CacheHierarchy>
makeHierarchy(std::uint64_t seed, const CacheGeometry &l2_geo,
              const VcDistribution &dist = quietDist(),
              Millivolt v_floor = 150.0)
{
    Rng rng(seed);
    auto l1 = std::make_unique<Cache>(itanium9560::l1Instruction(), dist,
                                      v_floor, rng);
    auto l2 = std::make_unique<Cache>(l2_geo, dist, v_floor, rng);
    return std::make_unique<CacheHierarchy>(std::move(l1),
                                            std::move(l2));
}

TEST(CacheHierarchy, MissFillsBothLevels)
{
    auto h = makeHierarchy(1, itanium9560::l2Instruction());
    Rng draw(2);
    EXPECT_EQ(h->access(0x12340, 800.0, draw).level, HitLevel::memory);
    EXPECT_EQ(h->access(0x12340, 800.0, draw).level, HitLevel::l1);
}

TEST(CacheHierarchy, L1EvictionFallsBackToL2)
{
    auto h = makeHierarchy(3, itanium9560::l2Instruction());
    Rng draw(4);
    const auto &l1_geo = h->l1().geometry();
    const std::uint64_t l1_span = l1_geo.numSets() * l1_geo.lineBytes;

    // Fill one L1 set beyond its associativity; the first address gets
    // evicted from L1 but should remain in the much larger L2.
    for (unsigned i = 0; i <= l1_geo.associativity; ++i)
        h->access(i * l1_span, 800.0, draw);
    EXPECT_EQ(h->access(0, 800.0, draw).level, HitLevel::l2);
}

class TargetedTestGeometry : public ::testing::TestWithParam<bool>
{
};

TEST_P(TargetedTestGeometry, AllStep3AccessesHitL2)
{
    // Both the 512 KB L2I and the 256 KB L2D shapes must work.
    const CacheGeometry l2_geo = GetParam()
                                     ? itanium9560::l2Instruction()
                                     : itanium9560::l2Data();
    auto h = makeHierarchy(5, l2_geo);

    TargetedLineTest test(*h, /*l2_set=*/37);
    EXPECT_EQ(test.targetAddresses().size(), l2_geo.associativity);
    EXPECT_EQ(test.evictAddresses().size(),
              h->l1().geometry().associativity);

    // All targets map to the same L2 set and one L1 set.
    const std::uint64_t l1_set =
        h->l1().setOf(test.targetAddresses().front());
    for (std::uint64_t addr : test.targetAddresses()) {
        EXPECT_EQ(h->l2().setOf(addr), 37u);
        EXPECT_EQ(h->l1().setOf(addr), l1_set);
    }
    // Evictors share the L1 set but not the L2 set.
    for (std::uint64_t addr : test.evictAddresses()) {
        EXPECT_EQ(h->l1().setOf(addr), l1_set);
        EXPECT_NE(h->l2().setOf(addr), 37u);
    }

    Rng draw(6);
    const TargetedTestResult result = test.run(20, 800.0, draw);
    EXPECT_EQ(result.l2Misses, 0u);
    EXPECT_EQ(result.l2Hits, 20u * l2_geo.associativity);
    EXPECT_FALSE(result.uncorrectable);
}

INSTANTIATE_TEST_SUITE_P(BothL2Shapes, TargetedTestGeometry,
                         ::testing::Bool());

TEST(TargetedLineTest, DistinctTags)
{
    auto h = makeHierarchy(7, itanium9560::l2Instruction());
    TargetedLineTest test(*h, 0);
    std::set<std::uint64_t> tags;
    for (std::uint64_t addr : test.targetAddresses())
        EXPECT_TRUE(tags.insert(h->l2().tagOf(addr)).second);
}

TEST(TargetedLineTest, RejectsOutOfRangeSet)
{
    auto h = makeHierarchy(8, itanium9560::l2Instruction());
    EXPECT_EXIT(
        {
            TargetedLineTest bad(*h, h->l2().geometry().numSets());
        },
        ::testing::ExitedWithCode(1), "");
}

/**
 * The targeted test of the weakest L2 line on a low-point die, at
 * 500 mV, where weak cells of both levels flip: the sequence of ECC
 * events (cache, set, way, word, status) and the step-3 hit/miss
 * counts over 60 iterations, pinned to recorded values.
 */
TEST(TargetedLineTest, RunIsPinned)
{
    auto h = makeHierarchy(11, itanium9560::l2Instruction(),
                           lowPointDist(), 400.0);
    const WeakLineInfo weakest = h->l2().dataArray().weakestLine();
    TargetedLineTest test(*h, weakest.set);

    Rng draw(12);
    const TargetedTestResult result = test.run(60, 500.0, draw);

    // FNV-1a over every event field, in event order.
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const auto fold = [&hash](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    };
    std::uint64_t l1_events = 0, l2_events = 0;
    for (const EccEvent &event : result.events) {
        for (char c : event.cacheName)
            fold(std::uint64_t(c));
        fold(event.set);
        fold(event.way);
        fold(event.word);
        fold(std::uint64_t(event.status));
        l1_events += event.cacheName == h->l1().geometry().name;
        l2_events += event.cacheName == h->l2().geometry().name;
    }
    EXPECT_EQ(result.events.size(), 411u);
    EXPECT_EQ(l1_events, 134u);
    EXPECT_EQ(l2_events, 277u);
    EXPECT_EQ(hash, 0xd96985199e580638ULL);
    EXPECT_EQ(result.l2Hits, 480u);
    EXPECT_EQ(result.l2Misses, 0u);
    EXPECT_EQ(result.uncorrectable, false);
}

TEST(CacheHierarchy, InvalidateAllClearsBothLevels)
{
    auto h = makeHierarchy(9, itanium9560::l2Instruction());
    Rng draw(10);
    h->access(0x8000, 800.0, draw);
    h->invalidateAll();
    EXPECT_EQ(h->access(0x8000, 800.0, draw).level, HitLevel::memory);
}

} // namespace
} // namespace vspec
