#include "cache/hierarchy.hh"

#include "common/logging.hh"

namespace vspec
{

CacheHierarchy::CacheHierarchy(std::unique_ptr<Cache> l1_cache,
                               std::unique_ptr<Cache> l2_cache)
    : l1Cache(std::move(l1_cache)), l2Cache(std::move(l2_cache))
{
    if (!l1Cache || !l2Cache)
        fatal("CacheHierarchy requires both cache levels");
    if (l1Cache->geometry().sizeBytes >= l2Cache->geometry().sizeBytes)
        fatal("CacheHierarchy expects the L1 to be smaller than the L2");
}

HierarchyAccess
CacheHierarchy::access(std::uint64_t addr, Millivolt v_eff, Rng &rng)
{
    if (auto l1 = l1Cache->accessIfHit(addr, v_eff, rng))
        return {HitLevel::l1, std::move(l1->events), l1->uncorrectable};

    CacheAccess l2 = l2Cache->access(addr, v_eff, rng);
    // Fill the L1 with the (corrected) data.
    CacheAccess l1 = l1Cache->access(addr, v_eff, rng);
    HierarchyAccess result{l2.hit ? HitLevel::l2 : HitLevel::memory,
                           std::move(l2.events),
                           l2.uncorrectable || l1.uncorrectable};
    result.events.insert(result.events.end(), l1.events.begin(),
                         l1.events.end());
    return result;
}

void
CacheHierarchy::invalidateAll()
{
    l1Cache->invalidateAll();
    l2Cache->invalidateAll();
}

TargetedLineTest::TargetedLineTest(CacheHierarchy &hierarchy,
                                   std::uint64_t l2_set)
    : caches(hierarchy), targetSet(l2_set)
{
    const auto &l1_geo = caches.l1().geometry();
    const auto &l2_geo = caches.l2().geometry();

    if (l2_set >= l2_geo.numSets())
        fatal("TargetedLineTest: L2 set ", l2_set, " out of range");

    // Stride that preserves the L2 set: one full L2 span. It must also
    // preserve the L1 set, which holds whenever the L2 span is a
    // multiple of the L1 span (true for all power-of-two geometries
    // where the L2 is larger than the L1).
    const std::uint64_t l1_span =
        l1_geo.numSets() * l1_geo.lineBytes;
    const std::uint64_t l2_span =
        l2_geo.numSets() * l2_geo.lineBytes;
    if (l2_span % l1_span != 0)
        fatal("TargetedLineTest: L2 span not a multiple of the L1 span");

    const std::uint64_t base = l2_set * l2_geo.lineBytes;
    for (unsigned i = 0; i < l2_geo.associativity; ++i)
        targets.push_back(base + std::uint64_t(i) * l2_span);

    // Eviction addresses: step by one L1 span, which changes the L2 set
    // (the L1 span moves the L2 set index by l1_span / lineBytes lines)
    // while keeping the L1 set fixed.
    for (unsigned i = 1; i <= l1_geo.associativity; ++i) {
        const std::uint64_t addr =
            base + std::uint64_t(i) * l1_span +
            std::uint64_t(l2_geo.associativity) * l2_span;
        if (caches.l2().setOf(addr) == targetSet)
            fatal("TargetedLineTest: eviction address aliases into the "
                  "target L2 set");
        evictors.push_back(addr);
    }
}

TargetedTestResult
TargetedLineTest::run(std::uint64_t iterations, Millivolt v_eff, Rng &rng)
{
    TargetedTestResult result;

    auto absorb = [&](HierarchyAccess &&access) {
        result.events.insert(result.events.end(), access.events.begin(),
                             access.events.end());
        result.uncorrectable = result.uncorrectable || access.uncorrectable;
        return access.level;
    };

    for (std::uint64_t iter = 0; iter < iterations; ++iter) {
        // Step 1: populate every way of the target L2 set.
        for (std::uint64_t addr : targets)
            absorb(caches.access(addr, v_eff, rng));

        // Step 2: clear the L1 set without touching the target L2 set.
        for (std::uint64_t addr : evictors)
            absorb(caches.access(addr, v_eff, rng));

        // Step 3: re-access the targets; these must all hit in the L2.
        for (std::uint64_t addr : targets) {
            const HitLevel level = absorb(caches.access(addr, v_eff, rng));
            if (level == HitLevel::l2)
                ++result.l2Hits;
            else
                ++result.l2Misses;
        }
    }
    return result;
}

} // namespace vspec
