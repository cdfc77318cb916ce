#include "core/firmware_monitor.hh"

#include <string>

#include "common/logging.hh"
#include "snapshot/state_io.hh"

namespace vspec
{

FirmwareSelfTest::FirmwareSelfTest(CacheHierarchy &side,
                                   std::uint64_t l2_set, unsigned way)
    : FirmwareSelfTest(side, l2_set, way, Config())
{
}

FirmwareSelfTest::FirmwareSelfTest(CacheHierarchy &side,
                                   std::uint64_t l2_set, unsigned way,
                                   Config config)
    : CountingFeedbackSource(config.emergencyCeiling,
                             config.emergencyMinSamples),
      cfg(config), caches(&side), targetSet(l2_set), targetWay(way)
{
    if (cfg.testsPerSecond <= 0.0)
        fatal("FirmwareSelfTest needs a positive test rate");
    test = std::make_unique<TargetedLineTest>(side, l2_set);
}

ProbeStats
FirmwareSelfTest::runTests(Seconds dt, Millivolt v_eff, Rng &rng)
{
    ProbeStats stats;
    if (dt <= 0.0)
        return stats;

    const double budget = cfg.testsPerSecond * dt + testCarry;
    const std::uint64_t n = std::uint64_t(budget);
    testCarry = budget - double(n);
    if (n == 0)
        return stats;

    const TargetedTestResult result = test->run(n, v_eff, rng);

    // Each iteration's step 3 touches the designated way exactly once
    // (all ways of the set are re-read; only the designated line's
    // machine-check reports count toward the monitored rate). The
    // L1 reports too, and its (set, way) can equal the designated
    // line's (L2 set 0 maps to L1 set 0), so the cache must match.
    const std::string &l2_name = caches->l2().geometry().name;
    stats.accesses = n;
    for (const auto &event : result.events) {
        if (event.cacheName != l2_name || event.set != targetSet ||
            event.way != targetWay)
            continue;
        if (event.status == EccStatus::correctedSingle)
            ++stats.correctableEvents;
        else if (event.status == EccStatus::uncorrectable)
            ++stats.uncorrectableEvents;
    }

    accumulate(stats, result.uncorrectable);
    return stats;
}

void
FirmwareSelfTest::saveState(StateWriter &w) const
{
    saveCounters(w);
    w.putU64(targetSet);
    w.putU64(targetWay);
    w.putDouble(testCarry);
}

void
FirmwareSelfTest::loadState(StateReader &r)
{
    loadCounters(r);
    const std::uint64_t snap_set = r.getU64();
    const unsigned snap_way = unsigned(r.getU64());
    if (snap_set != targetSet || snap_way != targetWay)
        throw SnapshotError(
            "firmware self-test target mismatch: snapshot set " +
            std::to_string(snap_set) + " way " +
            std::to_string(snap_way) + ", constructed set " +
            std::to_string(targetSet) + " way " +
            std::to_string(targetWay));
    testCarry = r.getDouble();
}

} // namespace vspec
