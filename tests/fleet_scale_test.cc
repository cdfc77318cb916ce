/**
 * @file
 * Tests for the datacenter-scale hot path: the SoA ShardedFleet, the
 * TrafficGenerator, and the hot/cold split. Determinism assertions are
 * exact (EXPECT_EQ on doubles, deliberately): scale reports are
 * byte-compared across worker-thread counts, so "close" is a failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "fleet/shard.hh"
#include "fleet/traffic.hh"
#include "platform/experiment_pool.hh"
#include "snapshot/state_io.hh"

namespace vspec
{
namespace
{

ScaleFleetConfig
scaleTestConfig(unsigned chips = 1000,
                SchedulerPolicy policy = SchedulerPolicy::leastLoaded)
{
    ScaleFleetConfig cfg;
    cfg.numChips = chips;
    cfg.chipsPerShard = 256; // several shards even in small tests
    cfg.slice = 0.1;
    cfg.horizon = 8.0;
    cfg.seed = 0x5CA1EULL;
    cfg.policy = policy;

    cfg.traffic.baseArrivalsPerSecond = 2.0 * double(chips);
    cfg.traffic.users = std::uint64_t(chips) * 10;
    cfg.traffic.hotSessionFraction = 0.1;
    cfg.traffic.hotSessions =
        std::min<std::uint64_t>(128, cfg.traffic.users);
    cfg.traffic.diurnalAmplitude = 0.3;
    cfg.traffic.diurnalPeriod = 8.0;
    cfg.traffic.flashesPerHour = 600.0;
    cfg.traffic.flashMagnitude = 1.0;
    cfg.traffic.flashDecayTau = 2.0;
    cfg.traffic.closedUsers = 0.2 * double(chips);
    cfg.traffic.firstArrival = 1.0;
    cfg.traffic.seed = 0xBEE5;

    cfg.governor.fleetBudget = 9.0 * double(chips);
    cfg.governor.interval = 0.5;
    cfg.governor.minChipCap = 2.0;
    return cfg;
}

void
expectIdenticalScaleReports(const FleetReport &a, const FleetReport &b)
{
    EXPECT_EQ(a.simulated, b.simulated);
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.completedCritical, b.completedCritical);
    EXPECT_EQ(a.pendingAtEnd, b.pendingAtEnd);
    EXPECT_EQ(a.slaViolations, b.slaViolations);
    EXPECT_EQ(a.throughputPerSec, b.throughputPerSec);
    EXPECT_EQ(a.meanLatency, b.meanLatency);
    EXPECT_EQ(a.p50Latency, b.p50Latency);
    EXPECT_EQ(a.p99Latency, b.p99Latency);
    EXPECT_EQ(a.fleetEnergy, b.fleetEnergy);
    EXPECT_EQ(a.energyPerJob, b.energyPerJob);
    EXPECT_EQ(a.meanFleetPower, b.meanFleetPower);
    EXPECT_EQ(a.availability, b.availability);
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_EQ(a.throttleEpisodes, b.throttleEpisodes);
}

TEST(TrafficGenerator, StreamIsDeterministic)
{
    TrafficGenerator a(scaleTestConfig().traffic);
    TrafficGenerator b(scaleTestConfig().traffic);
    std::vector<TrafficArrival> out_a, out_b;
    for (int s = 0; s < 40; ++s) {
        a.generateSlice(0.1 * s, 0.1 * (s + 1), 0.5, out_a);
        b.generateSlice(0.1 * s, 0.1 * (s + 1), 0.5, out_b);
    }
    ASSERT_EQ(out_a.size(), out_b.size());
    ASSERT_FALSE(out_a.empty());
    for (std::size_t i = 0; i < out_a.size(); ++i) {
        EXPECT_EQ(out_a[i].id, out_b[i].id);
        EXPECT_EQ(out_a[i].session, out_b[i].session);
        EXPECT_EQ(out_a[i].classIndex, out_b[i].classIndex);
        EXPECT_EQ(out_a[i].arrival, out_b[i].arrival);
        EXPECT_EQ(out_a[i].serviceTime, out_b[i].serviceTime);
        EXPECT_EQ(out_a[i].deadline, out_b[i].deadline);
    }
    // Arrival order within and across slices.
    for (std::size_t i = 1; i < out_a.size(); ++i)
        EXPECT_GE(out_a[i].arrival, out_a[i - 1].arrival);
}

TEST(TrafficGenerator, DiurnalCurveShapesTheOpenLoopRate)
{
    TrafficGenerator::Config cfg;
    cfg.baseArrivalsPerSecond = 100.0;
    cfg.diurnalAmplitude = 0.5;
    cfg.diurnalPeriod = 40.0;
    cfg.firstArrival = 2.0;
    TrafficGenerator gen(cfg);

    EXPECT_EQ(gen.openLoopRate(1.9), 0.0); // stream not open yet
    // Quarter period after opening: the sinusoid's crest; three
    // quarters in: the trough.
    EXPECT_NEAR(gen.openLoopRate(2.0 + 10.0), 150.0, 1e-9);
    EXPECT_NEAR(gen.openLoopRate(2.0 + 30.0), 50.0, 1e-9);
    EXPECT_NEAR(gen.openLoopRate(2.0), 100.0, 1e-9);
}

TEST(TrafficGenerator, FlashCrowdsSpikeAndDecay)
{
    TrafficGenerator::Config cfg;
    cfg.baseArrivalsPerSecond = 50.0;
    cfg.flashesPerHour = 3600.0; // ~one onset per second
    cfg.flashMagnitude = 2.0;
    cfg.flashDecayTau = 1.0;
    cfg.seed = 11;
    TrafficGenerator flashy(cfg);

    TrafficGenerator::Config quiet_cfg = cfg;
    quiet_cfg.flashesPerHour = 0.0;
    TrafficGenerator quiet(quiet_cfg);

    std::vector<TrafficArrival> flashy_out, quiet_out;
    double peak_boost = 0.0;
    for (int s = 0; s < 100; ++s) {
        flashy.generateSlice(0.1 * s, 0.1 * (s + 1), 0.0, flashy_out);
        quiet.generateSlice(0.1 * s, 0.1 * (s + 1), 0.0, quiet_out);
        peak_boost = std::max(peak_boost, flashy.flashBoost());
    }
    EXPECT_GE(peak_boost, cfg.flashMagnitude); // at least one onset hit
    EXPECT_GT(flashy_out.size(), quiet_out.size() * 3 / 2);
    EXPECT_EQ(quiet.flashBoost(), 0.0); // onsets disabled: never spikes
}

TEST(TrafficGenerator, ClosedLoopUsersBackOffUnderLatency)
{
    TrafficGenerator::Config cfg;
    cfg.baseArrivalsPerSecond = 0.0;
    cfg.closedUsers = 400.0;
    cfg.thinkTime = 2.0;
    cfg.seed = 21;
    TrafficGenerator fast(cfg);
    TrafficGenerator slow(cfg);

    std::vector<TrafficArrival> fast_out, slow_out;
    for (int s = 0; s < 50; ++s) {
        fast.generateSlice(0.1 * s, 0.1 * (s + 1), 0.0, fast_out);
        slow.generateSlice(0.1 * s, 0.1 * (s + 1), 8.0, slow_out);
    }
    // rate = closed / (think + latency): 200/s vs 40/s offered.
    EXPECT_GT(fast_out.size(), slow_out.size() * 2);
}

TEST(TrafficGenerator, HotSessionsConcentrateOnTheHotSet)
{
    TrafficGenerator::Config cfg;
    cfg.baseArrivalsPerSecond = 500.0;
    cfg.users = 1'000'000;
    cfg.hotSessionFraction = 1.0;
    cfg.hotSessions = 32;
    cfg.seed = 31;
    TrafficGenerator gen(cfg);
    std::vector<TrafficArrival> out;
    gen.generateSlice(0.0, 4.0, 0.0, out);
    ASSERT_GT(out.size(), 100u);
    std::set<std::uint64_t> sessions;
    for (const TrafficArrival &a : out) {
        EXPECT_LT(a.session, 32u);
        sessions.insert(a.session);
    }
    EXPECT_GT(sessions.size(), 8u); // spread across the hot set

    cfg.hotSessionFraction = 0.0;
    TrafficGenerator cold(cfg);
    out.clear();
    cold.generateSlice(0.0, 4.0, 0.0, out);
    std::set<std::uint64_t> cold_sessions;
    for (const TrafficArrival &a : out) {
        EXPECT_GE(a.session, 32u);
        cold_sessions.insert(a.session);
    }
    // A million-user population: virtually every arrival is a
    // distinct session.
    EXPECT_GT(cold_sessions.size(), out.size() * 9 / 10);
}

TEST(TrafficGenerator, SnapshotResumesTheExactStream)
{
    const auto cfg = scaleTestConfig().traffic;
    TrafficGenerator whole(cfg);
    TrafficGenerator halted(cfg);
    std::vector<TrafficArrival> whole_out, first_half;
    for (int s = 0; s < 30; ++s)
        whole.generateSlice(0.1 * s, 0.1 * (s + 1), 0.2, whole_out);
    for (int s = 0; s < 15; ++s)
        halted.generateSlice(0.1 * s, 0.1 * (s + 1), 0.2, first_half);

    StateWriter w;
    w.beginSection("traffic");
    halted.saveState(w);
    w.endSection();
    TrafficGenerator resumed(cfg);
    StateReader r(w.finish());
    r.beginSection("traffic");
    resumed.loadState(r);
    r.endSection();

    std::vector<TrafficArrival> second_half = first_half;
    for (int s = 15; s < 30; ++s)
        resumed.generateSlice(0.1 * s, 0.1 * (s + 1), 0.2,
                              second_half);
    ASSERT_EQ(second_half.size(), whole_out.size());
    for (std::size_t i = 0; i < whole_out.size(); ++i) {
        EXPECT_EQ(second_half[i].id, whole_out[i].id);
        EXPECT_EQ(second_half[i].session, whole_out[i].session);
        EXPECT_EQ(second_half[i].serviceTime, whole_out[i].serviceTime);
    }
}

TEST(ShardedFleet, RunIsIdenticalForEveryWorkerThreadCount)
{
    FleetReport reference;
    bool have_reference = false;
    for (unsigned threads : {1u, 4u, 8u}) {
        ExperimentPool pool(threads);
        ShardedFleet fleet(scaleTestConfig(2000));
        fleet.run(8.0, pool);
        const FleetReport rep = fleet.report();
        ASSERT_GT(rep.completed, 0u);
        if (!have_reference) {
            reference = rep;
            have_reference = true;
        } else {
            expectIdenticalScaleReports(reference, rep);
        }
    }
}

TEST(ShardedFleet, ChipBatchedRunIsIdenticalForEveryWorkerThreadCount)
{
    // The pooled bucket draws live in per-shard RNG streams, so the
    // chip-batched scale path must stay byte-deterministic across
    // worker counts exactly like the per-chip path.
    FleetReport reference;
    bool have_reference = false;
    for (unsigned threads : {1u, 4u, 8u}) {
        ExperimentPool pool(threads);
        ScaleFleetConfig cfg = scaleTestConfig(2000);
        cfg.sampling = SamplingMode::chipBatched;
        ShardedFleet fleet(cfg);
        fleet.run(8.0, pool);
        const FleetReport rep = fleet.report();
        ASSERT_GT(rep.completed, 0u);
        if (!have_reference) {
            reference = rep;
            have_reference = true;
        } else {
            expectIdenticalScaleReports(reference, rep);
        }
    }
}

TEST(ShardedFleet, OddShardWidthIsThreadIdentical)
{
    // 100-chip shards are not a multiple of 64, so neighbouring shard
    // tasks write the governor's absent flags in one 64-bit word, and
    // rail groups, racks and thermal zones straddle shard boundaries,
    // so two tasks charge SLA misses to the same domain. Over 4096
    // arrivals a slice also split the candidate pass into chunks.
    ScaleFleetConfig cfg =
        scaleTestConfig(1000, SchedulerPolicy::marginAware);
    cfg.chipsPerShard = 100;
    cfg.horizon = 4.0;
    cfg.traffic.baseArrivalsPerSecond = 50.0 * 1000.0;
    cfg.traffic.users = 1000 * 50;
    JobClass interactive;
    interactive.name = "interactive";
    interactive.arrivalWeight = 3.0;
    interactive.meanServiceTime = 0.05;
    interactive.minServiceTime = 0.01;
    interactive.deadline = 0.4;
    interactive.latencyCritical = true;
    interactive.maxRetries = 2;
    interactive.retryBackoff = 0.1;
    interactive.hedge = true;
    JobClass batch;
    batch.name = "batch";
    batch.meanServiceTime = 0.2;
    batch.minServiceTime = 0.05;
    batch.deadline = 2.0;
    batch.maxRetries = 1;
    batch.retryBackoff = 0.2;
    cfg.traffic.classes = {interactive, batch};
    cfg.chip.recoveryPenalty = 2.0;
    cfg.governor.fleetBudget = 8.0 * 1000.0;
    cfg.chaos.railGroupSize = 32;
    cfg.chaos.railDroopsPerHour = 240.0;
    cfg.chaos.railDroopMagnitudeMv = 45.0;
    cfg.chaos.railDroopDuration = 1.5;
    cfg.chaos.rackSize = 64;
    cfg.chaos.dueStormsPerHour = 360.0;
    cfg.chaos.dueStormRate = 3.0;
    cfg.chaos.dueStormDuration = 2.0;
    cfg.chaos.thermalZoneSize = 128;
    cfg.chaos.thermalEventsPerHour = 120.0;
    cfg.chaos.thermalMarginPenaltyMv = 25.0;
    cfg.chaos.thermalDuration = 3.0;
    cfg.health.enabled = true;
    cfg.health.windowTau = 2.0;
    cfg.health.degradeRate = 0.3;
    cfg.health.quarantineRate = 1.0;
    cfg.health.quarantineHold = 0.3;
    cfg.health.selfTestDuration = 1.0;
    cfg.health.probationDuration = 2.0;
    cfg.retryWatchdog = 0.5;
    cfg.auditEverySlices = 5;

    std::vector<std::uint8_t> reference_bytes;
    FleetReport reference;
    for (unsigned threads : {1u, 4u, 8u}) {
        ExperimentPool pool(threads);
        ShardedFleet fleet(cfg);
        fleet.run(6.0, pool);
        EXPECT_TRUE(fleet.auditViolations().empty());
        StateWriter w;
        fleet.snapshot(w);
        const FleetReport rep = fleet.report();
        if (threads == 1) {
            // Every path the shard tasks now own must be exercised.
            EXPECT_GT(rep.quarantines, 0u);
            EXPECT_GT(rep.retries, 0u);
            EXPECT_GT(rep.hedgedJobs, 0u);
            EXPECT_GT(rep.watchdogForced, 0u);
            EXPECT_GT(rep.throttleEpisodes, 0u);
            std::uint64_t misses = 0;
            for (const FleetReport::DomainImpact &row : rep.domainImpact)
                misses += row.slaMisses;
            EXPECT_GT(misses, 0u);
            reference_bytes = w.finish();
            reference = rep;
            continue;
        }
        EXPECT_EQ(w.finish(), reference_bytes) << threads << " workers";
        expectIdenticalScaleReports(reference, rep);
        EXPECT_EQ(rep.quarantines, reference.quarantines);
        EXPECT_EQ(rep.retries, reference.retries);
        EXPECT_EQ(rep.hedgedJobs, reference.hedgedJobs);
        ASSERT_EQ(rep.domainImpact.size(), reference.domainImpact.size());
        for (std::size_t i = 0; i < rep.domainImpact.size(); ++i) {
            const FleetReport::DomainImpact &a = reference.domainImpact[i];
            const FleetReport::DomainImpact &b = rep.domainImpact[i];
            EXPECT_EQ(a.kind, b.kind);
            EXPECT_EQ(a.domain, b.domain);
            EXPECT_EQ(a.events, b.events);
            EXPECT_EQ(a.dues, b.dues);
            EXPECT_EQ(a.quarantines, b.quarantines);
            EXPECT_EQ(a.slaMisses, b.slaMisses);
            EXPECT_EQ(a.offlineCoreSeconds, b.offlineCoreSeconds);
        }
    }
}

TEST(ShardedFleet, ChipBatchedStatisticallyTracksExact)
{
    // Pooled bucket-level Poisson draws thinned onto member chips must
    // leave the fleet-level closed-loop behavior statistically where
    // the per-chip draws put it: comparable job accounting and rail
    // descent, not byte identity.
    ExperimentPool pool(4);
    ShardedFleet exact(scaleTestConfig(1000));
    exact.run(8.0, pool);

    ScaleFleetConfig cfg = scaleTestConfig(1000);
    cfg.sampling = SamplingMode::chipBatched;
    ShardedFleet pooled(cfg);
    pooled.run(8.0, pool);

    const FleetReport re = exact.report();
    const FleetReport rp = pooled.report();
    ASSERT_GT(re.completed, 0u);
    ASSERT_GT(rp.completed, 0u);
    // Job completion is driven by traffic (shared stream), not noise.
    EXPECT_NEAR(double(rp.completed), double(re.completed),
                0.02 * double(re.completed) + 10.0);
    // Mean descended rail within a couple of regulator steps.
    double mean_exact = 0.0, mean_pooled = 0.0;
    for (unsigned c = 0; c < 1000; ++c) {
        mean_exact += exact.railMv(c);
        mean_pooled += pooled.railMv(c);
    }
    mean_exact /= 1000.0;
    mean_pooled /= 1000.0;
    EXPECT_NEAR(mean_pooled, mean_exact, 10.0);
}

TEST(ShardedFleet, ChunkedRunMatchesStraightRun)
{
    ExperimentPool pool(4);
    ShardedFleet straight(scaleTestConfig(500));
    straight.run(8.0, pool);

    ShardedFleet chunked(scaleTestConfig(500));
    for (int i = 0; i < 8; ++i)
        chunked.run(1.0, pool);

    expectIdenticalScaleReports(straight.report(), chunked.report());
    for (unsigned c = 0; c < 500; c += 37) {
        EXPECT_EQ(straight.railMv(c), chunked.railMv(c));
        EXPECT_EQ(straight.queueDepth(c), chunked.queueDepth(c));
        EXPECT_EQ(straight.riskScore(c), chunked.riskScore(c));
    }
}

TEST(ShardedFleet, AccountingConservesEveryPlacedJob)
{
    ExperimentPool pool(4);
    for (SchedulerPolicy policy :
         {SchedulerPolicy::roundRobin, SchedulerPolicy::leastLoaded,
          SchedulerPolicy::marginAware, SchedulerPolicy::riskAware}) {
        ShardedFleet fleet(scaleTestConfig(500, policy));
        fleet.run(8.0, pool);
        const FleetReport rep = fleet.report();
        ASSERT_GT(rep.submitted, 0u);
        EXPECT_EQ(rep.submitted, rep.completed + rep.pendingAtEnd);
        EXPECT_GT(rep.completed, 0u);
        EXPECT_GT(rep.fleetEnergy, 0.0);
        EXPECT_GT(rep.p99Latency, rep.p50Latency);
    }
}

TEST(ShardedFleet, EccFeedbackEarnsPerChipFloors)
{
    ExperimentPool pool(4);
    ShardedFleet fleet(scaleTestConfig(500));
    fleet.run(8.0, pool);

    const ScaleChipModel &m = fleet.config().chip;
    unsigned descended = 0;
    double spread_lo = 1e9, spread_hi = -1e9;
    for (unsigned c = 0; c < 500; ++c) {
        EXPECT_GE(fleet.railMv(c), m.floorMv);
        EXPECT_LE(fleet.railMv(c), m.nominalVdd);
        EXPECT_LE(fleet.earnedFloorMv(c), fleet.railMv(c) + 1e-9);
        if (fleet.earnedFloorMv(c) < m.nominalVdd - 50.0)
            ++descended;
        spread_lo = std::min(spread_lo, fleet.earnedFloorMv(c));
        spread_hi = std::max(spread_hi, fleet.earnedFloorMv(c));
    }
    // After 8 s (80 descent slices) nearly every chip has undervolted
    // well past the guardband, and process variation has spread the
    // earned floors.
    EXPECT_GT(descended, 450u);
    EXPECT_GT(spread_hi - spread_lo, 30.0);
}

TEST(ShardedFleet, MergedShardQuantilesEqualAnyFoldOrder)
{
    ExperimentPool pool(4);
    ShardedFleet fleet(scaleTestConfig(1000));
    fleet.run(8.0, pool);
    ASSERT_GT(fleet.numShards(), 2u);

    const FleetMetrics forward = fleet.mergedMetrics();
    FleetMetrics backward;
    for (unsigned s = fleet.numShards(); s-- > 0;)
        backward.merge(fleet.shardMetrics(s));

    ASSERT_GT(forward.completed(), 0u);
    EXPECT_EQ(forward.completed(), backward.completed());
    EXPECT_EQ(forward.latencyQuantile(0.50),
              backward.latencyQuantile(0.50));
    EXPECT_EQ(forward.latencyQuantile(0.99),
              backward.latencyQuantile(0.99));
    EXPECT_EQ(forward.slaViolations(), backward.slaViolations());
}

TEST(ShardedFleet, SketchAgreesWithExactHistogramAtScale)
{
    // The acceptance cross-check: 1000 chips with the validation mode
    // armed; the sketch's p50/p99 must sit within the documented
    // bounds of the exact histogram's estimates.
    ExperimentPool pool(4);
    ScaleFleetConfig cfg = scaleTestConfig(1000);
    cfg.exactLatencyValidation = true;
    ShardedFleet fleet(cfg);
    fleet.run(8.0, pool);

    const FleetMetrics merged = fleet.mergedMetrics();
    ASSERT_GT(merged.completed(), 1000u);
    const double rel = merged.latencySketch().relativeErrorBound();
    const double half_bin = 0.05; // 120 s / 1200 bins / 2
    for (double q : {0.50, 0.90, 0.99}) {
        const double s = merged.latencyQuantile(q);
        const double e = merged.exactLatencyQuantile(q);
        EXPECT_LE(std::abs(s - e), rel * (e + half_bin) + half_bin)
            << "q=" << q << " sketch=" << s << " exact=" << e;
    }
}

TEST(ShardedFleet, SnapshotRestoreContinuesBitIdentically)
{
    ExperimentPool pool(4);
    ShardedFleet straight(scaleTestConfig(500));
    straight.run(8.0, pool);

    ShardedFleet halted(scaleTestConfig(500));
    halted.run(4.0, pool);
    StateWriter w;
    halted.snapshot(w);

    ShardedFleet resumed(scaleTestConfig(500));
    StateReader r(w.finish());
    resumed.restore(r);
    EXPECT_EQ(resumed.now(), halted.now());
    resumed.run(4.0, pool);

    expectIdenticalScaleReports(straight.report(), resumed.report());
    for (unsigned c = 0; c < 500; c += 23) {
        EXPECT_EQ(straight.railMv(c), resumed.railMv(c));
        EXPECT_EQ(straight.minSafeMv(c), resumed.minSafeMv(c));
        EXPECT_EQ(straight.earnedFloorMv(c), resumed.earnedFloorMv(c));
        EXPECT_EQ(straight.queueDepth(c), resumed.queueDepth(c));
    }

    // Geometry guard: a fleet built for a different shard cut refuses
    // the snapshot.
    ScaleFleetConfig other = scaleTestConfig(500);
    other.chipsPerShard = 128;
    ShardedFleet mismatched(other);
    StateReader r2(w.finish());
    EXPECT_THROW(mismatched.restore(r2), SnapshotError);
}

TEST(ShardedFleet, RiskAwarePlacementAvoidsRiskyChips)
{
    // Force visible risk: high DUE rate so recoveries actually happen
    // within the horizon.
    ScaleFleetConfig cfg = scaleTestConfig(200, SchedulerPolicy::riskAware);
    cfg.chip.dueRateAtMinSafe = 2.0;
    cfg.chip.dueScaleMv = 30.0;
    ExperimentPool pool(2);
    ShardedFleet fleet(cfg);
    fleet.run(8.0, pool);
    const FleetReport rep = fleet.report();
    EXPECT_GT(rep.recoveries, 0u);
    EXPECT_LT(rep.availability, 1.0);
    EXPECT_GT(rep.completed, 0u);
}

TEST(ShardedFleet, MaterializedColdNodeIsDeterministic)
{
    // The hot/cold bridge: promoting the same scale-model chip twice
    // yields the same fully armed FleetNode (same mix64(seed, chip)
    // identity, same calibration).
    ScaleFleetConfig cfg = scaleTestConfig(8);
    cfg.cold.numChips = 8;
    ShardedFleet fleet(cfg);

    const auto a = fleet.materializeNode(3);
    const auto b = fleet.materializeNode(3);
    ASSERT_EQ(a->index(), 3u);
    ASSERT_EQ(b->index(), 3u);
    const unsigned cores = a->schedulableCores();
    ASSERT_GT(cores, 0u);
    EXPECT_EQ(cores, b->schedulableCores());
    EXPECT_EQ(a->chip().variation().chipSeed(),
              b->chip().variation().chipSeed());
    for (unsigned core = 0; core < cores; ++core)
        EXPECT_EQ(a->headroom(core), b->headroom(core));

    // Different chip index, different die: the variation sample moves.
    const auto other = fleet.materializeNode(4);
    EXPECT_NE(other->chip().variation().chipSeed(),
              a->chip().variation().chipSeed());
}

} // namespace
} // namespace vspec
