/**
 * @file
 * Tests for the fleet layer: deterministic job arrivals, the four
 * scheduling policies, power-cap redistribution and throttling,
 * mergeable metrics, and the multi-chip driver's thread-count
 * invariance.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "fleet/fleet.hh"
#include "fleet/fleet_metrics.hh"
#include "fleet/job.hh"
#include "fleet/power_governor.hh"
#include "fleet/scheduler.hh"
#include "platform/experiment_pool.hh"
#include "platform/invariant_auditor.hh"
#include "snapshot/state_io.hh"

namespace vspec
{
namespace
{

JobQueue::Config
testJobConfig(double rate = 10.0, std::uint64_t seed = 7)
{
    JobQueue::Config cfg;
    cfg.arrivalsPerSecond = rate;
    cfg.seed = seed;
    return cfg;
}

TEST(JobQueue, ArrivalsAreDeterministicAndChunkInvariant)
{
    JobQueue whole(testJobConfig());
    JobQueue chunked(testJobConfig());

    const std::vector<Job> all = whole.drainArrivalsUpTo(50.0);
    std::vector<Job> pieces;
    for (Seconds t = 0.7; t <= 50.0 + 1e-9; t += 0.7) {
        for (const Job &job : chunked.drainArrivalsUpTo(t))
            pieces.push_back(job);
    }
    // A last drain at exactly 50.0 picks up the tail of the range the
    // chunk loop did not reach.
    for (const Job &job : chunked.drainArrivalsUpTo(50.0))
        pieces.push_back(job);

    ASSERT_EQ(all.size(), pieces.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(all[i].id, pieces[i].id);
        EXPECT_EQ(all[i].classIndex, pieces[i].classIndex);
        EXPECT_DOUBLE_EQ(all[i].arrival, pieces[i].arrival);
        EXPECT_DOUBLE_EQ(all[i].serviceTime, pieces[i].serviceTime);
        EXPECT_DOUBLE_EQ(all[i].deadline, pieces[i].deadline);
    }

    JobQueue other(testJobConfig(10.0, /*seed=*/8));
    const std::vector<Job> different = other.drainArrivalsUpTo(50.0);
    ASSERT_FALSE(different.empty());
    EXPECT_NE(different.front().arrival, all.front().arrival);
}

TEST(JobQueue, ArrivalRateMatchesTheConfiguredMean)
{
    JobQueue queue(testJobConfig(/*rate=*/20.0));
    const auto jobs = queue.drainArrivalsUpTo(200.0);
    // 4000 expected arrivals; allow a generous statistical band.
    EXPECT_GT(jobs.size(), 3600u);
    EXPECT_LT(jobs.size(), 4400u);
    for (const Job &job : jobs) {
        EXPECT_GE(job.arrival, 0.0);
        EXPECT_LE(job.arrival, 200.0);
        EXPECT_GT(job.serviceTime, 0.0);
        EXPECT_GT(job.deadline, job.arrival);
    }
}

TEST(JobQueue, ClassMixFollowsArrivalWeights)
{
    JobQueue queue(testJobConfig(/*rate=*/50.0));
    ASSERT_EQ(queue.classes().size(), 2u);
    // Default mix: interactive weight 3, batch weight 1.
    const auto jobs = queue.drainArrivalsUpTo(100.0);
    std::uint64_t interactive = 0;
    for (const Job &job : jobs)
        interactive += queue.classOf(job).latencyCritical ? 1 : 0;
    const double fraction = double(interactive) / double(jobs.size());
    EXPECT_NEAR(fraction, 0.75, 0.04);
}

TEST(JobQueue, ServiceTimesRespectTheClassFloorAndMean)
{
    JobQueue queue(testJobConfig(/*rate=*/50.0));
    const auto jobs = queue.drainArrivalsUpTo(200.0);
    double batch_sum = 0.0;
    std::uint64_t batch_count = 0;
    for (const Job &job : jobs) {
        const JobClass &cls = queue.classOf(job);
        EXPECT_GE(job.serviceTime, cls.minServiceTime);
        if (!cls.latencyCritical) {
            batch_sum += job.serviceTime;
            ++batch_count;
        }
    }
    ASSERT_GT(batch_count, 500u);
    // Exponential mean 4.0 with a 0.5 floor: the observed mean sits a
    // little above 4.
    EXPECT_NEAR(batch_sum / double(batch_count), 4.0, 0.6);
}

TEST(JobQueue, WarmupOffsetSurvivesSnapshotResume)
{
    // The regression this pins: a queue with a firstArrival warmup
    // offset serializes its *absolute* next-arrival time, so a resume
    // mid-warmup (or mid-stream) continues the identical stream instead
    // of re-applying the offset.
    JobQueue::Config cfg = testJobConfig();
    cfg.firstArrival = 5.0;

    JobQueue whole(cfg);
    const std::vector<Job> all = whole.drainArrivalsUpTo(40.0);
    ASSERT_FALSE(all.empty());
    EXPECT_GE(all.front().arrival, 5.0);

    for (Seconds halt_at : {3.0, 12.0}) { // mid-warmup and mid-stream
        JobQueue halted(cfg);
        std::vector<Job> pieces = halted.drainArrivalsUpTo(halt_at);

        StateWriter w;
        w.beginSection("jobs");
        halted.saveState(w);
        w.endSection();
        JobQueue resumed(cfg);
        StateReader r(w.finish());
        r.beginSection("jobs");
        resumed.loadState(r);
        r.endSection();

        for (const Job &job : resumed.drainArrivalsUpTo(40.0))
            pieces.push_back(job);
        ASSERT_EQ(pieces.size(), all.size()) << "halt at " << halt_at;
        for (std::size_t i = 0; i < all.size(); ++i) {
            EXPECT_EQ(pieces[i].id, all[i].id);
            EXPECT_DOUBLE_EQ(pieces[i].arrival, all[i].arrival);
            EXPECT_DOUBLE_EQ(pieces[i].serviceTime, all[i].serviceTime);
        }
    }
}

/** A hand-built fleet view: two chips of two cores each. */
std::vector<CoreStatus>
fourCoreStatus()
{
    std::vector<CoreStatus> cores(4);
    for (unsigned i = 0; i < 4; ++i) {
        cores[i].ref = {i / 2, i % 2};
        cores[i].headroomMv = 10.0 * (i + 1);
        cores[i].chipLoad = 0.0;
    }
    return cores;
}

Job
testJob(bool critical = false)
{
    Job job;
    job.id = 1;
    job.classIndex = critical ? 0 : 1;
    job.serviceTime = 1.0;
    job.deadline = 10.0;
    return job;
}

JobClass
criticalClass()
{
    JobClass cls;
    cls.latencyCritical = true;
    return cls;
}

JobClass
batchClass()
{
    JobClass cls;
    cls.latencyCritical = false;
    return cls;
}

TEST(Scheduler, RoundRobinCyclesAcrossFreeCores)
{
    auto scheduler = makeScheduler(SchedulerPolicy::roundRobin);
    auto cores = fourCoreStatus();
    const Job job = testJob();
    const JobClass cls = batchClass();

    for (unsigned expect = 0; expect < 8; ++expect) {
        const auto ref = scheduler->place(job, cls, cores);
        ASSERT_TRUE(ref.has_value());
        EXPECT_EQ(ref->chip, (expect % 4) / 2);
        EXPECT_EQ(ref->core, expect % 2);
    }
}

TEST(Scheduler, RoundRobinSkipsBusyAbandonedAndThrottledCores)
{
    auto scheduler = makeScheduler(SchedulerPolicy::roundRobin);
    auto cores = fourCoreStatus();
    cores[0].busy = true;
    cores[1].abandoned = true;
    cores[2].throttled = true;
    const auto ref =
        scheduler->place(testJob(), batchClass(), cores);
    ASSERT_TRUE(ref.has_value());
    EXPECT_EQ(ref->chip, 1u);
    EXPECT_EQ(ref->core, 1u);
}

TEST(Scheduler, LeastLoadedPrefersTheLightestChip)
{
    auto scheduler = makeScheduler(SchedulerPolicy::leastLoaded);
    auto cores = fourCoreStatus();
    cores[0].chipLoad = cores[1].chipLoad = 0.5;
    cores[2].chipLoad = cores[3].chipLoad = 0.0;
    cores[2].busy = true;  // Chip 1's first core is taken.
    const auto ref =
        scheduler->place(testJob(), batchClass(), cores);
    ASSERT_TRUE(ref.has_value());
    EXPECT_EQ(ref->chip, 1u);
    EXPECT_EQ(ref->core, 1u);
}

TEST(Scheduler, MarginAwarePlacesCriticalJobsOnDeepestHeadroom)
{
    auto scheduler =
        makeScheduler(SchedulerPolicy::marginAware, /*reserve=*/1);
    auto cores = fourCoreStatus();  // Headrooms 10, 20, 30, 40.
    const auto ref =
        scheduler->place(testJob(true), criticalClass(), cores);
    ASSERT_TRUE(ref.has_value());
    // Core index 3 has the 40 mV headroom.
    EXPECT_EQ(ref->chip, 1u);
    EXPECT_EQ(ref->core, 1u);
}

TEST(Scheduler, MarginAwareReservesTheDeepestCoresForCriticalWork)
{
    auto scheduler =
        makeScheduler(SchedulerPolicy::marginAware, /*reserve=*/2);
    auto cores = fourCoreStatus();
    // Batch work skips the two deepest free cores (40, 30 mV) and
    // lands on the 20 mV core.
    const auto ref =
        scheduler->place(testJob(), batchClass(), cores);
    ASSERT_TRUE(ref.has_value());
    EXPECT_EQ(ref->chip, 0u);
    EXPECT_EQ(ref->core, 1u);

    // With every other core busy the reserve yields rather than
    // leaving the job queued forever.
    cores[0].busy = cores[1].busy = cores[2].busy = true;
    const auto last = scheduler->place(testJob(), batchClass(), cores);
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->chip, 1u);
    EXPECT_EQ(last->core, 1u);
}

TEST(Scheduler, RiskAwareRoutesAwayFromRiskyCores)
{
    auto scheduler = makeScheduler(SchedulerPolicy::riskAware,
                                   /*reserve=*/2, /*threshold=*/5.0);
    auto cores = fourCoreStatus();
    cores[0].riskScore = 20.0;
    cores[1].riskScore = 0.5;
    cores[2].riskScore = 8.0;
    cores[3].riskScore = 3.0;

    const auto batch = scheduler->place(testJob(), batchClass(), cores);
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->chip, 0u);
    EXPECT_EQ(batch->core, 1u);

    // A critical job refuses a recently-recovered core even when it is
    // the calmest, as long as an untainted one exists.
    cores[1].recentRecovery = true;
    const auto crit =
        scheduler->place(testJob(true), criticalClass(), cores);
    ASSERT_TRUE(crit.has_value());
    EXPECT_EQ(crit->chip, 1u);
    EXPECT_EQ(crit->core, 1u);

    // With every core tainted it falls back to the calmest.
    cores[3].recentRecovery = true;
    const auto fallback =
        scheduler->place(testJob(true), criticalClass(), cores);
    ASSERT_TRUE(fallback.has_value());
    EXPECT_EQ(fallback->chip, 0u);
    EXPECT_EQ(fallback->core, 1u);
}

TEST(Scheduler, AllPoliciesReportNoPlacementWhenNothingIsFree)
{
    for (SchedulerPolicy policy :
         {SchedulerPolicy::roundRobin, SchedulerPolicy::leastLoaded,
          SchedulerPolicy::marginAware, SchedulerPolicy::riskAware}) {
        auto scheduler = makeScheduler(policy);
        auto cores = fourCoreStatus();
        for (auto &core : cores)
            core.busy = true;
        EXPECT_FALSE(
            scheduler->place(testJob(), batchClass(), cores).has_value())
            << policyName(policy);
    }
}

PowerCapGovernor::Config
testGovernorConfig(Watt budget)
{
    PowerCapGovernor::Config cfg;
    cfg.fleetBudget = budget;
    cfg.minChipCap = 5.0;
    cfg.demandAlpha = 1.0;  // No smoothing: caps track measurements.
    cfg.resumeFraction = 0.9;
    return cfg;
}

TEST(PowerCapGovernor, RedistributesTheBudgetProportionallyToDemand)
{
    PowerCapGovernor governor(testGovernorConfig(100.0), 4);
    governor.update({30.0, 10.0, 10.0, 0.0});

    // Floors: 4 x 5 W; the spare 80 W splits 3:1:1:0.
    EXPECT_DOUBLE_EQ(governor.cap(0), 5.0 + 80.0 * 0.6);
    EXPECT_DOUBLE_EQ(governor.cap(1), 5.0 + 80.0 * 0.2);
    EXPECT_DOUBLE_EQ(governor.cap(2), 5.0 + 80.0 * 0.2);
    EXPECT_DOUBLE_EQ(governor.cap(3), 5.0);

    Watt total = 0.0;
    for (unsigned i = 0; i < 4; ++i)
        total += governor.cap(i);
    EXPECT_NEAR(total, 100.0, 1e-9);
}

TEST(PowerCapGovernor, SplitsEvenlyWhenTheBudgetIsBelowTheFloors)
{
    PowerCapGovernor governor(testGovernorConfig(12.0), 4);
    governor.update({30.0, 10.0, 10.0, 0.0});
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(governor.cap(i), 3.0);
}

TEST(PowerCapGovernor, ThrottlesWithHysteresis)
{
    PowerCapGovernor governor(testGovernorConfig(40.0), 2);

    // Chip 0 demands nearly everything and overruns its cap.
    governor.update({60.0, 2.0});
    EXPECT_TRUE(governor.throttled(0));
    EXPECT_FALSE(governor.throttled(1));
    EXPECT_EQ(governor.throttleEpisodes(), 1u);

    // Dropping just below the cap is not enough to resume...
    const Watt cap0 = governor.cap(0);
    governor.update({cap0 * 0.95, 2.0});
    EXPECT_TRUE(governor.throttled(0));

    // ...dropping below resumeFraction x cap is.
    governor.update({governor.cap(0) * 0.5, 2.0});
    EXPECT_FALSE(governor.throttled(0));
    EXPECT_EQ(governor.throttleEpisodes(), 1u);
    EXPECT_EQ(governor.throttledChips(), 0u);
}

TEST(PowerCapGovernor, DisabledGovernorNeverThrottles)
{
    PowerCapGovernor governor(testGovernorConfig(0.0), 2);
    EXPECT_FALSE(governor.enabled());
    governor.update({1000.0, 1000.0});
    EXPECT_FALSE(governor.throttled(0));
    EXPECT_FALSE(governor.throttled(1));
    EXPECT_TRUE(std::isinf(governor.cap(0)));
}

TEST(PowerCapGovernor, ColdStartSeedsOnlyFromFullIntervals)
{
    // The cold-start bias fix: a partial-interval mean (node admitted
    // mid-slice, fleet measured right after restore) must neither seed
    // the demand EWMA nor raise the throttle flag, no matter how large
    // the instantaneous reading is.
    PowerCapGovernor governor(testGovernorConfig(40.0), 2);
    const Seconds interval = governor.config().interval;

    governor.update({{500.0, 0.1 * interval}, {500.0, 0.1 * interval}});
    EXPECT_FALSE(governor.demandSeeded(0));
    EXPECT_FALSE(governor.demandSeeded(1));
    EXPECT_FALSE(governor.throttled(0));
    EXPECT_FALSE(governor.throttled(1));
    EXPECT_EQ(governor.throttleEpisodes(), 0u);
    // No seeded demand anywhere: equal-share caps.
    EXPECT_DOUBLE_EQ(governor.cap(0), 20.0);
    EXPECT_DOUBLE_EQ(governor.cap(1), 20.0);

    // The first full interval seeds (the 0.95 grid-slack band counts
    // as full), and from then on the EWMA tracks measurements.
    governor.update({{30.0, 0.96 * interval}, {10.0, interval}});
    EXPECT_TRUE(governor.demandSeeded(0));
    EXPECT_TRUE(governor.demandSeeded(1));
    EXPECT_DOUBLE_EQ(governor.demand(0), 30.0);
    EXPECT_DOUBLE_EQ(governor.demand(1), 10.0);
    EXPECT_DOUBLE_EQ(governor.cap(0), 5.0 + 30.0 * 0.75);
    EXPECT_DOUBLE_EQ(governor.cap(1), 5.0 + 30.0 * 0.25);
}

TEST(PowerCapGovernor, UnseededChipsCompeteWithImputedDemand)
{
    // A chip still waiting for its first full interval competes with
    // the mean demand of the seeded chips, not from the floor.
    PowerCapGovernor governor(testGovernorConfig(100.0), 4);
    const Seconds interval = governor.config().interval;
    governor.update({{30.0, interval},
                     {30.0, interval},
                     {900.0, 0.2 * interval},
                     {0.0, 0.2 * interval}});
    EXPECT_TRUE(governor.demandSeeded(0));
    EXPECT_FALSE(governor.demandSeeded(2));
    EXPECT_FALSE(governor.demandSeeded(3));
    // Imputed demand 30 for chips 2 and 3: all four caps equal.
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(governor.cap(i), 25.0);
}

TEST(PowerCapGovernor, HysteresisEdgesAreExact)
{
    // The edge semantics the fleet relies on: power exactly *at* the
    // cap does not throttle (strict >), and power exactly at
    // resumeFraction x cap resumes (inclusive <=).
    PowerCapGovernor governor(testGovernorConfig(40.0), 2);

    governor.update({30.0, 10.0}); // caps 27.5 / 12.5
    EXPECT_TRUE(governor.throttled(0));
    EXPECT_EQ(governor.throttleEpisodes(), 1u);

    // Equal demands put both caps at 20. Just above the resume edge
    // (0.9 x 20 = 18): stays throttled.
    governor.update({18.0001, 18.0001});
    EXPECT_TRUE(governor.throttled(0));
    EXPECT_FALSE(governor.throttled(1));

    // Exactly at the edge: resumes.
    governor.update({18.0, 18.0});
    EXPECT_FALSE(governor.throttled(0));
    EXPECT_EQ(governor.throttleEpisodes(), 1u);

    // Exactly at the cap: no new episode.
    governor.update({20.0, 20.0});
    EXPECT_FALSE(governor.throttled(0));
    EXPECT_FALSE(governor.throttled(1));
    EXPECT_EQ(governor.throttleEpisodes(), 1u);
}

TEST(FleetMetrics, MergeMatchesSerialRecording)
{
    const JobClass critical = criticalClass();
    const JobClass batch = batchClass();

    FleetMetrics serial;
    FleetMetrics shard_a;
    FleetMetrics shard_b;

    for (std::uint64_t i = 0; i < 200; ++i) {
        Job job;
        job.id = i;
        job.arrival = double(i);
        job.deadline = job.arrival + 2.0;
        // Latencies 0.1 .. 4.0; the tail violates the 2 s deadline.
        const Seconds completion = job.arrival + 0.1 + double(i % 40) * 0.1;
        const JobClass &cls = (i % 3 == 0) ? critical : batch;
        serial.recordCompletion(job, cls, completion);
        ((i < 100) ? shard_a : shard_b)
            .recordCompletion(job, cls, completion);
    }

    FleetMetrics merged;
    merged.merge(shard_a);
    merged.merge(shard_b);

    EXPECT_EQ(merged.completed(), serial.completed());
    EXPECT_EQ(merged.completedCritical(), serial.completedCritical());
    EXPECT_EQ(merged.slaViolations(), serial.slaViolations());
    EXPECT_EQ(merged.slaViolationsCritical(),
              serial.slaViolationsCritical());
    EXPECT_DOUBLE_EQ(merged.latencyQuantile(0.5),
                     serial.latencyQuantile(0.5));
    EXPECT_DOUBLE_EQ(merged.latencyQuantile(0.99),
                     serial.latencyQuantile(0.99));
    EXPECT_DOUBLE_EQ(merged.latencyStats().mean(),
                     serial.latencyStats().mean());
    EXPECT_GT(merged.slaViolations(), 0u);
}

TEST(FleetMetrics, MergeIsOrderInvariantAndAdoptsIntoFreshState)
{
    // The merge-order regression: report() folds shard accumulators in
    // shard order, and the result must not depend on that order — the
    // sketch bins, counters and moments are all commutative.
    const JobClass critical = criticalClass();
    const JobClass batch = batchClass();

    std::vector<FleetMetrics> shards(4);
    for (std::uint64_t i = 0; i < 400; ++i) {
        Job job;
        job.id = i;
        job.arrival = 0.25 * double(i);
        job.deadline = job.arrival + 3.0;
        const Seconds completion =
            job.arrival + 0.05 + double(i % 97) * 0.07;
        shards[i % shards.size()].recordCompletion(
            job, (i % 4 == 0) ? critical : batch, completion);
    }

    FleetMetrics forward;
    for (std::size_t s = 0; s < shards.size(); ++s)
        forward.merge(shards[s]);
    FleetMetrics backward;
    for (std::size_t s = shards.size(); s-- > 0;)
        backward.merge(shards[s]);
    FleetMetrics shuffled;
    for (std::size_t s : {2u, 0u, 3u, 1u})
        shuffled.merge(shards[s]);

    for (const FleetMetrics *other : {&backward, &shuffled}) {
        EXPECT_EQ(forward.completed(), other->completed());
        EXPECT_EQ(forward.slaViolations(), other->slaViolations());
        EXPECT_EQ(forward.latencyQuantile(0.5),
                  other->latencyQuantile(0.5));
        EXPECT_EQ(forward.latencyQuantile(0.99),
                  other->latencyQuantile(0.99));
        // The running-stats mean is a floating-point fold, so merge
        // order moves its last bit; report() always folds in shard
        // order, which is what keeps runs byte-identical.
        EXPECT_DOUBLE_EQ(forward.latencyStats().mean(),
                         other->latencyStats().mean());
    }

    // Merging an empty accumulator changes nothing; merging *into* a
    // fresh one adopts the other's state wholesale.
    const double before = forward.latencyQuantile(0.99);
    forward.merge(FleetMetrics());
    EXPECT_EQ(forward.latencyQuantile(0.99), before);
    EXPECT_EQ(forward.completed(), 400u);
}

FleetConfig
smallFleetConfig()
{
    FleetConfig cfg;
    cfg.numChips = 2;
    cfg.seed = 0xF1EE7;
    cfg.jobs.arrivalsPerSecond = 6.0;
    cfg.jobs.seed = 99;
    cfg.recovery.checkpointInterval = 1.0;
    cfg.recovery.recoveryLatency = 0.2;
    return cfg;
}

/** Field-by-field exact comparison of two reports. */
void
expectIdenticalReports(const FleetReport &a, const FleetReport &b)
{
    EXPECT_DOUBLE_EQ(a.simulated, b.simulated);
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.completedCritical, b.completedCritical);
    EXPECT_EQ(a.requeued, b.requeued);
    EXPECT_EQ(a.pendingAtEnd, b.pendingAtEnd);
    EXPECT_EQ(a.runningAtEnd, b.runningAtEnd);
    EXPECT_EQ(a.slaViolations, b.slaViolations);
    EXPECT_DOUBLE_EQ(a.meanLatency, b.meanLatency);
    EXPECT_DOUBLE_EQ(a.p50Latency, b.p50Latency);
    EXPECT_DOUBLE_EQ(a.p99Latency, b.p99Latency);
    EXPECT_DOUBLE_EQ(a.fleetEnergy, b.fleetEnergy);
    EXPECT_DOUBLE_EQ(a.energyPerJob, b.energyPerJob);
    EXPECT_DOUBLE_EQ(a.availability, b.availability);
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_EQ(a.abandonedCores, b.abandonedCores);
    EXPECT_EQ(a.throttleEpisodes, b.throttleEpisodes);
    EXPECT_EQ(a.injectedBitFlips, b.injectedBitFlips);
    EXPECT_EQ(a.injectedDues, b.injectedDues);
}

std::vector<std::uint8_t>
chipRngState(FleetNode &node)
{
    StateWriter w;
    w.beginSection("rng");
    node.chip().rng().saveState(w);
    w.endSection();
    return w.finish();
}

TEST(FleetNode, CalibrationIsTheSameInEverySamplingMode)
{
    // The sampling mode selects only the Simulator tick: calibration
    // always runs the exact sweeps, so two nodes that differ in it
    // designate the same lines at the same voltages and leave their
    // chips' generators in the same state.
    const FleetConfig exact_cfg = smallFleetConfig();
    FleetConfig batched_cfg = exact_cfg;
    batched_cfg.sampling = SamplingMode::chipBatched;
    for (unsigned index = 0; index < exact_cfg.numChips; ++index) {
        FleetNode exact(exact_cfg, index);
        FleetNode batched(batched_cfg, index);
        const auto &want = exact.calibrationTargets();
        const auto &got = batched.calibrationTargets();
        ASSERT_FALSE(want.empty());
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t d = 0; d < want.size(); ++d) {
            EXPECT_EQ(want[d].coreId, got[d].coreId) << "domain " << d;
            EXPECT_EQ(want[d].cacheName, got[d].cacheName)
                << "domain " << d;
            EXPECT_EQ(want[d].set, got[d].set) << "domain " << d;
            EXPECT_EQ(want[d].way, got[d].way) << "domain " << d;
            EXPECT_EQ(want[d].firstErrorVdd, got[d].firstErrorVdd)
                << "domain " << d;
        }
        EXPECT_EQ(chipRngState(exact), chipRngState(batched));
    }
}

TEST(Fleet, RunIsIdenticalForEveryWorkerThreadCount)
{
    FleetConfig cfg = smallFleetConfig();
    cfg.policy = SchedulerPolicy::marginAware;
    cfg.governor.fleetBudget = 48.0;  // Tight enough to throttle.

    ExperimentPool serial_pool(1);
    Fleet serial_fleet(cfg);
    serial_fleet.run(4.0, serial_pool);

    ExperimentPool wide_pool(4);
    Fleet wide_fleet(cfg);
    wide_fleet.run(4.0, wide_pool);

    expectIdenticalReports(serial_fleet.report(), wide_fleet.report());
}

TEST(Fleet, CompletesJobsAndAccountsEnergy)
{
    FleetConfig cfg = smallFleetConfig();
    ExperimentPool pool(0);
    Fleet fleet(cfg);
    fleet.run(8.0, pool);

    const FleetReport report = fleet.report();
    EXPECT_GT(report.submitted, 20u);
    EXPECT_GT(report.completed, 10u);
    EXPECT_GT(report.completedCritical, 0u);
    EXPECT_GT(report.throughputPerSec, 0.0);
    EXPECT_GT(report.fleetEnergy, 0.0);
    EXPECT_GT(report.energyPerJob, 0.0);
    EXPECT_GT(report.meanFleetPower, 0.0);
    // Latency includes at least the service floor of the fastest class.
    EXPECT_GE(report.p50Latency, 0.1);
    EXPECT_LE(report.p50Latency, report.p99Latency);
    // Conservation: everything submitted is somewhere.
    EXPECT_EQ(report.submitted, report.completed + report.pendingAtEnd +
                                    report.runningAtEnd);
    EXPECT_DOUBLE_EQ(report.availability, 1.0);
}

TEST(Fleet, ControlLoopEarnsHeadroomTheSchedulerCanSee)
{
    FleetConfig cfg = smallFleetConfig();
    ExperimentPool pool(0);
    Fleet fleet(cfg);
    fleet.run(5.0, pool);

    // After 5 s the ECC-guided controllers have pulled every rail well
    // below nominal, and the headroom signal reflects it.
    Millivolt deepest = 0.0;
    for (unsigned chip = 0; chip < fleet.numChips(); ++chip) {
        for (unsigned core = 0;
             core < fleet.node(chip).chip().numCores(); ++core) {
            deepest =
                std::max(deepest, fleet.node(chip).headroom(core));
        }
    }
    EXPECT_GT(deepest, 20.0);
}

TEST(Fleet, RequeuesJobsOffAbandonedCoresAndReportsAvailability)
{
    FleetConfig cfg = smallFleetConfig();
    cfg.numChips = 1;
    cfg.jobs.arrivalsPerSecond = 12.0;  // Keep every core busy.
    // A DUE storm with a one-recovery budget retires cores quickly.
    cfg.faults.dueFlipsPerHour = 3600.0 * 6.0;
    cfg.recovery.maxRecoveriesPerCore = 1;

    ExperimentPool pool(0);
    Fleet fleet(cfg);
    fleet.run(10.0, pool);

    const FleetReport report = fleet.report();
    EXPECT_GT(report.injectedDues, 0u);
    EXPECT_GT(report.recoveries, 0u);
    EXPECT_GT(report.abandonedCores, 0u);
    EXPECT_GT(report.requeued, 0u);
    EXPECT_LT(report.availability, 1.0);
    EXPECT_GT(report.availability, 0.0);
    // Conservation even under a DUE storm: every submitted job is
    // completed, still queued (requeued ones included) or running.
    EXPECT_EQ(report.submitted, report.completed + report.pendingAtEnd +
                                    report.runningAtEnd);
}

TEST(Fleet, GovernorThrottlesUnderATightCapAndWorkStillCompletes)
{
    FleetConfig cfg = smallFleetConfig();
    // Two chips at ~25 W each against a 30 W budget: someone throttles.
    cfg.governor.fleetBudget = 30.0;
    cfg.governor.interval = 0.25;
    cfg.jobs.arrivalsPerSecond = 10.0;

    ExperimentPool pool(0);
    Fleet fleet(cfg);
    fleet.run(6.0, pool);

    const FleetReport report = fleet.report();
    EXPECT_GT(report.throttleEpisodes, 0u);
    EXPECT_GT(report.completed, 0u);
    // The caps sum to the budget (demand EWMA keeps both > floor).
    const Watt total =
        fleet.governor().cap(0) + fleet.governor().cap(1);
    EXPECT_NEAR(total, 30.0, 1e-6);
}

TEST(Fleet, InvariantAuditorStaysCleanAcrossAFaultedCampaign)
{
    // Tick-level invariants (energy monotonicity, rail bounds,
    // counter-latch consistency, weak-span ordering) hold on every
    // node of a fleet run with faults and recovery armed.
    FleetConfig cfg = smallFleetConfig();
    cfg.policy = SchedulerPolicy::marginAware;
    cfg.faults.bitFlipsPerHour = 1200.0;
    cfg.faults.dueFlipsPerHour = 300.0;
    cfg.faults.droopsPerHour = 600.0;
    cfg.faults.droopMagnitudeMv = 25.0;
    cfg.faults.droopDuration = 0.05;

    ExperimentPool pool(0);
    Fleet fleet(cfg);
    fleet.run(0.0, pool);  // build the nodes so the auditors can attach

    std::vector<std::unique_ptr<InvariantAuditor>> auditors;
    for (unsigned i = 0; i < fleet.numChips(); ++i) {
        auditors.push_back(std::make_unique<InvariantAuditor>());
        auditors.back()->attach(fleet.node(i).simulator());
    }
    fleet.run(5.0, pool);

    for (unsigned i = 0; i < fleet.numChips(); ++i) {
        EXPECT_GT(auditors[i]->checksRun(), 0u);
        EXPECT_TRUE(auditors[i]->clean())
            << "node " << i << ": " << auditors[i]->violations().front();
    }
}

} // namespace
} // namespace vspec
