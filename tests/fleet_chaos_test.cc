/**
 * @file
 * Tests for the fleet robustness subsystem: the correlated-event
 * FleetFaultInjector, the chip health lifecycle on both fleet paths,
 * deadline-aware retry/hedging, the quarantine invariant audit, and
 * the v4 snapshot payload (mid-quarantine round trip, version-pair
 * refusal). Determinism assertions are exact — these states are
 * byte-compared across worker-thread counts in the benches.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "fleet/fleet.hh"
#include "fleet/shard.hh"
#include "fleet/traffic.hh"
#include "platform/experiment_pool.hh"
#include "resilience/fleet_chaos.hh"
#include "snapshot/state_io.hh"

namespace vspec
{
namespace
{

FleetChaosConfig
denseChaosConfig()
{
    FleetChaosConfig cfg;
    cfg.railGroupSize = 8;
    cfg.railDroopsPerHour = 240.0;
    cfg.railDroopMagnitudeMv = 40.0;
    cfg.railDroopDuration = 1.5;
    cfg.rackSize = 16;
    cfg.dueStormsPerHour = 360.0;
    cfg.dueStormRate = 3.0;
    cfg.dueStormDuration = 2.0;
    cfg.thermalZoneSize = 32;
    cfg.thermalEventsPerHour = 120.0;
    cfg.thermalDeltaC = 25.0;
    cfg.thermalMarginPenaltyMv = 20.0;
    cfg.thermalDuration = 3.0;
    return cfg;
}

// ---------------------------------------------------------------------
// FleetFaultInjector
// ---------------------------------------------------------------------

TEST(FleetFaultInjector, DomainLayoutIsContiguous)
{
    const FleetFaultInjector inj(denseChaosConfig(), 0x5EEDULL, 96);
    EXPECT_EQ(inj.numDomains(FailureDomainKind::railGroup), 12u);
    EXPECT_EQ(inj.numDomains(FailureDomainKind::rack), 6u);
    EXPECT_EQ(inj.numDomains(FailureDomainKind::thermalZone), 3u);
    for (unsigned chip = 0; chip < 96; ++chip) {
        EXPECT_EQ(inj.domainOf(FailureDomainKind::railGroup, chip),
                  chip / 8);
        EXPECT_EQ(inj.domainOf(FailureDomainKind::rack, chip),
                  chip / 16);
        EXPECT_EQ(inj.domainOf(FailureDomainKind::thermalZone, chip),
                  chip / 32);
    }
}

TEST(FleetFaultInjector, EventSequenceIsDeterministic)
{
    FleetFaultInjector a(denseChaosConfig(), 0x5EEDULL, 96);
    FleetFaultInjector b(denseChaosConfig(), 0x5EEDULL, 96);
    for (unsigned s = 0; s < 300; ++s) {
        a.beginSlice(0.1);
        b.beginSlice(0.1);
        for (unsigned chip = 0; chip < 96; chip += 7) {
            EXPECT_EQ(a.railDroopMv(chip), b.railDroopMv(chip));
            EXPECT_EQ(a.dueStormRate(chip), b.dueStormRate(chip));
            EXPECT_EQ(a.thermalDeltaC(chip), b.thermalDeltaC(chip));
            EXPECT_EQ(a.marginPenaltyMv(chip), b.marginPenaltyMv(chip));
        }
    }
    for (unsigned kk = 0; kk < kNumFailureDomainKinds; ++kk) {
        const auto kind = FailureDomainKind(kk);
        EXPECT_EQ(a.eventsStarted(kind), b.eventsStarted(kind));
        EXPECT_EQ(a.domainEvents(kind), b.domainEvents(kind));
    }
    // The dense script must actually fire within the horizon.
    EXPECT_GT(a.eventsStarted(FailureDomainKind::railGroup), 0u);
    EXPECT_GT(a.eventsStarted(FailureDomainKind::rack), 0u);
}

TEST(FleetFaultInjector, EffectsAreUniformAcrossAMemberDomain)
{
    FleetFaultInjector inj(denseChaosConfig(), 0x5EEDULL, 96);
    for (unsigned s = 0; s < 200; ++s) {
        inj.beginSlice(0.1);
        // Every chip of a rack sees the identical storm rate, and
        // chips of other racks see theirs — domain membership is the
        // only thing that differentiates chips.
        for (unsigned rack = 0; rack < 6; ++rack) {
            const double rate = inj.dueStormRate(rack * 16);
            for (unsigned c = 1; c < 16; ++c)
                EXPECT_EQ(inj.dueStormRate(rack * 16 + c), rate);
            EXPECT_EQ(rate > 0.0,
                      inj.eventActive(FailureDomainKind::rack,
                                      rack * 16));
        }
    }
}

TEST(FleetFaultInjector, StateRoundTripsMidCampaign)
{
    FleetFaultInjector ref(denseChaosConfig(), 0x5EEDULL, 96);
    FleetFaultInjector victim(denseChaosConfig(), 0x5EEDULL, 96);
    for (unsigned s = 0; s < 150; ++s) {
        ref.beginSlice(0.1);
        victim.beginSlice(0.1);
    }
    StateWriter w;
    w.beginSection("chaos");
    victim.saveState(w);
    w.endSection();
    const auto bytes = w.finish();

    FleetFaultInjector revived(denseChaosConfig(), 0x5EEDULL, 96);
    StateReader r(bytes);
    r.beginSection("chaos");
    revived.loadState(r);
    r.endSection();
    for (unsigned s = 0; s < 150; ++s) {
        ref.beginSlice(0.1);
        revived.beginSlice(0.1);
        for (unsigned chip = 0; chip < 96; chip += 5) {
            EXPECT_EQ(ref.railDroopMv(chip), revived.railDroopMv(chip));
            EXPECT_EQ(ref.dueStormRate(chip),
                      revived.dueStormRate(chip));
            EXPECT_EQ(ref.thermalDeltaC(chip),
                      revived.thermalDeltaC(chip));
        }
    }
    for (unsigned kk = 0; kk < kNumFailureDomainKinds; ++kk) {
        const auto kind = FailureDomainKind(kk);
        EXPECT_EQ(ref.eventsStarted(kind), revived.eventsStarted(kind));
    }
}

TEST(FleetFaultInjector, LoadRefusesMismatchedArmament)
{
    FleetFaultInjector src(denseChaosConfig(), 0x5EEDULL, 96);
    src.beginSlice(0.1);
    StateWriter w;
    w.beginSection("chaos");
    src.saveState(w);
    w.endSection();
    const auto bytes = w.finish();

    FleetChaosConfig other = denseChaosConfig();
    other.rackSize = 32; // different rack layout
    FleetFaultInjector dst(other, 0x5EEDULL, 96);
    StateReader r(bytes);
    r.beginSection("chaos");
    EXPECT_THROW(dst.loadState(r), SnapshotError);
}

// ---------------------------------------------------------------------
// HealthConfig::step: the one FSM both fleets run
// ---------------------------------------------------------------------

HealthConfig
fsmConfig()
{
    HealthConfig hc;
    hc.enabled = true;
    hc.healthyRate = 0.02;
    hc.degradeRate = 0.05;
    hc.quarantineRate = 0.2;
    hc.quarantineHold = 0.5;
    hc.selfTestDuration = 2.0;
    hc.probationDuration = 5.0;
    return hc;
}

TEST(HealthFsm, EveryEdgeAtItsBoundary)
{
    struct Row
    {
        const char *what;
        ChipHealth from;
        double window;
        Seconds timer;
        std::uint64_t events;
        HealthEdge edge;
        ChipHealth to;
        Seconds timerAfter;
    };
    const Seconds slice = 0.1;
    const Row rows[] = {
        {"quarantine threshold from healthy", ChipHealth::healthy, 0.2,
         0.0, 0, HealthEdge::quarantine, ChipHealth::quarantined, 0.5},
        {"quarantine threshold from degraded", ChipHealth::degraded, 0.2,
         0.0, 0, HealthEdge::quarantine, ChipHealth::quarantined, 0.5},
        {"just below quarantine degrades", ChipHealth::healthy, 0.199,
         0.0, 0, HealthEdge::degraded, ChipHealth::degraded, 0.0},
        {"degrade threshold", ChipHealth::healthy, 0.05, 0.0, 0,
         HealthEdge::degraded, ChipHealth::degraded, 0.0},
        {"just below degrade stays healthy", ChipHealth::healthy, 0.049,
         0.0, 0, HealthEdge::none, ChipHealth::healthy, 0.0},
        {"degraded above degrade stays", ChipHealth::degraded, 0.1, 0.0,
         0, HealthEdge::none, ChipHealth::degraded, 0.0},
        {"window exactly at healthyRate stays degraded",
         ChipHealth::degraded, 0.02, 0.0, 0, HealthEdge::none,
         ChipHealth::degraded, 0.0},
        {"below healthyRate recovers", ChipHealth::degraded, 0.0199, 0.0,
         0, HealthEdge::healthy, ChipHealth::healthy, 0.0},
        {"quarantine hold runs", ChipHealth::quarantined, 0.0, 0.35, 0,
         HealthEdge::none, ChipHealth::quarantined, 0.25},
        {"quarantine hold expires", ChipHealth::quarantined, 0.0, 0.1, 0,
         HealthEdge::selfTest, ChipHealth::selfTesting, 2.0},
        {"self-test runs", ChipHealth::selfTesting, 1.0, 1.5, 0,
         HealthEdge::none, ChipHealth::selfTesting, 1.4},
        {"self-test retest at degradeRate", ChipHealth::selfTesting,
         0.05, 0.1, 0, HealthEdge::retest, ChipHealth::selfTesting, 2.0},
        {"self-test pass readmits", ChipHealth::selfTesting, 0.049, 0.1,
         0, HealthEdge::readmit, ChipHealth::probation, 5.0},
        {"probation relapse on one event", ChipHealth::probation, 0.0,
         3.0, 1, HealthEdge::quarantine, ChipHealth::quarantined, 0.5},
        {"probation runs", ChipHealth::probation, 0.0, 3.0, 0,
         HealthEdge::none, ChipHealth::probation, 2.9},
        {"probation expiry", ChipHealth::probation, 0.0, 0.1, 0,
         HealthEdge::recovered, ChipHealth::healthy, 0.0},
    };
    const HealthConfig hc = fsmConfig();
    for (const Row &row : rows) {
        ChipHealth state = row.from;
        double window = row.window;
        Seconds timer = row.timer;
        // A decay of 1 freezes the window at the row's value, so each
        // row probes its threshold exactly.
        const HealthEdge edge = hc.step(state, window, timer, row.events,
                                        slice, /*window_decay=*/1.0);
        EXPECT_EQ(edge, row.edge) << row.what;
        EXPECT_EQ(state, row.to) << row.what;
        EXPECT_DOUBLE_EQ(timer, row.timerAfter) << row.what;
        EXPECT_EQ(window, row.window) << row.what;
    }
}

TEST(HealthFsm, WindowIsTheEventRateEwma)
{
    const HealthConfig hc = fsmConfig();
    const Seconds slice = 1.0;
    const double decay = std::exp(-slice / hc.windowTau);
    ChipHealth state = ChipHealth::healthy;
    double window = 0.01;
    Seconds timer = 0.0;
    // One event in a 1 s slice lifts the window to ~0.19/s: past
    // degradeRate, short of quarantineRate.
    EXPECT_EQ(hc.step(state, window, timer, 1, slice, decay),
              HealthEdge::degraded);
    EXPECT_EQ(window, 0.01 * decay + (1.0 - decay) * (1.0 / slice));
    EXPECT_EQ(state, ChipHealth::degraded);
}

// ---------------------------------------------------------------------
// Scale path: health FSM, retry/hedging, audit, snapshot v4
// ---------------------------------------------------------------------

ScaleFleetConfig
stormyScaleConfig(bool health_enabled = true)
{
    ScaleFleetConfig cfg;
    cfg.numChips = 96;
    cfg.chipsPerShard = 32; // several shards even at test scale
    cfg.seed = 0x5CA1EULL;
    cfg.policy = SchedulerPolicy::roundRobin;
    cfg.slice = 0.1;
    cfg.horizon = 1e9;
    cfg.traffic.baseArrivalsPerSecond = 1.6 * 96.0;
    cfg.traffic.users = 96 * 20;
    cfg.traffic.firstArrival = 0.5;
    cfg.traffic.seed = 0xBEE5;
    JobClass critical;
    critical.name = "critical";
    critical.arrivalWeight = 2.0;
    critical.meanServiceTime = 0.5;
    critical.minServiceTime = 0.1;
    critical.deadline = 2.0;
    critical.latencyCritical = true;
    critical.maxRetries = 2;
    critical.retryBackoff = 0.2;
    critical.hedge = true;
    JobClass batch;
    batch.name = "batch";
    batch.arrivalWeight = 1.0;
    batch.meanServiceTime = 2.0;
    batch.minServiceTime = 0.2;
    batch.deadline = 15.0;
    cfg.traffic.classes = {critical, batch};
    cfg.chip.recoveryPenalty = 2.0;
    cfg.governor.fleetBudget = 20.0 * 96.0;
    cfg.governor.interval = 0.5;
    cfg.governor.minChipCap = 2.0;
    cfg.chaos = denseChaosConfig();
    cfg.health.enabled = health_enabled;
    cfg.health.windowTau = 2.0;
    cfg.health.degradeRate = 0.3;
    cfg.health.quarantineRate = 1.0;
    cfg.health.quarantineHold = 0.3;
    cfg.health.selfTestDuration = 1.0;
    cfg.health.probationDuration = 2.0;
    cfg.auditEverySlices = 5;
    return cfg;
}

TEST(ScaleHealth, LifecycleFollowsTheDeclaredEdges)
{
    ExperimentPool pool(2);
    ShardedFleet fleet(stormyScaleConfig());
    std::vector<ChipHealth> prev(96, ChipHealth::healthy);
    std::set<ChipHealth> seen;
    const std::set<std::pair<int, int>> allowed = {
        {0, 0}, {0, 1}, {0, 2},         // healthy: stay/degrade/quar
        {1, 1}, {1, 0}, {1, 2},         // degraded: stay/recover/quar
        {2, 2}, {2, 3},                 // quarantined: stay/self-test
        {3, 3}, {3, 4},                 // self-testing: stay/probation
        {4, 4}, {4, 0}, {4, 2},         // probation: stay/heal/strike
    };
    for (unsigned s = 0; s < 120; ++s) {
        fleet.run(0.1, pool);
        for (unsigned c = 0; c < 96; ++c) {
            const ChipHealth h = fleet.chipHealth(c);
            seen.insert(h);
            EXPECT_TRUE(allowed.count({int(prev[c]), int(h)}))
                << "illegal health edge " << chipHealthName(prev[c])
                << " -> " << chipHealthName(h) << " on chip " << c;
            prev[c] = h;
        }
    }
    // The dense storm script must push chips through the whole cycle.
    EXPECT_TRUE(seen.count(ChipHealth::quarantined));
    EXPECT_TRUE(seen.count(ChipHealth::selfTesting));
    EXPECT_TRUE(seen.count(ChipHealth::probation));

    const FleetReport rep = fleet.report();
    EXPECT_GT(rep.quarantines, 0u);
    EXPECT_GT(rep.readmissions, 0u);
    EXPECT_GT(rep.drainedCoreSeconds, 0.0);
    EXPECT_LE(rep.availability, 1.0);
    EXPECT_GE(rep.availability, 0.0);
}

TEST(ScaleHealth, AuditHoldsUnderStorms)
{
    ExperimentPool pool(2);
    ShardedFleet fleet(stormyScaleConfig());
    fleet.run(12.0, pool);
    fleet.audit();
    EXPECT_TRUE(fleet.auditViolations().empty())
        << fleet.auditViolations().front();

    // Conservation: every submitted job is completed, pending (which
    // includes the retry queue) — nothing vanishes under storms.
    const FleetReport rep = fleet.report();
    EXPECT_EQ(rep.submitted, rep.completed + rep.pendingAtEnd);
    EXPECT_GE(rep.pendingAtEnd, rep.inRetryAtEnd);
}

TEST(ScaleRetry, RetryAndHedgeAccountingActivatesWithTheClasses)
{
    ExperimentPool pool(2);
    ShardedFleet armed(stormyScaleConfig());
    armed.run(10.0, pool);
    const FleetReport with = armed.report();
    EXPECT_GT(with.hedgedJobs, 0u);
    EXPECT_GT(with.retries, 0u);

    // Defaults-off classes: the same storms, no retry/hedge budgets —
    // the class-gated machinery must stay inert. (The retry queue and
    // watchdog still see traffic: no-capacity deferrals land there
    // regardless of per-class budgets, by design.)
    ScaleFleetConfig plain_cfg = stormyScaleConfig();
    for (JobClass &cls : plain_cfg.traffic.classes) {
        cls.maxRetries = 0;
        cls.hedge = false;
    }
    ShardedFleet plain(plain_cfg);
    plain.run(10.0, pool);
    const FleetReport without = plain.report();
    EXPECT_EQ(without.hedgedJobs, 0u);
    EXPECT_EQ(without.retries, 0u);
}

TEST(ScaleHealth, BlastRadiusAttributionCoversActiveDomains)
{
    ExperimentPool pool(2);
    ShardedFleet fleet(stormyScaleConfig());
    fleet.run(12.0, pool);
    const FleetReport rep = fleet.report();
    ASSERT_FALSE(rep.domainImpact.empty());
    std::uint64_t events = 0, quarantines = 0;
    for (const FleetReport::DomainImpact &row : rep.domainImpact) {
        EXPECT_LT(unsigned(row.kind), kNumFailureDomainKinds);
        events += row.events;
        quarantines += row.quarantines;
        EXPECT_GE(row.offlineCoreSeconds, 0.0);
    }
    EXPECT_GT(events, 0u);
    // Storm-driven quarantines must be credited back to the domains
    // whose events caused them.
    EXPECT_GT(quarantines, 0u);
}

TEST(ScaleSnapshot, MidQuarantineKillRestoreIsBitIdentical)
{
    ExperimentPool pool(2);
    const ScaleFleetConfig cfg = stormyScaleConfig();

    ShardedFleet ref(cfg);
    ref.run(10.0, pool);
    StateWriter wref;
    ref.snapshot(wref);
    const auto want = wref.finish();

    // Kill at 6 s — the dense script keeps chips inside the FSM, so
    // the snapshot routinely captures quarantined/self-testing chips
    // and a populated retry queue.
    ShardedFleet victim(cfg);
    victim.run(6.0, pool);
    EXPECT_GT(victim.report().offlineChipsAtEnd, 0u)
        << "test script no longer captures a mid-quarantine fleet";
    StateWriter wvic;
    victim.snapshot(wvic);
    const auto snap = wvic.finish();

    ShardedFleet revived(cfg);
    StateReader r(snap);
    revived.restore(r);
    revived.run(4.0, pool);
    StateWriter wrev;
    revived.snapshot(wrev);
    EXPECT_EQ(wrev.finish(), want);
}

TEST(ScaleSnapshot, V3ReaderRefusalNamesBothVersions)
{
    ExperimentPool pool(2);
    ShardedFleet fleet(stormyScaleConfig());
    fleet.run(2.0, pool);
    StateWriter w;
    fleet.snapshot(w);
    auto bytes = w.finish();
    // The u32 format version sits after the 8-byte magic; rewrite the
    // v4 container as v3.
    bytes[8] = 3;
    try {
        StateReader r(bytes);
        FAIL() << "v3 container was accepted by a v4 reader";
    } catch (const SnapshotError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("3"), std::string::npos) << what;
        EXPECT_NE(what.find("4"), std::string::npos) << what;
        EXPECT_NE(what.find("version"), std::string::npos) << what;
    }
}

TEST(ScaleSnapshot, RestoreRefusesMismatchedHealthArmament)
{
    ExperimentPool pool(2);
    ShardedFleet fleet(stormyScaleConfig());
    fleet.run(2.0, pool);
    StateWriter w;
    fleet.snapshot(w);
    const auto bytes = w.finish();

    ScaleFleetConfig inert = stormyScaleConfig();
    inert.chaos = FleetChaosConfig{}; // chaos disarmed
    ShardedFleet other(inert);
    StateReader r(bytes);
    EXPECT_THROW(other.restore(r), SnapshotError);
}

// ---------------------------------------------------------------------
// Cold path: Fleet health lifecycle
// ---------------------------------------------------------------------

void
expectSameRows(const std::vector<FleetReport::DomainImpact> &got,
               const std::vector<FleetReport::DomainImpact> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].kind, want[i].kind) << i;
        EXPECT_EQ(got[i].domain, want[i].domain) << i;
        EXPECT_EQ(got[i].events, want[i].events) << i;
        EXPECT_EQ(got[i].dues, want[i].dues) << i;
        EXPECT_EQ(got[i].quarantines, want[i].quarantines) << i;
        EXPECT_EQ(got[i].slaMisses, want[i].slaMisses) << i;
        EXPECT_EQ(got[i].offlineCoreSeconds, want[i].offlineCoreSeconds)
            << i;
    }
}

void
expectSameReport(const FleetReport &got, const FleetReport &want)
{
    EXPECT_EQ(got.simulated, want.simulated);
    EXPECT_EQ(got.submitted, want.submitted);
    EXPECT_EQ(got.completed, want.completed);
    EXPECT_EQ(got.completedCritical, want.completedCritical);
    EXPECT_EQ(got.requeued, want.requeued);
    EXPECT_EQ(got.pendingAtEnd, want.pendingAtEnd);
    EXPECT_EQ(got.runningAtEnd, want.runningAtEnd);
    EXPECT_EQ(got.slaViolations, want.slaViolations);
    EXPECT_EQ(got.p99Latency, want.p99Latency);
    EXPECT_EQ(got.fleetEnergy, want.fleetEnergy);
    EXPECT_EQ(got.energyPerJob, want.energyPerJob);
    EXPECT_EQ(got.availability, want.availability);
    EXPECT_EQ(got.recoveries, want.recoveries);
    EXPECT_EQ(got.injectedDues, want.injectedDues);
    EXPECT_EQ(got.quarantines, want.quarantines);
    EXPECT_EQ(got.readmissions, want.readmissions);
    EXPECT_EQ(got.offlineChipsAtEnd, want.offlineChipsAtEnd);
    EXPECT_EQ(got.drainedCoreSeconds, want.drainedCoreSeconds);
    expectSameRows(got.domainImpact, want.domainImpact);
}

FleetConfig
coldHealthConfig()
{
    FleetConfig cfg;
    cfg.numChips = 2;
    cfg.seed = 0xF1EE7;
    cfg.jobs.arrivalsPerSecond = 6.0;
    cfg.jobs.seed = 99;
    cfg.recovery.checkpointInterval = 1.0;
    cfg.recovery.recoveryLatency = 0.2;
    // Plenty of injected DUEs so the windowed recovery rate crosses
    // the (deliberately hair-trigger) quarantine threshold.
    cfg.faults.dueFlipsPerHour = 2400.0;
    cfg.chaos = denseChaosConfig();
    cfg.chaos.railGroupSize = 1;
    cfg.chaos.rackSize = 1;
    cfg.chaos.thermalZoneSize = 1;
    cfg.health.enabled = true;
    cfg.health.windowTau = 1.0;
    cfg.health.degradeRate = 0.05;
    cfg.health.quarantineRate = 0.2;
    cfg.health.quarantineHold = 0.3;
    cfg.health.selfTestDuration = 0.5;
    cfg.health.probationDuration = 1.0;
    return cfg;
}

TEST(FleetHealth, QuarantineCycleRunsOnTheColdPath)
{
    const FleetConfig cfg = coldHealthConfig();
    ExperimentPool pool(2);
    Fleet fleet(cfg);
    fleet.run(0.0, pool); // build nodes
    std::set<ChipHealth> seen;
    for (unsigned s = 0; s < 100; ++s) {
        fleet.run(0.1, pool);
        for (unsigned c = 0; c < cfg.numChips; ++c)
            seen.insert(fleet.node(c).health());
    }
    EXPECT_TRUE(seen.count(ChipHealth::quarantined));
    EXPECT_TRUE(seen.count(ChipHealth::selfTesting));

    const FleetReport rep = fleet.report();
    EXPECT_GT(rep.quarantines, 0u);
    EXPECT_GT(rep.drainedCoreSeconds, 0.0);
    EXPECT_GE(rep.availability, 0.0);
    EXPECT_LE(rep.availability, 1.0);
    std::uint64_t node_quarantines = 0;
    for (unsigned c = 0; c < cfg.numChips; ++c) {
        node_quarantines += fleet.node(c).quarantines();
        EXPECT_GE(fleet.node(c).offlineTime(), 0.0);
    }
    EXPECT_EQ(rep.quarantines, node_quarantines);

    // Exact pin of the cold lifecycle and its blast-radius rows: the
    // hair-trigger thresholds keep both chips re-testing after their
    // first quarantine, and the cold path credits no SLA misses.
    EXPECT_EQ(rep.quarantines, 2u);
    EXPECT_EQ(rep.readmissions, 0u);
    const std::uint64_t want_quarantines[] = {1, 1};
    const Seconds want_offline[] = {55.599999999999866, 75.599999999999994};
    const Seconds want_drained[] = {7.4339058930500377, 3.6038336992241065};
    for (unsigned c = 0; c < cfg.numChips; ++c) {
        EXPECT_EQ(fleet.node(c).quarantines(), want_quarantines[c]) << c;
        EXPECT_EQ(fleet.node(c).readmissions(), 0u) << c;
        EXPECT_EQ(fleet.node(c).offlineTime(), want_offline[c]) << c;
        EXPECT_EQ(fleet.node(c).drainedWork(), want_drained[c]) << c;
    }
    const std::vector<FleetReport::DomainImpact> want_rows = {
        {FailureDomainKind::railGroup, 1, 2, 2, 0, 0, 23.999999999999979},
        {FailureDomainKind::rack, 0, 3, 3, 0, 0, 31.99999999999995},
        {FailureDomainKind::rack, 1, 1, 2, 0, 0, 16.000000000000007},
        {FailureDomainKind::thermalZone, 1, 1, 0, 0, 0, 3.1999999999999997},
    };
    expectSameRows(rep.domainImpact, want_rows);
}

TEST(FleetSnapshot, MidQuarantineChaosRestoreIsBitIdentical)
{
    const FleetConfig cfg = coldHealthConfig();
    const unsigned total_slices = 60;
    ExperimentPool pool(2);

    Fleet ref(cfg);
    ref.run(0.0, pool);
    for (unsigned s = 0; s < total_slices; ++s)
        ref.run(0.1, pool);

    // Run the victim until a chip sits in quarantine, then snapshot.
    Fleet victim(cfg);
    victim.run(0.0, pool);
    unsigned done = 0;
    const auto quarantined = [&] {
        for (unsigned c = 0; c < cfg.numChips; ++c) {
            if (victim.node(c).health() == ChipHealth::quarantined)
                return true;
        }
        return false;
    };
    while (done < total_slices && !quarantined()) {
        victim.run(0.1, pool);
        ++done;
    }
    ASSERT_LT(done, total_slices)
        << "test script no longer captures a mid-quarantine fleet";
    StateWriter wvic;
    victim.snapshot(wvic);
    const auto snap = wvic.finish();

    ExperimentPool other_pool(4);
    Fleet revived(cfg);
    StateReader r(snap);
    revived.restore(r, other_pool);
    for (unsigned s = done; s < total_slices; ++s)
        revived.run(0.1, other_pool);

    StateWriter wref, wrev;
    ref.snapshot(wref);
    revived.snapshot(wrev);
    EXPECT_EQ(wrev.finish(), wref.finish());
    expectSameReport(revived.report(), ref.report());
}

// ---------------------------------------------------------------------
// TrafficGenerator robustness
// ---------------------------------------------------------------------

TEST(TrafficRobustness, ClosedLoopShareIsSaneAtColdStart)
{
    TrafficGenerator::Config cfg;
    cfg.baseArrivalsPerSecond = 0.0;
    cfg.closedUsers = 100.0;
    cfg.thinkTime = 2.0;
    cfg.seed = 0xC01D;
    TrafficGenerator gen(cfg);

    // Cold start: no job has completed yet, so the latency EWMA the
    // fleet feeds back is exactly 0. Expected rate is then
    // closedUsers / thinkTime = 50/s — not a division blow-up.
    std::vector<TrafficArrival> out;
    for (unsigned s = 0; s < 100; ++s)
        gen.generateSlice(s * 0.1, (s + 1) * 0.1, /*latency=*/0.0, out);
    EXPECT_GT(out.size(), 350u);
    EXPECT_LT(out.size(), 650u);
    for (const TrafficArrival &a : out) {
        EXPECT_TRUE(std::isfinite(a.arrival));
        EXPECT_TRUE(std::isfinite(a.serviceTime));
        EXPECT_GT(a.serviceTime, 0.0);
        EXPECT_GT(a.deadline, a.arrival);
    }
}

TEST(TrafficRobustness, ClosedLoopShareClampsUnderCapacityCollapse)
{
    TrafficGenerator::Config cfg;
    cfg.baseArrivalsPerSecond = 0.0;
    cfg.closedUsers = 100.0;
    cfg.thinkTime = 2.0;
    cfg.seed = 0xC01D;
    TrafficGenerator gen(cfg);

    // Mass quarantine: latency feedback explodes as the fleet loses
    // capacity. The closed-loop share must shrink toward zero, never
    // divide by zero or go negative.
    std::vector<TrafficArrival> out;
    gen.generateSlice(0.0, 0.1, /*latency=*/1e12, out);
    gen.generateSlice(0.1, 0.2, /*latency=*/
                      std::numeric_limits<double>::infinity(), out);
    EXPECT_LE(out.size(), 1u);
    for (const TrafficArrival &a : out)
        EXPECT_TRUE(std::isfinite(a.arrival));
}

TEST(TrafficRobustness, FleetSurvivesMassQuarantine)
{
    // Every chip is one failure domain and the storm script is dense
    // enough that most of the fleet cycles through quarantine at once;
    // placement must keep conserving jobs with almost no capacity.
    ScaleFleetConfig cfg = stormyScaleConfig();
    cfg.numChips = 32;
    cfg.chipsPerShard = 16;
    cfg.traffic.baseArrivalsPerSecond = 1.6 * 32.0;
    cfg.traffic.users = 32 * 20;
    cfg.traffic.hotSessions = 64; // must fit the shrunken population
    cfg.traffic.closedUsers = 10.0;
    cfg.governor.fleetBudget = 20.0 * 32.0;
    cfg.chaos.rackSize = 32;
    cfg.chaos.dueStormsPerHour = 3600.0;
    cfg.chaos.dueStormRate = 6.0;
    cfg.chaos.dueStormDuration = 4.0;
    cfg.health.quarantineRate = 0.5;
    cfg.auditEverySlices = 1;

    ExperimentPool pool(2);
    ShardedFleet fleet(cfg);
    fleet.run(12.0, pool);
    EXPECT_TRUE(fleet.auditViolations().empty())
        << fleet.auditViolations().front();
    EXPECT_GT(fleet.report().quarantines, 0u);

    const FleetReport rep = fleet.report();
    EXPECT_EQ(rep.submitted, rep.completed + rep.pendingAtEnd);
    EXPECT_TRUE(std::isfinite(rep.meanLatency));
    EXPECT_TRUE(std::isfinite(rep.availability));
    EXPECT_TRUE(std::isfinite(rep.energyPerJob));
    EXPECT_GE(rep.availability, 0.0);
    EXPECT_LE(rep.availability, 1.0);
}

} // namespace
} // namespace vspec
