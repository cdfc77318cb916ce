/**
 * @file
 * Chaos-recovery fixture: randomized kill/restore trials over the
 * fault-injected campaign, plus tick-level InvariantAuditor coverage.
 * The bench (bench/chaos_campaign.cc) runs the long campaign; this
 * fixture pins the contract in the regression suite with short trials.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "fleet/fleet.hh"
#include "platform/chip.hh"
#include "platform/experiment_pool.hh"
#include "platform/harness.hh"
#include "platform/invariant_auditor.hh"
#include "platform/simulator.hh"
#include "resilience/fault_injector.hh"
#include "resilience/recovery_manager.hh"
#include "snapshot/state_io.hh"

namespace vspec
{
namespace
{

constexpr Seconds kTick = 0.005;

FaultInjector::Config
chaosFaults()
{
    FaultInjector::Config faults;
    faults.bitFlipsPerHour = 2000.0;
    faults.dueFlipsPerHour = 600.0;
    faults.droopsPerHour = 1200.0;
    faults.droopMagnitudeMv = 25.0;
    faults.droopDuration = 0.05;
    faults.monitorDropoutsPerHour = 300.0;
    faults.dropoutDuration = 0.3;
    faults.stuckRegulatorsPerHour = 300.0;
    faults.stuckDuration = 0.3;
    return faults;
}

struct CampaignSim
{
    std::unique_ptr<Chip> chip;
    HardwareSpeculationSetup setup;
    std::unique_ptr<RecoveryManager> recovery;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<InvariantAuditor> auditor;
};

CampaignSim
buildCampaign(std::uint64_t seed, SamplingMode sampling)
{
    CampaignSim c;
    ChipConfig cfg;
    cfg.seed = seed;
    c.chip = std::make_unique<Chip>(cfg);
    c.setup = harness::armHardware(*c.chip);
    harness::assignSuite(*c.chip, Suite::coreMark, 5.0);

    RecoveryManager::Config recovery_cfg;
    recovery_cfg.checkpointInterval = 0.5;
    recovery_cfg.recoveryLatency = 0.1;
    c.recovery = harness::armRecovery(*c.chip, recovery_cfg);

    c.sim = std::make_unique<Simulator>(*c.chip, kTick);
    c.sim->setSamplingMode(sampling);
    c.sim->enableTrace(0.1);
    c.sim->attachControlSystem(c.setup.control.get());
    c.injector = harness::armFaultInjector(*c.chip, chaosFaults(),
                                           &c.sim->eventLog());
    c.sim->attachFaultInjector(c.injector.get());
    c.sim->attachRecoveryManager(c.recovery.get());

    c.auditor = std::make_unique<InvariantAuditor>();
    c.auditor->attach(*c.sim);
    return c;
}

std::vector<std::uint8_t>
simState(const Simulator &sim)
{
    StateWriter w;
    sim.snapshot(w);
    return w.finish();
}

class ChaosCampaign : public ::testing::TestWithParam<SamplingMode>
{
};

TEST_P(ChaosCampaign, RandomKillTicksAllReplayToTheSameEndState)
{
    const SamplingMode sampling = GetParam();
    constexpr std::uint64_t horizon = 600;

    CampaignSim ref = buildCampaign(0xC4A05, sampling);
    ref.sim->runTicks(horizon);
    const auto want = simState(*ref.sim);
    EXPECT_TRUE(ref.auditor->clean())
        << ref.auditor->violations().front();
    EXPECT_GT(ref.auditor->checksRun(), 0u);

    Rng chaos(0xDEAD);
    for (int trial = 0; trial < 4; ++trial) {
        const std::uint64_t kill =
            1 + std::uint64_t(chaos.uniform() * double(horizon - 1));

        std::vector<std::uint8_t> snapshot;
        {
            CampaignSim victim = buildCampaign(0xC4A05, sampling);
            victim.sim->runTicks(kill);
            snapshot = simState(*victim.sim);
            ASSERT_TRUE(victim.auditor->clean())
                << victim.auditor->violations().front();
        }

        CampaignSim revived = buildCampaign(0xC4A05, sampling);
        StateReader r(snapshot);
        revived.sim->restore(r);
        revived.sim->runTicks(horizon - kill);
        EXPECT_EQ(simState(*revived.sim), want)
            << "kill at tick " << kill << " diverged";
        EXPECT_TRUE(revived.auditor->clean())
            << revived.auditor->violations().front();
    }
}

INSTANTIATE_TEST_SUITE_P(SamplingModes, ChaosCampaign,
                         ::testing::Values(SamplingMode::exact,
                                           SamplingMode::chipBatched));

TEST(ChaosFleet, RandomKillSliceReplaysToTheSameEndState)
{
    FleetConfig cfg;
    cfg.numChips = 2;
    cfg.seed = 0xF1EE7;
    cfg.policy = SchedulerPolicy::riskAware;
    cfg.jobs.arrivalsPerSecond = 10.0;
    cfg.jobs.firstArrival = 0.2;
    cfg.jobs.seed = 0xCAFE;
    cfg.governor.fleetBudget = 44.0;
    cfg.governor.interval = 0.5;
    cfg.governor.minChipCap = 5.0;
    cfg.recovery.checkpointInterval = 0.5;
    cfg.recovery.recoveryLatency = 0.1;
    cfg.faults = chaosFaults();

    ExperimentPool pool(2);
    const Seconds horizon = 2.0;

    Fleet ref(cfg);
    ref.run(horizon, pool);
    StateWriter wref;
    ref.snapshot(wref);
    const auto want = wref.finish();

    Rng chaos(0xFEED);
    const long long slices =
        (long long)(horizon / cfg.slice + 0.5);
    const long long kill =
        1 + (long long)(chaos.uniform() * double(slices - 1));

    std::vector<std::uint8_t> snapshot;
    {
        Fleet victim(cfg);
        victim.run(double(kill) * cfg.slice, pool);
        StateWriter w;
        victim.snapshot(w);
        snapshot = w.finish();
    }

    Fleet revived(cfg);
    StateReader r(snapshot);
    revived.restore(r, pool);

    // Arm auditors on every restored node for the remainder.
    std::vector<std::unique_ptr<InvariantAuditor>> auditors;
    for (unsigned i = 0; i < revived.numChips(); ++i) {
        auditors.push_back(std::make_unique<InvariantAuditor>());
        auditors.back()->attach(revived.node(i).simulator());
    }

    revived.run(double(slices - kill) * cfg.slice, pool);
    StateWriter wgot;
    revived.snapshot(wgot);
    EXPECT_EQ(wgot.finish(), want) << "kill at slice " << kill;
    for (const auto &auditor : auditors)
        EXPECT_TRUE(auditor->clean())
            << auditor->violations().front();
}

TEST(InvariantAuditor, CleanRunReportsNoViolations)
{
    ChipConfig cfg;
    cfg.seed = 7;
    Chip chip(cfg);
    auto setup = harness::armHardware(chip);
    harness::assignSuite(chip, Suite::coreMark, 5.0);
    Simulator sim(chip, kTick);
    sim.attachControlSystem(setup.control.get());

    InvariantAuditor auditor;
    auditor.attach(sim);
    sim.runTicks(200);
    EXPECT_EQ(auditor.checksRun(), 200u);
    EXPECT_EQ(auditor.violationCount(), 0u);
    EXPECT_TRUE(auditor.clean());
    EXPECT_TRUE(auditor.violations().empty());
}

TEST(InvariantAuditor, CadenceSkipsTicks)
{
    ChipConfig cfg;
    cfg.seed = 7;
    Chip chip(cfg);
    harness::assignSuite(chip, Suite::coreMark, 5.0);
    Simulator sim(chip, kTick);

    InvariantAuditor auditor(10);
    auditor.attach(sim);
    sim.runTicks(100);
    EXPECT_EQ(auditor.checksRun(), 10u);
}

TEST(InvariantAuditor, AuditNowRunsOnDemand)
{
    ChipConfig cfg;
    cfg.seed = 7;
    Chip chip(cfg);
    harness::assignSuite(chip, Suite::coreMark, 5.0);
    Simulator sim(chip, kTick);

    InvariantAuditor auditor;
    auditor.attach(sim);
    auditor.auditNow();
    EXPECT_EQ(auditor.checksRun(), 1u);
    EXPECT_TRUE(auditor.clean());
}

} // namespace
} // namespace vspec
