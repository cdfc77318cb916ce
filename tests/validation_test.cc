/**
 * @file
 * Configuration validation and failure-injection tests: every module
 * must reject inconsistent parameters loudly (fatal -> exit(1)) and
 * the telemetry/reporting paths must behave under edge inputs.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "fleet/fleet.hh"
#include "fleet/shard.hh"
#include "platform/harness.hh"
#include "platform/simulator.hh"
#include "sram/aging.hh"
#include "workload/benchmarks.hh"
#include "workload/virus.hh"

namespace vspec
{
namespace
{

VcDistribution
noisyDist()
{
    VcDistribution d;
    d.mean = 300.0;
    d.sigmaRandom = 55.0;
    d.sigmaDynamic = 10.0;
    return d;
}

TEST(Validation, CacheGeometryRejectsBadShapes)
{
    CacheGeometry g;
    g.name = "bad";
    g.sizeBytes = 1000;  // Not a multiple of the line size.
    g.associativity = 4;
    g.lineBytes = 128;
    EXPECT_EXIT({ g.validate(); }, ::testing::ExitedWithCode(1), "");

    CacheGeometry h;
    h.name = "bad2";
    h.sizeBytes = 4096;
    h.associativity = 4;
    h.lineBytes = 128;
    h.eccDataBits = 60;  // Line is not a whole number of words.
    EXPECT_EXIT({ h.validate(); }, ::testing::ExitedWithCode(1), "");
}

TEST(Validation, SecdedRejectsBadWidths)
{
    EXPECT_EXIT({ SecdedCodec bad(0); }, ::testing::ExitedWithCode(1),
                "");
    EXPECT_EXIT({ SecdedCodec bad(65); }, ::testing::ExitedWithCode(1),
                "");
}

TEST(Validation, RegulatorRejectsBadParams)
{
    VoltageRegulator::Params params;
    params.stepMv = 0.0;
    EXPECT_EXIT({ VoltageRegulator bad(800.0, params); },
                ::testing::ExitedWithCode(1), "");

    VoltageRegulator::Params inverted;
    inverted.minMv = 900.0;
    inverted.maxMv = 500.0;
    EXPECT_EXIT({ VoltageRegulator bad(800.0, inverted); },
                ::testing::ExitedWithCode(1), "");
}

TEST(Validation, ControlPolicyRejectsInvertedBand)
{
    Rng rng(1);
    CacheArray array(itanium9560::l2Data(), noisyDist(), 465.0, rng);
    VoltageRegulator reg(800.0);
    EccMonitor monitor;
    monitor.activate(array, 0, 0);

    ControlPolicy policy;
    policy.floorRate = 0.05;
    policy.ceilingRate = 0.01;
    EXPECT_EXIT({ DomainController bad(reg, monitor, policy); },
                ::testing::ExitedWithCode(1), "");
}

TEST(Validation, MonitorRejectsBadConfig)
{
    EccMonitor::Config cfg;
    cfg.probesPerSecond = -5.0;
    EXPECT_EXIT({ EccMonitor bad(cfg); },
                ::testing::ExitedWithCode(1), "");
}

TEST(Validation, VirusNeedsHighPowerInstructions)
{
    EXPECT_EXIT(
        {
            VoltageVirusWorkload bad(8, 340.0, /*fma_count=*/0);
        },
        ::testing::ExitedWithCode(1), "");
}

TEST(Validation, SequenceRejectsEmptyOrZeroPhases)
{
    EXPECT_EXIT(
        {
            SequenceWorkload bad("empty", {});
        },
        ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(
        {
            SequenceWorkload bad(
                "zero", {{std::make_shared<IdleWorkload>(), 0.0}});
        },
        ::testing::ExitedWithCode(1), "");
}

TEST(Validation, AgingRejectsBadTau)
{
    AgingModel::Params params;
    params.tau = 0.0;
    EXPECT_EXIT({ AgingModel bad(params); },
                ::testing::ExitedWithCode(1), "");
}

TEST(Validation, SimulatorRejectsNonPositiveTick)
{
    ChipConfig cfg;
    cfg.seed = 2;
    Chip chip(cfg);
    EXPECT_EXIT({ Simulator bad(chip, 0.0); },
                ::testing::ExitedWithCode(1), "");
}

/** Health configs that HealthConfig::validate must refuse. */
std::vector<HealthConfig>
invalidHealthConfigs()
{
    HealthConfig base;
    base.enabled = true;
    HealthConfig healthy_above_degrade = base;
    healthy_above_degrade.healthyRate = 0.1;
    healthy_above_degrade.degradeRate = 0.05;
    HealthConfig degrade_above_quarantine = base;
    degrade_above_quarantine.degradeRate = 0.3;
    degrade_above_quarantine.quarantineRate = 0.2;
    HealthConfig zero_tau = base;
    zero_tau.windowTau = 0.0;
    return {healthy_above_degrade, degrade_above_quarantine, zero_tau};
}

TEST(Validation, ColdFleetRejectsInvalidHealthConfig)
{
    for (const HealthConfig &hc : invalidHealthConfigs()) {
        FleetConfig cfg;
        cfg.health = hc;
        EXPECT_EXIT({ Fleet bad(cfg); }, ::testing::ExitedWithCode(1),
                    "HealthConfig");
    }
}

TEST(Validation, ShardedFleetRejectsInvalidHealthConfig)
{
    for (const HealthConfig &hc : invalidHealthConfigs()) {
        ScaleFleetConfig cfg;
        cfg.numChips = 16;
        cfg.health = hc;
        EXPECT_EXIT({ ShardedFleet bad(cfg); },
                    ::testing::ExitedWithCode(1), "HealthConfig");
    }
}

TEST(Validation, FitTwoPointsRejectsInvertedAnchors)
{
    EXPECT_EXIT(
        {
            AlphaPowerModel::fitTwoPoints(1.3, 340.0, 300.0, 2530.0,
                                          905.0);
        },
        ::testing::ExitedWithCode(1), "");
}

TEST(FailureInjection, SuddenDeepDroopTriggersEmergency)
{
    // Inject an abrupt large droop (beyond anything the workloads
    // produce) and verify the emergency path reacts within one tick
    // rather than waiting for the control interval.
    Rng rng(3);
    CacheArray array(itanium9560::l2Data(), noisyDist(), 465.0, rng);
    const WeakLineInfo weakest = array.weakestLine();
    VoltageRegulator reg(weakest.weakestVc + 20.0);
    EccMonitor monitor;
    monitor.activate(array, weakest.set, weakest.way);

    ControlPolicy policy;
    policy.maxVdd = 800.0;
    DomainController controller(reg, monitor, policy);

    Rng draw(4);
    // Normal tick at the operating point: no emergency.
    monitor.runProbes(0.01, reg.output(), draw);
    controller.tick(0.01);
    EXPECT_EQ(controller.emergencies(), 0u);

    // 40 mV droop hits: the next probe burst saturates and the very
    // next controller tick jumps by the emergency step.
    const Millivolt before = reg.setpoint();
    monitor.runProbes(0.01, reg.output() - 40.0, draw);
    controller.tick(0.001);
    EXPECT_EQ(controller.emergencies(), 1u);
    EXPECT_DOUBLE_EQ(reg.setpoint(),
                     before + policy.emergencyStepMv);
}

TEST(FailureInjection, CrashedCoreStopsGeneratingEvents)
{
    setInformEnabled(false);
    ChipConfig cfg;
    cfg.seed = 5;
    Chip chip(cfg);
    harness::assignSuite(chip, Suite::stress, 5.0);

    // Kill domain 0 outright.
    chip.domain(0).regulator().request(450.0);
    chip.domain(0).regulator().advance(1.0);
    Simulator sim(chip, 0.01);
    sim.run(0.2);
    ASSERT_TRUE(chip.core(0).crashed());

    const std::uint64_t events = sim.coreCorrectableEvents(0);
    sim.run(1.0);
    EXPECT_EQ(sim.coreCorrectableEvents(0), events);
}

TEST(Telemetry, TraceMeansOnEmptyTraceAreZero)
{
    Trace trace;
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.meanChipPower(), 0.0);
    EXPECT_EQ(trace.meanDomainSetpoint(0), 0.0);
    EXPECT_EQ(trace.toTsv(), "");
}

TEST(Telemetry, PerCacheBreakdownRecorded)
{
    EccEventLog log;
    EccEvent event;
    event.cacheName = "L2I";
    event.set = 3;
    event.way = 1;
    event.status = EccStatus::correctedSingle;
    log.record(event);
    event.cacheName = "L2D";
    log.record(event);
    log.record(event);

    EXPECT_EQ(log.correctableCount(), 3u);
    EXPECT_EQ(log.perCacheCorrectable().at("L2I"), 1u);
    EXPECT_EQ(log.perCacheCorrectable().at("L2D"), 2u);

    log.reset();
    EXPECT_TRUE(log.perCacheCorrectable().empty());
    EXPECT_EQ(log.correctableCount(), 0u);
}

TEST(Logging, InformToggle)
{
    const bool was = informEnabled();
    setInformEnabled(false);
    EXPECT_FALSE(informEnabled());
    setInformEnabled(true);
    EXPECT_TRUE(informEnabled());
    setInformEnabled(was);
}

} // namespace
} // namespace vspec
