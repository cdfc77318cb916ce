/**
 * @file
 * Cross-module integration tests: the full quickstart flow, noise
 * robustness under a voltage virus, the §V-E retention experiment,
 * aging-driven recalibration, and hardware-vs-software energy.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/stats.hh"
#include "platform/harness.hh"
#include "sram/aging.hh"
#include "workload/benchmarks.hh"
#include "workload/virus.hh"

namespace vspec
{
namespace
{

ChipConfig
testConfig(std::uint64_t seed = 42)
{
    ChipConfig cfg;
    cfg.seed = seed;
    return cfg;
}

TEST(Integration, QuickstartFlow)
{
    setInformEnabled(false);
    Chip chip(testConfig());
    auto setup = harness::armHardware(chip);
    harness::assignSuite(chip, Suite::specInt2000, 5.0);

    Simulator sim(chip, 0.001);
    sim.attachControlSystem(setup.control.get());
    sim.enableTrace(1.0);
    sim.run(30.0);

    EXPECT_FALSE(sim.anyCrashed());
    EXPECT_FALSE(sim.trace().empty());
    for (unsigned d = 0; d < chip.numDomains(); ++d)
        EXPECT_LT(chip.domain(d).regulator().setpoint(), 800.0);
}

TEST(Integration, SurvivesResonantVoltageVirus)
{
    // Section V-D.2: benchmarks on the main core with the NOP-8 virus
    // on the auxiliary core — must complete without crashes.
    setInformEnabled(false);
    Chip chip(testConfig());
    auto setup = harness::armHardware(chip);
    harness::assignIdle(chip);
    chip.core(0).setWorkload(
        benchmarks::suiteSequence(Suite::specInt2000, 10.0));
    chip.core(1).setWorkload(std::make_shared<VoltageVirusWorkload>(8));

    Simulator sim(chip, 0.001);
    sim.attachControlSystem(setup.control.get());
    sim.run(60.0);

    EXPECT_FALSE(sim.anyCrashed());
    // The virus forces the noisy domain to settle at a higher voltage
    // than an equally loaded quiet domain would need.
    EXPECT_LT(chip.domain(0).regulator().setpoint(), 800.0);
}

TEST(Integration, AdaptsToStressKernelSwings)
{
    // Section V-D.1 / Fig. 14: the system follows 30 s on/off load
    // swings on the shared rail without crashing.
    setInformEnabled(false);
    Chip chip(testConfig());
    auto setup = harness::armHardware(chip);
    harness::assignIdle(chip);
    chip.core(1).setWorkload(
        std::make_shared<StressKernelWorkload>(5.0, 5.0));

    Simulator sim(chip, 0.001);
    sim.attachControlSystem(setup.control.get());
    sim.enableTrace(0.5);
    sim.run(40.0);
    EXPECT_FALSE(sim.anyCrashed());

    // Voltage responds to the phases: spread over time is nonzero.
    RunningStats v;
    for (const auto &s : sim.trace().samples())
        v.add(s.domainSetpoint[0]);
    EXPECT_GT(v.max() - v.min(), 4.0);
}

TEST(Integration, RetentionExperiment)
{
    // Section V-E: write at high voltage, soak at a voltage where
    // accesses would fail ~10% of the time, read back at high voltage
    // -> no errors, because the failures are access failures, not
    // retention failures.
    setInformEnabled(false);
    Chip chip(testConfig());
    Core &core = chip.core(0);
    auto [array, line] = experiments::weakestL2Line(core);

    array->writePattern(line.set, line.way, 0x5555555555555555ULL);

    // "Soak": no accesses happen at low voltage — idle cells cannot
    // corrupt in this model (by construction, matching the paper's
    // finding). Read back well above the weak cell's Vc.
    Rng draw(1);
    LineReadResult read;
    for (int i = 0; i < 1000; ++i) {
        array->readLine(line.set, line.way, line.weakestVc + 80.0, draw,
                        read);
        EXPECT_TRUE(read.events.empty());
        EXPECT_EQ(read.data[0], 0x5555555555555555ULL);
    }
}

TEST(Integration, AgingTriggersRecalibration)
{
    // Section III-D: aging can change which line is weakest; periodic
    // recalibration must retarget the monitor.
    setInformEnabled(false);
    Chip chip(testConfig(77));
    Core &core0 = chip.core(0);
    Core &core1 = chip.core(1);

    Calibrator calibrator;
    Rng rng = chip.rng().fork(1);
    const auto before = calibrator.calibrateDomain(
        {&core0, &core1}, 800.0, rng);
    ASSERT_TRUE(before.has_value());

    // Age the arrays hard (years of stress with strong randomness so
    // the ranking reshuffles).
    AgingModel::Params aging_params;
    aging_params.ratePerDecade = 15.0;
    aging_params.randomFraction = 2.0;
    const AgingModel aging(aging_params);
    Rng age_rng = chip.rng().fork(2);
    for (Core *core : {&core0, &core1}) {
        aging.advance(core->l2iArray().sram(), 0.0, 3e8, age_rng);
        aging.advance(core->l2dArray().sram(), 0.0, 3e8, age_rng);
        core->refreshWeakLines();
    }

    const auto after = calibrator.calibrateDomain(
        {&core0, &core1}, 800.0, rng);
    ASSERT_TRUE(after.has_value());
    // Aging raised every Vc, so the first error appears earlier.
    EXPECT_GE(after->firstErrorVdd, before->firstErrorVdd);
    // And the monitor can be retargeted at the (possibly new) line.
    EccMonitor &monitor = chip.monitorFor(*after->array);
    monitor.activate(*after->array, after->set, after->way);
    EXPECT_TRUE(monitor.active());
}

TEST(Integration, HardwareBeatsSoftwareOnEnergy)
{
    // Fig. 17: hardware speculation saves more energy than the
    // firmware baseline on the same workload.
    setInformEnabled(false);

    // Hardware run.
    Chip hw_chip(testConfig());
    auto hw = harness::armHardware(hw_chip);
    harness::assignSuite(hw_chip, Suite::coreMark, 20.0);
    Simulator hw_sim(hw_chip, 0.001);
    hw_sim.attachControlSystem(hw.control.get());
    hw_sim.run(60.0);
    ASSERT_FALSE(hw_sim.anyCrashed());

    // Software run on an identical chip, floored at the per-domain
    // first-error levels from the same calibration.
    Chip sw_chip(testConfig());
    std::vector<Millivolt> floors;
    for (const auto &target : hw.targets)
        floors.push_back(target.firstErrorVdd + 10.0);
    auto sw = harness::armSoftware(sw_chip, floors);
    harness::assignSuite(sw_chip, Suite::coreMark, 20.0);
    Simulator sw_sim(sw_chip, 0.001);
    for (unsigned d = 0; d < sw_chip.numDomains(); ++d)
        sw_sim.attachSoftwareSpeculator(d, sw[d].get());
    sw_sim.run(60.0);
    ASSERT_FALSE(sw_sim.anyCrashed());

    // Compare settled core-rail voltages and per-core energy.
    double hw_v = 0.0, sw_v = 0.0;
    for (unsigned d = 0; d < hw_chip.numDomains(); ++d) {
        hw_v += hw_chip.domain(d).regulator().setpoint();
        sw_v += sw_chip.domain(d).regulator().setpoint();
    }
    EXPECT_LT(hw_v, sw_v);

    double hw_energy = 0.0, sw_energy = 0.0;
    for (unsigned c = 0; c < hw_chip.numCores(); ++c) {
        hw_energy += hw_sim.coreEnergy(c).energy();
        sw_energy += sw_sim.coreEnergy(c).energy();
    }
    EXPECT_LT(hw_energy, sw_energy);
}

TEST(Integration, NoUncorrectableEventsAtOperatingPoint)
{
    // Safety property: a long speculation run never sees data
    // corruption (the paper: dozens of hours without corruption).
    setInformEnabled(false);
    Chip chip(testConfig(7));
    auto setup = harness::armHardware(chip);
    harness::assignSuite(chip, Suite::specFp2000, 10.0);
    Simulator sim(chip, 0.001);
    sim.attachControlSystem(setup.control.get());
    sim.run(120.0);
    EXPECT_FALSE(sim.anyCrashed());
    EXPECT_EQ(sim.eventLog().uncorrectableCount(), 0u);
    for (unsigned d = 0; d < chip.numDomains(); ++d) {
        EXPECT_FALSE(
            setup.control->domain(d).monitor().sawUncorrectable());
    }
}

} // namespace
} // namespace vspec
