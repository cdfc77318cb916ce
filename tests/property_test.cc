/**
 * @file
 * Cross-module property tests (parameterized sweeps over seeds,
 * voltages and policies) for the invariants the mechanism's safety
 * rests on:
 *
 *  - the two error-sampling paths agree at every voltage,
 *  - the calibration sweep finds the true weakest line on any die,
 *  - the controller regulates into its band for any sane band,
 *  - error probabilities are monotone in voltage everywhere,
 *  - the frequency continuum is well-behaved between the anchors.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "platform/harness.hh"
#include "workload/benchmarks.hh"

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

/** Probe path vs bit-accurate path, across the whole S-curve. */
class ProbeAgreement : public ::testing::TestWithParam<double>
{
};

TEST_P(ProbeAgreement, RatesMatchAtEveryVoltage)
{
    Rng rng(17);
    CacheArray array(itanium9560::l2Data(), noisyDist(), 465.0, rng);
    const WeakLineInfo weakest = array.weakestLine();
    const Millivolt v = weakest.weakestVc + GetParam();

    Rng draw_a(18), draw_b(19);
    const std::uint64_t n = 8000;
    const ProbeStats probe =
        array.probeLine(weakest.set, weakest.way, v, n, draw_a);
    std::uint64_t events = 0;
    LineReadResult read;
    for (std::uint64_t i = 0; i < n; ++i) {
        array.readLine(weakest.set, weakest.way, v, draw_b, read);
        for (const auto &event : read.events)
            events += (event.status == EccStatus::correctedSingle);
    }
    const double ra = double(probe.correctableEvents) / n;
    const double rb = double(events) / n;
    const double sigma = std::sqrt(std::max(rb, 1e-4) / double(n));
    EXPECT_NEAR(ra, rb, 6.0 * sigma + 0.02) << "offset " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(SCurve, ProbeAgreement,
                         ::testing::Values(-25.0, -10.0, 0.0, 10.0,
                                           20.0, 35.0));

/** Calibration finds the true weakest line on any die. */
class CalibrationSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CalibrationSeeds, DesignatesTheTrueWeakestLine)
{
    setInformEnabled(false);
    ChipConfig cfg;
    cfg.seed = GetParam();
    Chip chip(cfg);
    const auto setup = harness::armHardware(chip);

    for (unsigned d = 0; d < chip.numDomains(); ++d) {
        const auto &target = setup.targets[d];
        Millivolt truth = 0.0;
        for (Core *core : chip.domain(d).cores()) {
            truth = std::max({truth,
                              core->l2iArray().weakestLine().weakestVc,
                              core->l2dArray().weakestLine().weakestVc});
        }
        Millivolt designated = 0.0;
        for (const auto &cell :
             target.array->lineWeakCells(target.set, target.way))
            designated = std::max(designated, cell.vc);
        // Near-ties are legitimate: a line with several weak cells can
        // out-err the single weakest cell at the detection level. The
        // designated line must sit within a couple of dynamic sigmas
        // of the true weakest so the feedback still leads every real
        // data line.
        const Millivolt sigma_dyn =
            target.array->sram().distribution().sigmaDynamic;
        EXPECT_GE(designated, truth - 2.5 * sigma_dyn)
            << "domain " << d;
        EXPECT_LE(designated, truth) << "domain " << d;
    }
}

INSTANTIATE_TEST_SUITE_P(Dies, CalibrationSeeds,
                         ::testing::Values(1u, 17u, 123u, 20140613u));

/** Speculation on any die settles below nominal without crashing. */
class SpeculationSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SpeculationSeeds, SafeAndProfitable)
{
    setInformEnabled(false);
    ChipConfig cfg;
    cfg.seed = GetParam();
    Chip chip(cfg);
    auto setup = harness::armHardware(chip);
    harness::assignSuite(chip, Suite::specInt2000, 10.0);
    Simulator sim(chip, 0.002);
    sim.attachControlSystem(setup.control.get());
    sim.run(40.0);
    EXPECT_FALSE(sim.anyCrashed()) << "seed " << GetParam();
    EXPECT_EQ(sim.eventLog().uncorrectableCount(), 0u);
    for (unsigned d = 0; d < chip.numDomains(); ++d) {
        const Millivolt v = chip.domain(d).regulator().setpoint();
        EXPECT_LT(v, 760.0) << "seed " << GetParam();
        EXPECT_GT(v, 560.0) << "seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Dies, SpeculationSeeds,
                         ::testing::Values(3u, 99u, 777u));

/** Controller regulates into any sane band. */
class BandSweep
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(BandSweep, SteadyStateInsideBand)
{
    const auto [floor_rate, ceiling_rate] = GetParam();
    Rng rng(23);
    CacheArray array(itanium9560::l2Data(), noisyDist(), 465.0, rng);
    const WeakLineInfo weakest = array.weakestLine();
    VoltageRegulator reg(800.0);
    EccMonitor monitor;
    monitor.activate(array, weakest.set, weakest.way);

    ControlPolicy policy;
    policy.floorRate = floor_rate;
    policy.ceilingRate = ceiling_rate;
    policy.maxVdd = 800.0;
    DomainController controller(reg, monitor, policy);

    Rng draw(24);
    for (int t = 0; t < 6000; ++t) {
        monitor.runProbes(0.01, reg.output(), draw);
        controller.tick(0.01);
        reg.advance(0.01);
    }

    monitor.readAndResetCounters();
    monitor.runProbes(2.0, reg.output(), draw);
    EXPECT_GT(monitor.errorRate(), floor_rate * 0.2);
    EXPECT_LT(monitor.errorRate(), ceiling_rate * 4.0);
    EXPECT_LT(reg.setpoint(), 800.0);
}

INSTANTIATE_TEST_SUITE_P(
    Bands, BandSweep,
    ::testing::Values(std::pair<double, double>{0.002, 0.01},
                      std::pair<double, double>{0.01, 0.05},
                      std::pair<double, double>{0.03, 0.10}));

/** Monotonicity of the whole error pipeline in voltage. */
TEST(Monotonicity, ProbeRateNeverIncreasesWithVoltage)
{
    Rng rng(29);
    CacheArray array(itanium9560::l2Instruction(), noisyDist(), 465.0,
                     rng);
    const WeakLineInfo weakest = array.weakestLine();
    double prev = 2.0;
    for (Millivolt v = weakest.weakestVc - 50.0;
         v <= weakest.weakestVc + 60.0; v += 2.0) {
        double pc = 0.0, pu = 0.0;
        array.lineEventProbabilities(weakest.set, weakest.way, v, pc,
                                     pu);
        // Expected correctable events per access can locally rise as a
        // *second* cell starts flipping while the first saturates, but
        // the uncorrectable probability is strictly monotone.
        EXPECT_LE(pu, prev + 1e-12);
        prev = pu;
    }
}

/** The frequency continuum between the anchors is well-behaved. */
class FrequencyContinuum : public ::testing::TestWithParam<double>
{
};

TEST_P(FrequencyContinuum, OrderedMargins)
{
    const Megahertz f = GetParam();
    VariationModel model(31);
    for (unsigned core = 0; core < 4; ++core) {
        const auto dist =
            model.cellDistribution(CellClass::denseL2, f, core, 60.0);
        // The logic floor stays below the dense-cell tail at every
        // frequency — the cache errs before the core dies.
        const Millivolt weak_estimate =
            dist.mean + 5.0 * dist.sigmaRandom;
        EXPECT_LT(model.logicFloor(core, f), weak_estimate)
            << "f=" << f << " core=" << core;
    }
    // Amplification within [1, lowVddAmplification].
    EXPECT_GE(model.amplification(f), 1.0);
    EXPECT_LE(model.amplification(f),
              model.params().lowVddAmplification);
}

INSTANTIATE_TEST_SUITE_P(Points, FrequencyContinuum,
                         ::testing::Values(340.0, 500.0, 680.0, 1000.0,
                                           1500.0, 2000.0, 2530.0));

/** Energy accounting is consistent with power integration. */
TEST(EnergyConsistency, ChipEnergyMatchesMeanPowerTimesTime)
{
    setInformEnabled(false);
    ChipConfig cfg;
    cfg.seed = 37;
    Chip chip(cfg);
    harness::assignSuite(chip, Suite::coreMark, 30.0);
    Simulator sim(chip, 0.01);
    sim.enableTrace(0.5);
    sim.run(10.0);

    const double mean_traced = sim.trace().meanChipPower();
    EXPECT_NEAR(sim.chipEnergy().energy() / sim.chipEnergy().elapsed(),
                mean_traced, 0.05 * mean_traced);
}

} // namespace
} // namespace vspec
