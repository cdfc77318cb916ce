/**
 * @file
 * Tests for the process-variation substrate: the alpha-power delay
 * model, the regime-dependent variation model, and the tail sampler.
 */

#include <cmath>


#include <gtest/gtest.h>

#include "common/rng.hh"
#include "variation/delay_model.hh"
#include "variation/process_variation.hh"
#include "variation/tail_sampler.hh"

namespace vspec
{
namespace
{

TEST(AlphaPowerModel, DelayDecreasesWithVoltage)
{
    AlphaPowerModel model(1.3, 450.0, 1e-10);
    Seconds prev = model.delayAt(500.0);
    for (Millivolt v = 520.0; v <= 1200.0; v += 20.0) {
        const Seconds d = model.delayAt(v);
        EXPECT_LT(d, prev) << "at " << v << " mV";
        prev = d;
    }
}

TEST(AlphaPowerModel, InfiniteDelayAtThreshold)
{
    AlphaPowerModel model(1.3, 450.0, 1e-10);
    EXPECT_TRUE(std::isinf(model.delayAt(450.0)));
    EXPECT_TRUE(std::isinf(model.delayAt(100.0)));
}

TEST(AlphaPowerModel, CriticalVoltageMeetsTiming)
{
    AlphaPowerModel model(1.3, 420.0, 2e-10);
    for (Megahertz f : {100.0, 340.0, 1000.0, 2530.0}) {
        const Millivolt vc = model.criticalVoltage(f);
        EXPECT_NEAR(model.delayAt(vc), periodOf(f),
                    periodOf(f) * 1e-6);
        // Slightly below fails timing; slightly above meets it.
        EXPECT_GT(model.delayAt(vc - 1.0), periodOf(f));
        EXPECT_LT(model.delayAt(vc + 1.0), periodOf(f));
    }
}

TEST(AlphaPowerModel, FitTwoPointsReproducesAnchors)
{
    const auto model = AlphaPowerModel::fitTwoPoints(1.3, 2530.0, 905.0,
                                                     340.0, 300.0);
    EXPECT_NEAR(model.criticalVoltage(2530.0), 905.0, 0.1);
    EXPECT_NEAR(model.criticalVoltage(340.0), 300.0, 0.1);
    // Intermediate frequencies interpolate monotonically.
    Millivolt prev = model.criticalVoltage(340.0);
    for (Megahertz f = 500.0; f <= 2530.0; f += 250.0) {
        const Millivolt vc = model.criticalVoltage(f);
        EXPECT_GT(vc, prev);
        prev = vc;
    }
}

TEST(VariationModel, AmplificationEndpoints)
{
    VariationModel model(1);
    const auto &p = model.params();
    EXPECT_NEAR(model.amplification(p.highFreq), 1.0, 1e-9);
    EXPECT_NEAR(model.amplification(p.lowFreq), p.lowVddAmplification,
                1e-9);
    // Clamped outside the anchors.
    EXPECT_NEAR(model.amplification(p.highFreq * 2.0), 1.0, 1e-9);
    EXPECT_NEAR(model.amplification(p.lowFreq / 2.0),
                p.lowVddAmplification, 1e-9);
    // Monotone in between.
    EXPECT_GT(model.amplification(800.0), model.amplification(1600.0));
}

TEST(VariationModel, SigmaFourTimesLargerAtLowVdd)
{
    VariationModel model(2);
    const auto &p = model.params();
    const auto high = model.cellDistribution(CellClass::denseL2,
                                             p.highFreq, 0, 60.0);
    const auto low = model.cellDistribution(CellClass::denseL2,
                                            p.lowFreq, 0, 60.0);
    EXPECT_NEAR(low.sigmaRandom / high.sigmaRandom,
                p.lowVddAmplification, 1e-9);
    EXPECT_NEAR(low.sigmaDynamic / high.sigmaDynamic,
                p.lowVddAmplification, 1e-9);
}

TEST(VariationModel, DeterministicPerSeed)
{
    VariationModel a(77), b(77), c(78);
    for (unsigned core = 0; core < 8; ++core) {
        EXPECT_EQ(a.systematicOffset(core, 340.0),
                  b.systematicOffset(core, 340.0));
        EXPECT_EQ(a.logicFloor(core, 340.0), b.logicFloor(core, 340.0));
        EXPECT_EQ(a.dynamicSigma(core, 340.0),
                  b.dynamicSigma(core, 340.0));
    }
    // A different chip has different cores.
    int same = 0;
    for (unsigned core = 0; core < 8; ++core) {
        same += (a.systematicOffset(core, 340.0) ==
                 c.systematicOffset(core, 340.0));
    }
    EXPECT_EQ(same, 0);
}

TEST(VariationModel, CellClassOrderingAtLowVdd)
{
    // The paper's Section II-C: dense L2 cells are the most vulnerable
    // at low voltage; L1/RF cells are far more robust.
    VariationModel model(3);
    const Megahertz f = model.params().lowFreq;
    const auto l2 =
        model.cellDistribution(CellClass::denseL2, f, 0, 60.0);
    const auto l1 =
        model.cellDistribution(CellClass::robustL1, f, 0, 60.0);
    const auto rf =
        model.cellDistribution(CellClass::registerFile, f, 0, 60.0);
    EXPECT_GT(l2.mean, l1.mean);
    EXPECT_GT(l2.mean, rf.mean);
}

TEST(VariationModel, DynamicSigmaWithinConfiguredBand)
{
    VariationModel model(4);
    const auto &p = model.params();
    for (unsigned core = 0; core < 16; ++core) {
        const Millivolt s = model.dynamicSigma(core, p.lowFreq);
        EXPECT_GE(s, p.dynamicSigmaLowMin);
        EXPECT_LE(s, p.dynamicSigmaLowMax);
    }
}

TEST(VariationModel, TemperatureShiftIsTiny)
{
    // Section III-D: +/-20 C has no measurable effect.
    VariationModel model(5);
    const auto cool =
        model.cellDistribution(CellClass::denseL2, 340.0, 0, 40.0);
    const auto hot =
        model.cellDistribution(CellClass::denseL2, 340.0, 0, 80.0);
    EXPECT_LT(std::abs(hot.mean - cool.mean), 1.0);
}

TEST(TailSampler, TailProbability)
{
    VcDistribution dist;
    dist.mean = 500.0;
    dist.sigmaRandom = 50.0;
    dist.sigmaDynamic = 10.0;
    EXPECT_NEAR(tail_sampler::tailProbability(dist, 500.0), 0.5, 1e-9);
    EXPECT_NEAR(tail_sampler::tailProbability(dist, 550.0), 0.158655,
                1e-5);
    EXPECT_GT(tail_sampler::tailProbability(dist, 400.0), 0.97);
}

TEST(TailSampler, CountMatchesExpectation)
{
    VcDistribution dist;
    dist.mean = 500.0;
    dist.sigmaRandom = 50.0;
    dist.sigmaDynamic = 10.0;
    const Millivolt floor = 650.0;  // 3 sigma: q ~ 1.35e-3
    const std::uint64_t n = 1000000;
    const double q = tail_sampler::tailProbability(dist, floor);

    Rng rng(9);
    double total = 0.0;
    const int trials = 20;
    for (int i = 0; i < trials; ++i)
        total += double(tail_sampler::sample(rng, n, dist, floor).size());
    const double expected = q * double(n);
    EXPECT_NEAR(total / trials, expected,
                5.0 * std::sqrt(expected / trials));
}

TEST(TailSampler, AllCellsAboveFloorWithUniquePositions)
{
    VcDistribution dist;
    dist.mean = 300.0;
    dist.sigmaRandom = 55.0;
    dist.sigmaDynamic = 10.0;
    Rng rng(10);
    const auto cells =
        tail_sampler::sample(rng, 4000000, dist, 300.0 + 3.0 * 55.0);
    ASSERT_FALSE(cells.empty());
    for (const auto &cell : cells) {
        EXPECT_GE(cell.vc, 300.0 + 3.0 * 55.0);
        EXPECT_LT(cell.cellIndex, 4000000u);
    }
    // Sorted by ascending cell index, so strictly ascending means the
    // positions are unique.
    for (std::size_t i = 1; i < cells.size(); ++i)
        EXPECT_LT(cells[i - 1].cellIndex, cells[i].cellIndex);
}

TEST(TailSampler, TailShapeIsGaussian)
{
    // Conditional draws should reproduce the ratio of tail masses:
    // P(Vc > floor + sigma | Vc > floor) = q(z+1)/q(z).
    VcDistribution dist;
    dist.mean = 0.0;
    dist.sigmaRandom = 1.0;
    dist.sigmaDynamic = 1.0;
    Rng rng(11);
    const auto cells = tail_sampler::sample(rng, 40000000, dist, 3.0);
    ASSERT_GT(cells.size(), 20u);
    std::size_t above = 0;
    for (const auto &cell : cells)
        above += (cell.vc > 4.0);
    const double expect = tail_sampler::tailProbability(dist, 4.0) /
                          tail_sampler::tailProbability(dist, 3.0);
    EXPECT_NEAR(double(above) / double(cells.size()), expect,
                5.0 * std::sqrt(expect / double(cells.size())) + 0.01);
}

} // namespace
} // namespace vspec
