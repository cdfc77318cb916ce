/**
 * @file
 * Tests for the boot-time calibration procedure (Section III-C).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/calibrator.hh"
#include "variation/process_variation.hh"

namespace vspec
{
namespace
{

class CalibratorTest : public ::testing::Test
{
  protected:
    CalibratorTest() : variation(42), rng(7)
    {
        Core::Config cfg;
        cfg.coreId = 0;
        cfg.operatingPoint = OperatingPoint::low();
        core0 = std::make_unique<Core>(cfg, variation, rng);
        cfg.coreId = 1;
        core1 = std::make_unique<Core>(cfg, variation, rng);
    }

    VariationModel variation;
    Rng rng;
    std::unique_ptr<Core> core0;
    std::unique_ptr<Core> core1;
};

TEST_F(CalibratorTest, FindsDomainWeakestLine)
{
    Calibrator calibrator;
    Rng sweep_rng(8);
    const auto target = calibrator.calibrateDomain(
        {core0.get(), core1.get()}, 800.0, sweep_rng);
    ASSERT_TRUE(target.has_value());

    // The designated line must be the weakest line of the weakest L2
    // array in the domain.
    Millivolt domain_weakest = 0.0;
    for (Core *core : {core0.get(), core1.get()}) {
        domain_weakest = std::max(
            {domain_weakest, core->l2iArray().weakestLine().weakestVc,
             core->l2dArray().weakestLine().weakestVc});
    }
    const auto designated =
        target->array->lineWeakSpan(target->set, target->way);
    ASSERT_FALSE(designated.empty());
    Millivolt designated_vc = 0.0;
    for (const auto &cell : designated)
        designated_vc = std::max(designated_vc, cell.vc);
    EXPECT_DOUBLE_EQ(designated_vc, domain_weakest);
}

TEST_F(CalibratorTest, FirstErrorVddAboveWeakestVc)
{
    // Detection happens a few dynamic sigmas above the cell's Vc.
    Calibrator calibrator;
    Rng sweep_rng(9);
    const auto target = calibrator.calibrateDomain(
        {core0.get()}, 800.0, sweep_rng);
    ASSERT_TRUE(target.has_value());

    const auto cells =
        target->array->lineWeakSpan(target->set, target->way);
    Millivolt vc = 0.0;
    for (const auto &cell : cells)
        vc = std::max(vc, cell.vc);
    EXPECT_GT(target->firstErrorVdd, vc);
    EXPECT_LT(target->firstErrorVdd, vc + 80.0);
    // And inside the paper's error-free-range story: more than 100 mV
    // below the 800 mV nominal never errs.
    EXPECT_LT(target->firstErrorVdd, 800.0 - 99.0);
}

TEST_F(CalibratorTest, TargetsComeFromL2Arrays)
{
    Calibrator calibrator;
    Rng sweep_rng(10);
    const auto target = calibrator.calibrateDomain(
        {core0.get(), core1.get()}, 800.0, sweep_rng);
    ASSERT_TRUE(target.has_value());
    EXPECT_TRUE(target->cacheName == "L2I" || target->cacheName == "L2D");
    EXPECT_TRUE(target->array == &core0->l2iArray() ||
                target->array == &core0->l2dArray() ||
                target->array == &core1->l2iArray() ||
                target->array == &core1->l2dArray());
}

TEST_F(CalibratorTest, GivesUpWithinDepthBound)
{
    Calibrator::Config cfg;
    cfg.maxDepthMv = 20.0;  // Far too shallow to find anything.
    Calibrator calibrator(cfg);
    Rng sweep_rng(11);
    const auto target = calibrator.calibrateDomain(
        {core0.get()}, 800.0, sweep_rng);
    EXPECT_FALSE(target.has_value());
}

TEST_F(CalibratorTest, DeterministicAcrossRuns)
{
    Calibrator calibrator;
    Rng rng_a(12), rng_b(12);
    const auto a =
        calibrator.calibrateDomain({core0.get()}, 800.0, rng_a);
    const auto b =
        calibrator.calibrateDomain({core0.get()}, 800.0, rng_b);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->set, b->set);
    EXPECT_EQ(a->way, b->way);
    EXPECT_EQ(a->cacheName, b->cacheName);
    EXPECT_EQ(a->firstErrorVdd, b->firstErrorVdd);
}

} // namespace
} // namespace vspec
