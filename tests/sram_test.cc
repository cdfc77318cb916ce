/**
 * @file
 * Tests for the statistical SRAM array and the aging model.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "reference_flips.hh"
#include "sram/aging.hh"
#include "sram/sram_array.hh"

namespace vspec
{
namespace
{

VcDistribution
testDist(Millivolt mean = 300.0, Millivolt sigma = 55.0,
         Millivolt sdyn = 10.0)
{
    VcDistribution d;
    d.mean = mean;
    d.sigmaRandom = sigma;
    d.sigmaDynamic = sdyn;
    return d;
}

SramArray
makeArray(Rng &rng, std::uint64_t cells = 1u << 20)
{
    return SramArray("test", cells, testDist(),
                     /*v_floor=*/300.0 + 3.0 * 55.0,
                     /*aging_headroom=*/10.0, rng);
}

TEST(SramArray, WeakCellsSortedByIndex)
{
    Rng rng(1);
    const SramArray array = makeArray(rng);
    const auto &cells = array.weakCells();
    ASSERT_FALSE(cells.empty());
    for (std::size_t i = 1; i < cells.size(); ++i)
        EXPECT_GT(cells[i].cellIndex, cells[i - 1].cellIndex);
}

TEST(SramArray, RangeQueriesPartitionTheArray)
{
    Rng rng(2);
    const SramArray array = makeArray(rng);
    const std::uint64_t n = array.numCells();
    const auto all = array.weakCellsInRange(0, n);
    EXPECT_EQ(all.size(), array.weakCells().size());

    std::size_t split_total = 0;
    const std::uint64_t chunk = n / 7;
    for (std::uint64_t lo = 0; lo < n; lo += chunk) {
        split_total +=
            array.weakCellsInRange(lo, std::min(lo + chunk, n)).size();
    }
    EXPECT_EQ(split_total, all.size());
}

TEST(SramArray, WeakestVcConsistency)
{
    Rng rng(3);
    const SramArray array = makeArray(rng);
    Millivolt expect = -1e300;
    for (const auto &cell : array.weakCells())
        expect = std::max(expect, cell.vc);
    EXPECT_EQ(array.weakestVc(), expect);
    EXPECT_EQ(array.weakestVcInRange(0, array.numCells()), expect);
}

/** Failure probability is monotone non-increasing in supply voltage. */
class SramFailureMonotone : public ::testing::TestWithParam<double>
{
};

TEST_P(SramFailureMonotone, Monotone)
{
    Rng rng(4);
    const SramArray array = makeArray(rng);
    WeakCell cell;
    cell.vc = 500.0 + GetParam();

    double prev = 1.1;
    for (Millivolt v = cell.vc - 60.0; v <= cell.vc + 60.0; v += 2.0) {
        const double p = array.failureProbability(cell, v);
        EXPECT_LE(p, prev);
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
        prev = p;
    }
    // Far below Vc: certain failure. Far above: certain success.
    EXPECT_GT(array.failureProbability(cell, cell.vc - 100.0), 0.999);
    EXPECT_LT(array.failureProbability(cell, cell.vc + 100.0), 1e-6);
    EXPECT_NEAR(array.failureProbability(cell, cell.vc), 0.5, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Offsets, SramFailureMonotone,
                         ::testing::Values(0.0, 25.0, 50.0, 120.0));

TEST(SramArray, SampleAccessFlipsMatchesProbability)
{
    Rng rng(5);
    const SramArray array = makeArray(rng);
    ASSERT_FALSE(array.weakCells().empty());
    const WeakCell weakest = array.weakCells().front();

    // Probe right at Vc: expect ~50% flip rate for that cell.
    const std::uint64_t lo = weakest.cellIndex;
    std::uint64_t flips = 0;
    const int trials = 4000;
    Rng draw(6);
    for (int i = 0; i < trials; ++i) {
        flips += referenceFlips(array, array.weakCellSpan(lo, lo + 1), lo,
                                weakest.vc, draw)
                     .size();
    }
    EXPECT_NEAR(double(flips) / trials, 0.5, 0.05);
}

TEST(SramArray, NoFlipsAtGenerousVoltage)
{
    Rng rng(7);
    const SramArray array = makeArray(rng);
    Rng draw(8);
    const Millivolt v = array.weakestVc() + 150.0;
    for (int i = 0; i < 200; ++i) {
        EXPECT_TRUE(referenceFlips(array,
                                   array.weakCellSpan(0, array.numCells()),
                                   0, v, draw)
                        .empty());
    }
}

TEST(SramArray, AgingShiftOnlyDegrades)
{
    Rng rng(9);
    SramArray array = makeArray(rng);
    const auto before = array.weakCells();
    Rng age_rng(10);
    array.applyAgingShift(5.0, 2.0, age_rng);
    const auto &after = array.weakCells();
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(before[i].cellIndex, after[i].cellIndex);
        EXPECT_GE(after[i].vc, before[i].vc);
    }
}

TEST(AgingModel, TotalShiftLogarithmic)
{
    AgingModel model;
    EXPECT_EQ(model.totalShift(0.0), 0.0);
    const Seconds month = 30.0 * 24.0 * 3600.0;
    const Millivolt ten = model.totalShift(10.0 * month);
    const Millivolt hundred = model.totalShift(100.0 * month);
    const Millivolt thousand = model.totalShift(1000.0 * month);
    EXPECT_GT(ten, 0.0);
    // Roughly one rate-per-decade step per decade of stress time
    // (asymptotically; the +1 in the log law fades out).
    EXPECT_NEAR(hundred - ten, thousand - hundred,
                0.2 * model.params().ratePerDecade);
}

TEST(AgingModel, AdvanceShiftsCells)
{
    Rng rng(11);
    SramArray array = makeArray(rng);
    const Millivolt before = array.weakestVc();

    AgingModel::Params params;
    params.ratePerDecade = 10.0;
    params.tau = 100.0;
    const AgingModel model(params);
    Rng age_rng(12);
    model.advance(array, 0.0, 1e6, age_rng);
    EXPECT_GT(array.weakestVc(), before);
}

TEST(AgingModel, AdvanceIsIncremental)
{
    // advance(0 -> t1) then (t1 -> t2) shifts by the same mean as
    // advance(0 -> t2) in one go (up to randomness).
    AgingModel model;
    const Seconds t1 = 1e6, t2 = 5e6;
    EXPECT_NEAR(model.totalShift(t2) - model.totalShift(t1) +
                    model.totalShift(t1),
                model.totalShift(t2), 1e-12);
}

TEST(SramArray, RejectsZeroCells)
{
    Rng rng(13);
    EXPECT_EXIT(
        {
            SramArray bad("bad", 0, testDist(), 400.0, 10.0, rng);
        },
        ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace vspec
