/**
 * @file
 * Tests for the core model: Table I structures, workload-driven ECC
 * traffic, and the crash conditions.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "cpu/core_model.hh"
#include "sram/aging.hh"
#include "workload/benchmarks.hh"

namespace vspec
{
namespace
{

class CoreModelTest : public ::testing::Test
{
  protected:
    CoreModelTest() : variation(42), rng(1)
    {
        Core::Config cfg;
        cfg.coreId = 0;
        cfg.operatingPoint = OperatingPoint::low();
        core = std::make_unique<Core>(cfg, variation, rng);
    }

    /** One exact tick at time t, sampling the workload as the
     *  Simulator's phase 1 does. */
    CoreTickResult tickAt(Seconds t, Seconds dt, Millivolt v_eff,
                          Rng &draw, EccEventLog *log = nullptr)
    {
        return core->tick(core->workloadSampleAt(t), t, dt, v_eff, draw,
                          log);
    }

    VariationModel variation;
    Rng rng;
    std::unique_ptr<Core> core;
};

TEST_F(CoreModelTest, Table1Structures)
{
    EXPECT_EQ(core->iSide().l1().geometry().sizeBytes, 16u * 1024);
    EXPECT_EQ(core->iSide().l2().geometry().sizeBytes, 512u * 1024);
    EXPECT_EQ(core->dSide().l1().geometry().sizeBytes, 16u * 1024);
    EXPECT_EQ(core->dSide().l2().geometry().sizeBytes, 256u * 1024);
    // Register file ~2.63 KB of (39,32) SECDED words.
    EXPECT_EQ(core->rfArray().geometry().eccDataBits, 32u);
    EXPECT_NEAR(double(core->rfArray().geometry().sizeBytes), 2692.0,
                4.0);
    EXPECT_EQ(core->rfArray().geometry().cellClass,
              CellClass::registerFile);
}

TEST_F(CoreModelTest, OperatingPoints)
{
    const auto high = OperatingPoint::high();
    EXPECT_DOUBLE_EQ(high.frequency, 2530.0);
    EXPECT_DOUBLE_EQ(high.nominalVdd, 1100.0);
    const auto low = OperatingPoint::low();
    EXPECT_DOUBLE_EQ(low.frequency, 340.0);
    EXPECT_DOUBLE_EQ(low.nominalVdd, 800.0);
}

TEST_F(CoreModelTest, IdleWithoutWorkload)
{
    EXPECT_FALSE(core->hasWorkload());
    const WorkloadSample sample = core->workloadSampleAt(1.0);
    EXPECT_LT(sample.activity.meanActivity, 0.1);
    EXPECT_EQ(sample.l2dAccessesPerSec, 0.0);
}

TEST_F(CoreModelTest, NoEventsAtNominalVoltage)
{
    core->setWorkload(benchmarks::suiteSequence(Suite::specFp2000));
    Rng draw(2);
    std::uint64_t events = 0;
    for (int i = 0; i < 1000; ++i) {
        const auto result = tickAt(i * 0.01, 0.01, 800.0, draw);
        events += result.correctableEvents;
        EXPECT_EQ(result.crash, CrashReason::none);
    }
    EXPECT_EQ(events, 0u);
    EXPECT_FALSE(core->crashed());
}

TEST_F(CoreModelTest, ErrorsAppearNearWeakLineVoltage)
{
    core->setWorkload(
        benchmarks::suiteSequence(Suite::stress, 10.0));
    const Millivolt weakest =
        std::max(core->l2iArray().weakestLine().weakestVc,
                 core->l2dArray().weakestLine().weakestVc);

    Rng draw(3);
    std::uint64_t events = 0;
    // 100 simulated seconds at the weak line's Vc: the stress workload
    // must hit it.
    for (int i = 0; i < 10000 && !core->crashed(); ++i) {
        events += tickAt(i * 0.01, 0.01, weakest, draw).correctableEvents;
    }
    EXPECT_GT(events, 0u);
}

TEST_F(CoreModelTest, LogicFloorCrash)
{
    core->setWorkload(std::make_shared<IdleWorkload>());
    Rng draw(4);
    const auto result = tickAt(0.0, 0.01, core->logicFloor() - 1.0, draw);
    EXPECT_EQ(result.crash, CrashReason::logicFailure);
    EXPECT_TRUE(core->crashed());
    EXPECT_EQ(core->crashReason_(), CrashReason::logicFailure);

    // Crash latches: further ticks report nothing new.
    const auto again = tickAt(0.01, 0.01, 800.0, draw);
    EXPECT_EQ(again.correctableEvents, 0u);
    EXPECT_TRUE(core->crashed());

    core->clearCrash();
    EXPECT_FALSE(core->crashed());
}

TEST_F(CoreModelTest, DeconfiguredLineProducesNoTrafficErrors)
{
    core->setWorkload(
        benchmarks::suiteSequence(Suite::stress, 10.0));
    // Deconfigure every weak line of both L2 arrays and the RF: then
    // even probing voltages yield no *workload* events from them.
    for (CacheArray *array :
         {&core->l2iArray(), &core->l2dArray(), &core->rfArray()}) {
        for (const auto &line : array->weakLines())
            array->deconfigureLine(line.set, line.way);
    }
    Rng draw(5);
    const Millivolt weakest = core->l2iArray().weakestLine().weakestVc;
    std::uint64_t events = 0;
    for (int i = 0; i < 2000; ++i)
        events += tickAt(i * 0.01, 0.01, weakest, draw).correctableEvents;
    EXPECT_EQ(events, 0u);
}

TEST_F(CoreModelTest, EventLogRecordsSetAndWay)
{
    core->setWorkload(
        benchmarks::suiteSequence(Suite::stress, 10.0));
    EccEventLog log;
    Rng draw(6);
    const Millivolt v = core->l2iArray().weakestLine().weakestVc - 5.0;
    for (int i = 0; i < 4000 && !core->crashed(); ++i)
        tickAt(i * 0.01, 0.01, v, draw, &log);
    ASSERT_GT(log.correctableCount(), 0u);
    EXPECT_FALSE(log.perLineCorrectable().empty());
}

TEST_F(CoreModelTest, WeakLinesOfMapsArrays)
{
    EXPECT_EQ(&core->weakLinesOf(core->l2iArray()),
              &core->weakLinesOf(core->l2iArray()));
    EXPECT_NE(&core->weakLinesOf(core->l2iArray()),
              &core->weakLinesOf(core->l2dArray()));
    EXPECT_EQ(core->weakLinesOf(core->l2iArray()).size(),
              core->l2iArray().weakLines().size());
}

TEST_F(CoreModelTest, AgingWithoutRefreshTicksLikeARefreshedTwin)
{
    // Aging reorders the weakest-first lists under the core. The exact
    // tick and the chip-batched rate memo must notice on their own: a
    // core whose L2D aged without refreshWeakLines() ticks exactly like
    // a twin that called it, draw for draw.
    Rng twin_build(1);
    Core twin(core->config(), variation, twin_build);
    core->setWorkload(benchmarks::suiteSequence(Suite::stress, 10.0));
    twin.setWorkload(benchmarks::suiteSequence(Suite::stress, 10.0));
    const Millivolt top = core->l2dArray().weakestLine().weakestVc;

    Rng draw_a(3), draw_b(3);
    EccEventLog log_a, log_b;
    const auto tick_both = [&](int i) {
        const Seconds t = 0.01 * i;
        const Millivolt v = top + 10.0 - 0.25 * (i % 160);
        double corr_a = 0.0, uncorr_a = 0.0, corr_b = 0.0, uncorr_b = 0.0;
        core->tickRates(core->workloadSampleAt(t), 0.01, v, corr_a,
                        uncorr_a);
        twin.tickRates(twin.workloadSampleAt(t), 0.01, v, corr_b,
                       uncorr_b);
        EXPECT_EQ(corr_a, corr_b) << i;
        EXPECT_EQ(uncorr_a, uncorr_b) << i;
        const CoreTickResult a = tickAt(t, 0.01, v, draw_a, &log_a);
        const CoreTickResult b =
            twin.tick(twin.workloadSampleAt(t), t, 0.01, v, draw_b, &log_b);
        EXPECT_EQ(a.correctableEvents, b.correctableEvents) << i;
        EXPECT_EQ(a.crash, b.crash) << i;
        core->clearCrash();
        twin.clearCrash();
    };
    // Fill every per-line memo at the fresh population first.
    for (int i = 0; i < 160; ++i)
        tick_both(i);

    AgingModel::Params params;
    params.ratePerDecade = 15.0;
    params.randomFraction = 2.0;
    const AgingModel aging(params);
    Rng age_a(7), age_b(7);
    aging.advance(core->l2dArray().sram(), 0.0, 3e8, age_a);
    aging.advance(twin.l2dArray().sram(), 0.0, 3e8, age_b);
    twin.refreshWeakLines();

    for (int i = 160; i < 480; ++i)
        tick_both(i);
    EXPECT_GT(log_a.correctableCount(), 0u);
    EXPECT_EQ(log_a.perLineCorrectable(), log_b.perLineCorrectable());
    EXPECT_EQ(log_a.uncorrectableCount(), log_b.uncorrectableCount());
    EXPECT_EQ(draw_a.next(), draw_b.next());
    EXPECT_EQ(core->weakLinesOf(core->l2dArray()).front().weakestVc,
              twin.weakLinesOf(twin.l2dArray()).front().weakestVc);
}

TEST_F(CoreModelTest, HighRegimeRegisterFileCanErr)
{
    // Section II-C: at nominal Vdd a mix of cache and register file
    // errors appears — the RF's weakest cells must sit inside the
    // high-regime speculation window.
    Core::Config cfg;
    cfg.coreId = 0;
    cfg.operatingPoint = OperatingPoint::high();
    Rng build(7);
    Core high_core(cfg, variation, build);

    const Millivolt rf_weak = high_core.rfArray().weakestLine().weakestVc;
    const Millivolt l2_weak =
        std::max(high_core.l2iArray().weakestLine().weakestVc,
                 high_core.l2dArray().weakestLine().weakestVc);
    // Comparable magnitudes: within ~40 mV of each other.
    EXPECT_NEAR(rf_weak, l2_weak, 40.0);
}

TEST_F(CoreModelTest, LowRegimeOnlyL2Errs)
{
    // Section II-C: at low Vdd only the L2 caches err; the register
    // file and L1s are far below the operating window.
    const Millivolt rf_weak = core->rfArray().weakestLine().weakestVc;
    const Millivolt l2_weak =
        std::max(core->l2iArray().weakestLine().weakestVc,
                 core->l2dArray().weakestLine().weakestVc);
    EXPECT_LT(rf_weak, l2_weak - 30.0);
    EXPECT_LT(core->iSide().l1().dataArray().sram().weakestVc(),
              l2_weak - 80.0);
}

} // namespace
} // namespace vspec
