/**
 * @file
 * Tests for the firmware self-test framework (Section IV-A / Fig. 8).
 */

#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/ecc_monitor.hh"
#include "core/firmware_monitor.hh"
#include "core/voltage_controller.hh"
#include "platform/chip.hh"
#include "snapshot/state_io.hh"

namespace vspec
{
namespace
{

class FirmwareMonitorTest : public ::testing::Test
{
  protected:
    FirmwareMonitorTest() : cfg{}, chip((cfg.seed = 42, cfg))
    {
        line = chip.core(0).l2iArray().weakestLine();
    }

    ChipConfig cfg;
    Chip chip;
    WeakLineInfo line;
};

TEST_F(FirmwareMonitorTest, TestBudgetFollowsRate)
{
    FirmwareSelfTest::Config config;
    config.testsPerSecond = 100.0;
    FirmwareSelfTest self_test(chip.core(0).iSide(), line.set, line.way,
                               config);
    Rng rng(1);
    const ProbeStats stats = self_test.runTests(0.5, 800.0, rng);
    EXPECT_EQ(stats.accesses, 50u);
    EXPECT_EQ(stats.correctableEvents, 0u);  // Safe voltage.
}

TEST_F(FirmwareMonitorTest, SeesErrorsNearWeakLineVoltage)
{
    FirmwareSelfTest self_test(chip.core(0).iSide(), line.set,
                               line.way);
    Rng rng(2);
    self_test.runTests(1.0, line.weakestVc, rng);
    // Probing at Vc: roughly half the designated-way reads err.
    EXPECT_GT(self_test.errorRate(), 0.2);
    EXPECT_LE(self_test.errorRate(), 1.5);
}

TEST_F(FirmwareMonitorTest, CountersResetLikeHardware)
{
    FirmwareSelfTest self_test(chip.core(0).iSide(), line.set,
                               line.way);
    Rng rng(3);
    self_test.runTests(0.2, line.weakestVc + 5.0, rng);
    EXPECT_GT(self_test.accessCount(), 0u);
    const ProbeStats read = self_test.readAndResetCounters();
    EXPECT_GT(read.accesses, 0u);
    EXPECT_EQ(self_test.accessCount(), 0u);
    EXPECT_EQ(self_test.errorRate(), 0.0);
}

TEST_F(FirmwareMonitorTest, EmergencyFiresWhenSaturated)
{
    FirmwareSelfTest self_test(chip.core(0).iSide(), line.set,
                               line.way);
    Rng rng(4);
    self_test.runTests(0.5, line.weakestVc - 30.0, rng);
    EXPECT_TRUE(self_test.emergencyPending());
    self_test.readAndResetCounters();
    EXPECT_FALSE(self_test.emergencyPending());
}

TEST_F(FirmwareMonitorTest, DrivesTheControllerLikeAMonitor)
{
    // The controller regulates off the firmware source and settles
    // near the designated line's Vc, like with the hardware monitor.
    VoltageRegulator reg(800.0);
    FirmwareSelfTest self_test(chip.core(0).iSide(), line.set,
                               line.way);
    ControlPolicy policy;
    policy.maxVdd = 800.0;
    DomainController controller(reg, self_test, policy);

    Rng rng(5);
    for (int t = 0; t < 4000; ++t) {
        self_test.runTests(0.01, reg.output(), rng);
        controller.tick(0.01);
        reg.advance(0.01);
    }
    EXPECT_LT(reg.setpoint(), 800.0 - 50.0);
    EXPECT_GT(reg.setpoint(), line.weakestVc - 15.0);
    EXPECT_LT(reg.setpoint(), line.weakestVc + 60.0);
    EXPECT_FALSE(self_test.sawUncorrectable());
}

TEST_F(FirmwareMonitorTest, UncorrectableLatchClearsOnRead)
{
    FirmwareSelfTest self_test(chip.core(0).iSide(), line.set,
                               line.way);
    Rng rng(6);
    // Make the target set resident so the corruption below is not
    // overwritten by the populate step of the next test iteration.
    self_test.runTests(0.01, 800.0, rng);
    self_test.readAndResetCounters();

    // Corrupt two bits of one codeword of the designated line: the
    // next targeted-test read is a guaranteed uncorrectable report.
    CacheArray &array = chip.core(0).l2iArray();
    array.flipStoredBit(line.set, line.way, 0);
    array.flipStoredBit(line.set, line.way, 1);
    self_test.runTests(0.01, 800.0, rng);
    EXPECT_TRUE(self_test.sawUncorrectable());

    const ProbeStats first = self_test.readAndResetCounters();
    EXPECT_GE(first.uncorrectableEvents, 1u);
    EXPECT_FALSE(self_test.sawUncorrectable());

    // Repair the line; the next interval must not re-report the old
    // machine check (the latch bug made every later read report it).
    array.flipStoredBit(line.set, line.way, 0);
    array.flipStoredBit(line.set, line.way, 1);
    self_test.runTests(0.01, 800.0, rng);
    const ProbeStats second = self_test.readAndResetCounters();
    EXPECT_GT(second.accesses, 0u);
    EXPECT_EQ(second.uncorrectableEvents, 0u);
    EXPECT_FALSE(self_test.sawUncorrectable());
}

/**
 * With L2 set 0 under test the Fig. 7 addresses also fall in L1 set 0,
 * so L1 events at ways 0-3 carry the designated line's (set, way). On
 * a hierarchy whose L1 alone is weak, the L1 errs there but none of
 * it may count against the designated L2 line.
 */
TEST_F(FirmwareMonitorTest, CountsOnlyTheDesignatedL2LinesEvents)
{
    VcDistribution weak;
    weak.mean = 300.0;
    weak.sigmaRandom = 55.0;
    weak.sigmaDynamic = 10.0;
    VcDistribution strong;
    strong.mean = 100.0;
    strong.sigmaRandom = 5.0;
    strong.sigmaDynamic = 5.0;
    Rng build(7);
    CacheHierarchy side(std::make_unique<Cache>(itanium9560::l1Data(),
                                                weak, 300.0, build),
                        std::make_unique<Cache>(itanium9560::l2Data(),
                                                strong, 150.0, build));
    const std::uint64_t l2_set = 0;
    const unsigned way = 1;
    // Just below the critical voltage of the L1 line's weakest cell.
    Millivolt v = 0.0;
    for (const WeakCell &cell : side.l1().dataArray().lineWeakSpan(0, way))
        v = std::max(v, cell.vc - 5.0);

    // The L1 does report events at the designated (set, way).
    TargetedLineTest probe(side, l2_set);
    Rng probe_rng(8);
    std::uint64_t l1_hits_on_target = 0;
    for (const EccEvent &event : probe.run(50, v, probe_rng).events) {
        EXPECT_EQ(event.cacheName, side.l1().geometry().name);
        l1_hits_on_target += event.set == l2_set && event.way == way;
    }
    ASSERT_GT(l1_hits_on_target, 0u);

    FirmwareSelfTest::Config config;
    config.testsPerSecond = 100.0;
    FirmwareSelfTest self_test(side, l2_set, way, config);
    Rng rng(9);
    const ProbeStats stats = self_test.runTests(0.5, v, rng);
    EXPECT_EQ(stats.accesses, 50u);
    EXPECT_EQ(stats.correctableEvents, 0u);
    EXPECT_EQ(stats.uncorrectableEvents, 0u);
}

/**
 * The self-test end to end across calls whose voltage moves: a 500 ->
 * 495 -> 500 mV schedule, an aging shift of the designated array, then
 * 500 mV again. Each call's ProbeStats and the test carry left after
 * the schedule are pinned, so the reads' probability memo is pinned
 * across voltage and generation changes.
 */
TEST_F(FirmwareMonitorTest, VoltageScheduleIsPinned)
{
    FirmwareSelfTest self_test(chip.core(0).iSide(), line.set, line.way);
    Rng rng(10);
    std::vector<ProbeStats> calls;
    for (Millivolt v : {500.0, 495.0, 500.0})
        calls.push_back(self_test.runTests(0.0123, v, rng));
    Rng age(11);
    chip.core(0).l2iArray().sram().applyAgingShift(3.0, 1.0, age);
    calls.push_back(self_test.runTests(0.0123, 500.0, rng));

    struct Pin
    {
        std::uint64_t accesses, correctable, uncorrectable;
    };
    const Pin pins[] = {{24, 165, 76}, {25, 186, 86}, {24, 152, 80},
                        {25, 175, 91}};
    ASSERT_EQ(calls.size(), std::size(pins));
    for (std::size_t i = 0; i < calls.size(); ++i) {
        EXPECT_EQ(calls[i].accesses, pins[i].accesses) << "call " << i;
        EXPECT_EQ(calls[i].correctableEvents, pins[i].correctable)
            << "call " << i;
        EXPECT_EQ(calls[i].uncorrectableEvents, pins[i].uncorrectable)
            << "call " << i;
    }
    EXPECT_EQ(rng.next(), 4972314291987580463ULL);

    // The carry is the last field of the saved state.
    StateWriter w;
    w.beginSection("self-test");
    self_test.saveState(w);
    w.endSection();
    StateReader r(w.finish());
    r.beginSection("self-test");
    EXPECT_EQ(r.getU64(), 24u + 25 + 24 + 25);  // Accesses.
    r.getU64();                                  // Errors.
    EXPECT_TRUE(r.getBool());                    // Uncorrectable latch.
    EXPECT_EQ(r.getU64(), line.set);
    EXPECT_EQ(r.getU64(), line.way);
    EXPECT_EQ(r.getDouble(), 0x1.9999999999ap-2);  // 98.4 tests, 0.4 left.
}

TEST_F(FirmwareMonitorTest, RejectsZeroTestRate)
{
    FirmwareSelfTest::Config config;
    config.testsPerSecond = 0.0;
    EXPECT_EXIT(
        {
            FirmwareSelfTest bad(chip.core(0).iSide(), line.set,
                                 line.way, config);
        },
        ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace vspec
