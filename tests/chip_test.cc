/**
 * @file
 * Tests for the chip multiprocessor model (Fig. 5): domain topology,
 * monitor placement, power aggregation, and determinism.
 */

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "platform/chip.hh"
#include "workload/benchmarks.hh"

namespace vspec
{
namespace
{

TEST(Chip, DefaultTopologyMatchesPaperPlatform)
{
    ChipConfig cfg;
    cfg.seed = 1;
    Chip chip(cfg);
    EXPECT_EQ(chip.numCores(), 8u);
    EXPECT_EQ(chip.numDomains(), 4u);
    for (unsigned d = 0; d < 4; ++d) {
        EXPECT_EQ(chip.domain(d).cores().size(), 2u);
        EXPECT_DOUBLE_EQ(chip.domain(d).regulator().setpoint(), 800.0);
    }
    EXPECT_EQ(chip.domainIndexOf(0), 0u);
    EXPECT_EQ(chip.domainIndexOf(1), 0u);
    EXPECT_EQ(chip.domainIndexOf(7), 3u);
}

TEST(Chip, MonitorForResolvesL2Arrays)
{
    ChipConfig cfg;
    cfg.seed = 2;
    Chip chip(cfg);
    for (unsigned i = 0; i < chip.numCores(); ++i) {
        EXPECT_EQ(&chip.monitorFor(chip.core(i).l2iArray()),
                  &chip.l2iMonitor(i));
        EXPECT_EQ(&chip.monitorFor(chip.core(i).l2dArray()),
                  &chip.l2dMonitor(i));
        EXPECT_FALSE(chip.l2iMonitor(i).active());
        EXPECT_FALSE(chip.l2dMonitor(i).active());
    }
}

TEST(Chip, SameSeedSameWeakCells)
{
    ChipConfig cfg;
    cfg.seed = 33;
    Chip a(cfg), b(cfg);
    for (unsigned i = 0; i < a.numCores(); ++i) {
        const auto la = a.core(i).l2iArray().weakestLine();
        const auto lb = b.core(i).l2iArray().weakestLine();
        EXPECT_EQ(la.set, lb.set);
        EXPECT_EQ(la.way, lb.way);
        EXPECT_EQ(la.weakestVc, lb.weakestVc);
        EXPECT_EQ(a.core(i).logicFloor(), b.core(i).logicFloor());
    }
}

TEST(Chip, DifferentSeedsDifferentWeakCells)
{
    ChipConfig cfg_a, cfg_b;
    cfg_a.seed = 1;
    cfg_b.seed = 2;
    Chip a(cfg_a), b(cfg_b);
    int same = 0;
    for (unsigned i = 0; i < a.numCores(); ++i) {
        same += (a.core(i).l2iArray().weakestLine().weakestVc ==
                 b.core(i).l2iArray().weakestLine().weakestVc);
    }
    EXPECT_LT(same, 2);
}

TEST(Chip, CoreToCoreVariationExists)
{
    // Process variation: the weakest-line Vc differs across cores
    // (Section II-D: addresses of sensitive lines vary core to core).
    ChipConfig cfg;
    cfg.seed = 3;
    Chip chip(cfg);
    std::set<std::pair<std::uint64_t, unsigned>> locations;
    RunningStats vc;
    for (unsigned i = 0; i < chip.numCores(); ++i) {
        const auto line = chip.core(i).l2iArray().weakestLine();
        locations.insert({line.set, line.way});
        vc.add(line.weakestVc);
    }
    EXPECT_GE(locations.size(), 6u);  // Essentially all distinct.
    EXPECT_GT(vc.max() - vc.min(), 20.0);
}

TEST(Chip, PowerAggregation)
{
    // totalPower sums in one documented order: uncore, then cores by
    // id, then mem domains. Cover the default tier, a bch2 chip (whose
    // construction-time check-bit term is non-zero) and a chip with
    // one mem domain.
    ChipConfig base;
    base.seed = 4;
    ChipConfig bch2 = base;
    bch2.eccScheme = EccScheme::bch2;
    ChipConfig mem = base;
    mem.memDomains.push_back(MemDomainConfig::dram());

    std::vector<Watt> core0;
    for (const ChipConfig &cfg : {base, bch2, mem}) {
        Chip chip(cfg);
        for (unsigned i = 0; i < chip.numCores(); ++i) {
            chip.core(i).setWorkload(
                benchmarks::suiteSequence(Suite::coreMark));
        }
        EXPECT_EQ(chip.extraEccCheckMbit() > 0.0,
                  cfg.eccScheme == EccScheme::bch2);
        Watt sum = chip.power().uncorePower();
        for (unsigned i = 0; i < chip.numCores(); ++i) {
            const Watt core = chip.corePower(i, 1.0);
            EXPECT_GT(core, 0.0);
            sum += core;
        }
        for (unsigned m = 0; m < chip.numMemDomains(); ++m) {
            const Watt md = chip.memDomain(m).totalPower(chip.power());
            EXPECT_GT(md, 0.0);
            sum += md;
        }
        EXPECT_EQ(chip.totalPower(1.0), sum);
        core0.push_back(chip.corePower(0, 1.0));
    }
    // The bch2 check cells cost power; a mem domain costs no core any.
    EXPECT_GT(core0[1], core0[0]);
    EXPECT_EQ(core0[2], core0[0]);
}

TEST(Chip, LoweringDomainVoltageLowersPower)
{
    ChipConfig cfg;
    cfg.seed = 5;
    Chip chip(cfg);
    for (unsigned i = 0; i < chip.numCores(); ++i) {
        chip.core(i).setWorkload(
            benchmarks::suiteSequence(Suite::specInt2000));
    }
    const Watt before = chip.totalPower(1.0);
    chip.domain(0).regulator().request(700.0);
    chip.domain(0).regulator().advance(1.0);
    EXPECT_LT(chip.totalPower(1.0), before);
}

TEST(Chip, EffectiveVoltageIncludesDroop)
{
    ChipConfig cfg;
    cfg.seed = 6;
    Chip chip(cfg);
    auto &dom = chip.domain(0);
    ActivityProfile idle;
    dom.setActivity(idle);
    EXPECT_DOUBLE_EQ(dom.effectiveVoltage(chip.pdn()), 800.0);

    ActivityProfile busy;
    busy.meanActivity = 1.0;
    dom.setActivity(busy);
    EXPECT_DOUBLE_EQ(dom.effectiveVoltage(chip.pdn()),
                     800.0 - chip.pdn().params().irDroopMv);
}

TEST(Chip, RejectsBadTopology)
{
    ChipConfig cfg;
    cfg.numCores = 7;
    cfg.coresPerDomain = 2;
    EXPECT_EXIT({ Chip bad(cfg); }, ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace vspec
