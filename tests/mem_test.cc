/**
 * @file
 * Tests for the off-chip memory domains: the DRAM/HBM array models
 * (weak-cell tail, voltage cliff, pattern/retention/temperature
 * coupling, latency stretch, real block-codec line path), the
 * MemDomain control-loop integration (independent recoveries, earned
 * floors), mixed-domain snapshot round-trips, the per-category energy
 * accounting and the heterogeneous-memory fleet wiring.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "fleet/fleet.hh"
#include "mem/mem_array.hh"
#include "mem/mem_domain.hh"
#include "platform/chip.hh"
#include "platform/experiment_pool.hh"
#include "platform/harness.hh"
#include "platform/simulator.hh"
#include "power/energy.hh"
#include "snapshot/state_io.hh"

namespace vspec
{
namespace
{

MemArrayParams
smallDramParams()
{
    MemArrayParams p = dramArrayDefaults();
    p.numBanks = 2;
    p.linesPerBank = 512;
    return p;
}

std::unique_ptr<MemArray>
buildArray(MemKind kind, const MemArrayParams &params,
           std::uint64_t seed)
{
    Rng rng(seed);
    return makeMemArray(kind, params, rng);
}

// ---------------------------------------------------------------------
// MemArray: population, codec path, physics couplings.

TEST(MemArray, ConstructionIsDeterministic)
{
    const auto a = buildArray(MemKind::dram, smallDramParams(), 7);
    const auto b = buildArray(MemKind::dram, smallDramParams(), 7);
    const auto c = buildArray(MemKind::dram, smallDramParams(), 8);

    ASSERT_EQ(a->numBanks(), 2u);
    std::size_t total = 0;
    for (unsigned bank = 0; bank < a->numBanks(); ++bank) {
        const auto &la = a->weakLines(bank);
        const auto &lb = b->weakLines(bank);
        ASSERT_EQ(la.size(), lb.size());
        for (std::size_t i = 0; i < la.size(); ++i) {
            EXPECT_EQ(la[i].line, lb[i].line);
            ASSERT_EQ(la[i].bits.size(), lb[i].bits.size());
            for (std::size_t j = 0; j < la[i].bits.size(); ++j) {
                EXPECT_EQ(la[i].bits[j].bitOffset,
                          lb[i].bits[j].bitOffset);
                EXPECT_EQ(la[i].bits[j].vc, lb[i].bits[j].vc);
                EXPECT_EQ(la[i].bits[j].antiCell,
                          lb[i].bits[j].antiCell);
            }
            total += la[i].bits.size();
        }
    }
    EXPECT_GT(total, 0u) << "no weak cells materialized";

    // A different seed draws a different tail.
    bool differs = false;
    for (unsigned bank = 0; bank < a->numBanks() && !differs; ++bank) {
        const auto &la = a->weakLines(bank);
        const auto &lc = c->weakLines(bank);
        if (la.size() != lc.size()) {
            differs = true;
            break;
        }
        for (std::size_t i = 0; i < la.size(); ++i) {
            if (la[i].line != lc[i].line ||
                la[i].bits.size() != lc[i].bits.size()) {
                differs = true;
                break;
            }
        }
    }
    EXPECT_TRUE(differs);
}

TEST(MemArray, BlockCodecLineRoundTrips)
{
    auto array = buildArray(MemKind::dram, smallDramParams(), 7);
    std::vector<std::uint64_t> data(64);
    for (unsigned i = 0; i < 64; ++i)
        data[i] = 0x0123456789ABCDEFULL * (i + 1);

    array->writeLine(0, 3, data);
    EXPECT_TRUE(array->lineResident(0, 3));
    EXPECT_FALSE(array->lineResident(0, 4));

    Rng rng(1);
    const auto read =
        array->readLine(0, 3, array->params().nominalMv, 0, rng);
    EXPECT_EQ(read.status, EccStatus::ok);
    EXPECT_EQ(read.data, data);
}

TEST(MemArray, CorrectsUpToEightFlipsFlagsNine)
{
    auto array = buildArray(MemKind::dram, smallDramParams(), 7);
    const std::vector<std::uint64_t> data(64, 0xA5A5A5A5A5A5A5A5ULL);
    Rng rng(1);

    // Every burst 1..8 decodes with the exact corrected count.
    for (unsigned flips = 1; flips <= 8; ++flips) {
        array->writeLine(1, 10, data);
        for (unsigned f = 0; f < flips; ++f)
            array->flipStoredBit(1, 10, 97 + 411 * f);
        const auto read =
            array->readLine(1, 10, array->params().nominalMv, 0, rng);
        EXPECT_EQ(read.status, EccStatus::correctedSingle)
            << flips << " flips";
        EXPECT_EQ(read.correctedCount, flips);
        EXPECT_EQ(read.data, data);
    }

    // Nine flips exceed t = 8: flagged, not miscorrected.
    array->writeLine(1, 10, data);
    for (unsigned f = 0; f < 9; ++f)
        array->flipStoredBit(1, 10, 97 + 411 * f);
    const auto read =
        array->readLine(1, 10, array->params().nominalMv, 0, rng);
    EXPECT_EQ(read.status, EccStatus::uncorrectable);
}

TEST(MemArray, LatencyStretchesBelowKneeAndChargesDecode)
{
    const auto array = buildArray(MemKind::dram, smallDramParams(), 7);
    const MemArrayParams &p = array->params();

    // At and above the knee: base access plus decode only.
    EXPECT_DOUBLE_EQ(array->latencyStretch(p.latencyKneeMv), 0.0);
    EXPECT_DOUBLE_EQ(array->accessLatencyNs(p.nominalMv),
                     p.baseAccessNs + array->decodeLatencyNs());
    EXPECT_GT(array->decodeLatencyNs(), 0.0);

    // Monotone non-decreasing as the rail drops, clamped at maxStretch.
    double prev = array->accessLatencyNs(p.nominalMv);
    for (Millivolt v = p.nominalMv - 10.0; v >= 600.0; v -= 10.0) {
        const double lat = array->accessLatencyNs(v);
        EXPECT_GE(lat, prev);
        prev = lat;
    }
    EXPECT_LE(array->latencyStretch(0.0), p.maxStretch);
}

TEST(MemArray, HbmCliffIsHigherAndSteeper)
{
    const MemArrayParams dram_p = dramArrayDefaults();
    const MemArrayParams hbm_p = hbmArrayDefaults();
    ASSERT_GT(hbm_p.cliffMv, dram_p.cliffMv);
    ASSERT_LT(hbm_p.cliffSharpnessMv, dram_p.cliffSharpnessMv);

    const auto dram = buildArray(MemKind::dram, dram_p, 7);
    const auto hbm = buildArray(MemKind::hbm, hbm_p, 7);

    // Above its cliff the probability is exactly zero.
    EXPECT_EQ(dram->cliffProbability(dram_p.cliffMv), 0.0);
    EXPECT_EQ(hbm->cliffProbability(hbm_p.cliffMv), 0.0);

    // At the same voltage below both cliffs, HBM is deeper in.
    const Millivolt v = dram_p.cliffMv - 20.0;
    EXPECT_GT(hbm->cliffProbability(v), dram->cliffProbability(v));

    // Steeper: a 10 mV drop multiplies the HBM probability more.
    const double dram_ratio = dram->cliffProbability(v - 10.0) /
                              dram->cliffProbability(v);
    const double hbm_ratio =
        hbm->cliffProbability(v - 10.0) / hbm->cliffProbability(v);
    EXPECT_GT(hbm_ratio, dram_ratio);
}

TEST(MemArray, TemperatureRaisesRetentionFailures)
{
    auto array = buildArray(MemKind::dram, smallDramParams(), 7);
    MemWeakBit bit;
    bit.vc = 1000.0;
    bit.antiCell = false;
    bit.retention = 1.0; // fully retention-limited

    const Millivolt v = 1000.0; // right at Vc: p = 0.5 * weights
    const double cool =
        array->bitFailureProbability(bit, v, MemArray::kPatternWorst);
    array->setTemperature(array->params().referenceTemp +
                          array->params().retentionDoublingC);
    const double hot =
        array->bitFailureProbability(bit, v, MemArray::kPatternWorst);
    EXPECT_GT(hot, cool);
    // One doubling constant above reference doubles the retention term;
    // the voltage-limited remainder (1 - retentionWeight) is unchanged.
    const double rw = array->params().retentionWeight;
    EXPECT_NEAR(hot / cool, (1.0 - rw) + 2.0 * rw, 1e-9);

    // Temperature is an error-surface change: the generation moves.
    const std::uint64_t gen = array->generation();
    array->setTemperature(array->params().referenceTemp);
    EXPECT_GT(array->generation(), gen);
}

TEST(MemArray, DataPatternGatesStress)
{
    const auto array = buildArray(MemKind::dram, smallDramParams(), 7);
    MemWeakBit bit;
    bit.vc = 1000.0;
    bit.antiCell = false; // stressed by stored 1s
    bit.retention = 0.0;
    bit.bitOffset = 8; // even offset

    const Millivolt v = 1000.0;
    const double all1 = array->bitFailureProbability(bit, v, 1);
    const double all0 = array->bitFailureProbability(bit, v, 0);
    EXPECT_GT(all1, all0);
    EXPECT_NEAR(all0 / all1,
                1.0 - array->params().patternSensitivity, 1e-12);

    // The anti-cell flips the stressing pattern.
    bit.antiCell = true;
    EXPECT_GT(array->bitFailureProbability(bit, v, 0),
              array->bitFailureProbability(bit, v, 1));

    // Worst-case pattern dominates; the average sits between.
    bit.antiCell = false;
    const double worst =
        array->bitFailureProbability(bit, v, MemArray::kPatternWorst);
    const double avg =
        array->bitFailureProbability(bit, v, MemArray::kPatternAverage);
    EXPECT_GE(worst, all1);
    EXPECT_GT(worst, avg);
    EXPECT_GT(avg, all0);
}

TEST(MemArray, AgingRaisesVcAndInvalidatesRates)
{
    auto array = buildArray(MemKind::dram, smallDramParams(), 7);
    const auto before = array->weakestLine();
    ASSERT_GT(before.cells, 0u);
    const Millivolt probe_v = before.maxVc + 10.0;
    const double rate_before =
        array->aggregateRates(probe_v).pCorrectable;
    const std::uint64_t gen = array->generation();

    Rng rng(3);
    array->applyAgingShift(15.0, 2.0, rng);

    EXPECT_GT(array->generation(), gen);
    const auto after = array->weakestLine();
    EXPECT_GT(after.maxVc, before.maxVc);
    // Every Vc moved up, so the same voltage now sees more failures.
    EXPECT_GT(array->aggregateRates(probe_v).pCorrectable, rate_before);
}

TEST(MemArray, FirstErrorVoltageBracketsTheThreshold)
{
    const auto array = buildArray(MemKind::dram, smallDramParams(), 7);
    const Millivolt v_err = array->firstErrorVoltage();
    ASSERT_GT(v_err, 0.0);
    EXPECT_LT(v_err, array->params().nominalMv);

    const auto weakest = array->weakestLine();
    const auto at = array->lineEventProbabilities(
        weakest.bank, weakest.line, v_err, MemArray::kPatternWorst);
    const auto above = array->lineEventProbabilities(
        weakest.bank, weakest.line, v_err + 5.0,
        MemArray::kPatternWorst);
    EXPECT_GE(at.pCorrectable + at.pUncorrectable, 1e-3);
    EXPECT_LT(above.pCorrectable + above.pUncorrectable, 1e-3);
}

TEST(MemArray, ProbeBurstMatchesAnalyticRate)
{
    auto array = buildArray(MemKind::dram, smallDramParams(), 7);
    const auto weakest = array->weakestLine();
    const Millivolt v = weakest.maxVc; // p(fail) = 0.5 on the worst cell

    const auto analytic = array->lineEventProbabilities(
        weakest.bank, weakest.line, v, MemArray::kPatternWorst);
    ASSERT_GT(analytic.pCorrectable, 0.05);

    Rng rng(11);
    const ProbeStats stats = array->probeLine(
        weakest.bank, weakest.line, v, 200000, MemArray::kPatternWorst,
        rng);
    EXPECT_EQ(stats.accesses, 200000u);
    EXPECT_NEAR(stats.errorRate(), analytic.pCorrectable,
                5.0 * std::sqrt(analytic.pCorrectable / 200000.0));
}

TEST(MemArray, AggregateRatesMonotoneInVoltage)
{
    const auto array = buildArray(MemKind::dram, smallDramParams(), 7);
    const Millivolt nominal = array->params().nominalMv;
    double prev = -1.0;
    for (Millivolt v = nominal; v >= 1020.0; v -= 20.0) {
        const auto rates = array->aggregateRates(v);
        if (prev >= 0.0) {
            EXPECT_GE(rates.pCorrectable, prev) << "at " << v << " mV";
        }
        prev = rates.pCorrectable;
        // Cached: the second call returns the identical value.
        EXPECT_EQ(array->aggregateRates(v).pCorrectable,
                  rates.pCorrectable);
    }
    EXPECT_GT(prev, 0.0);
}

// ---------------------------------------------------------------------
// MemDomain: control-loop integration and independent recovery.

ChipConfig
memChipConfig()
{
    ChipConfig cfg;
    cfg.seed = 42;
    cfg.numCores = 2;
    cfg.coresPerDomain = 2;
    cfg.memDomains = {MemDomainConfig::dram()};
    return cfg;
}

TEST(MemDomain, ControllerEarnsAFloorOnTheMemRail)
{
    setInformEnabled(false);
    Chip chip(memChipConfig());
    ASSERT_EQ(chip.numMemDomains(), 1u);
    MemDomain &md = chip.memDomain(0);

    auto setup = harness::armHardware(chip);
    ASSERT_EQ(setup.memTargets.size(), 1u);
    EXPECT_EQ(setup.memTargets[0].name, "dram0");
    ASSERT_TRUE(md.monitor().active());

    harness::assignSuite(chip, Suite::coreMark, 10.0);
    Simulator sim(chip, 0.002);
    sim.attachControlSystem(setup.control.get());
    sim.run(25.0);

    EXPECT_FALSE(sim.anyCrashed());
    // The mem rail descended into the correctable band and held.
    EXPECT_LT(md.rail().setpoint(), md.nominalMv() - 50.0);
    EXPECT_GT(md.rail().setpoint(),
              md.array().params().materializeFloorMv);
    EXPECT_EQ(md.workloadUncorrectable(), 0u);
    // The monitor saw probe traffic through the simulator. The live
    // counters reset at every control decision, so assert on the
    // simulator's cumulative accumulator instead.
    EXPECT_GT(sim.memProbeStats(0).accesses, 0u);
}

TEST(MemDomain, DueRecoveryIsLocalToTheMemRail)
{
    setInformEnabled(false);
    Chip chip(memChipConfig());
    auto setup = harness::armHardware(chip);
    harness::assignSuite(chip, Suite::coreMark, 10.0);
    Simulator sim(chip, 0.002);
    sim.attachControlSystem(setup.control.get());
    sim.run(25.0);

    MemDomain &md = chip.memDomain(0);
    const Millivolt mem_before = md.rail().setpoint();
    ASSERT_LT(mem_before, md.nominalMv());
    std::vector<Millivolt> core_before;
    for (unsigned d = 0; d < chip.numDomains(); ++d)
        core_before.push_back(chip.domain(d).regulator().setpoint());

    // A workload DUE on the memory domain...
    md.injectUncorrectable();
    ASSERT_TRUE(md.duePending());
    sim.runTicks(1);

    // ...rails the memory back to nominal...
    EXPECT_FALSE(md.duePending());
    EXPECT_EQ(md.recoveries(), 1u);
    EXPECT_EQ(md.rail().setpoint(), md.nominalMv());

    // ...and leaves every core's earned floor untouched.
    for (unsigned d = 0; d < chip.numDomains(); ++d) {
        EXPECT_EQ(chip.domain(d).regulator().setpoint(),
                  core_before[d])
            << "core domain " << d << " floor was reset by a mem DUE";
    }
}

TEST(MemDomain, TrafficScalesWithVoltage)
{
    setInformEnabled(false);
    MemDomainConfig cfg = MemDomainConfig::dram();
    cfg.array.numBanks = 2;
    cfg.array.linesPerBank = 512;
    Rng build(9);
    MemDomain md(cfg, 0, build);

    // At nominal the aggregate stream is clean.
    Rng rng(5);
    MemDomain::TickResult quiet;
    for (int i = 0; i < 200; ++i) {
        const auto r = md.tickTraffic(0.01, rng);
        quiet.correctable += r.correctable;
        quiet.uncorrectable += r.uncorrectable;
    }
    EXPECT_EQ(quiet.correctable, 0u);
    EXPECT_EQ(quiet.uncorrectable, 0u);

    // Down near the weakest cells the stream sees correctables.
    md.rail().request(md.array().weakestLine().maxVc);
    md.rail().advance(60.0);
    MemDomain::TickResult noisy;
    for (int i = 0; i < 200; ++i) {
        const auto r = md.tickTraffic(0.01, rng);
        noisy.correctable += r.correctable;
    }
    EXPECT_GT(noisy.correctable, 0u);
    EXPECT_GT(md.workloadCorrectable(), 0u);
}

TEST(MemDomain, RecalibrateRetargetsTheMonitor)
{
    setInformEnabled(false);
    MemDomainConfig cfg = MemDomainConfig::dram();
    cfg.array.numBanks = 2;
    cfg.array.linesPerBank = 512;
    Rng build(9);
    MemDomain md(cfg, 0, build);
    md.recalibrate();
    ASSERT_TRUE(md.monitor().active());
    const auto first = md.array().weakestLine();
    EXPECT_EQ(md.monitor().targetBank(), first.bank);
    EXPECT_EQ(md.monitor().targetLine(), first.line);

    // Heavy randomized aging can reorder the tail; recalibration must
    // land on the new weakest line, whichever it is.
    Rng age(13);
    md.array().applyAgingShift(10.0, 25.0, age);
    md.recalibrate();
    const auto second = md.array().weakestLine();
    EXPECT_TRUE(md.monitor().active());
    EXPECT_EQ(md.monitor().targetBank(), second.bank);
    EXPECT_EQ(md.monitor().targetLine(), second.line);
}

// ---------------------------------------------------------------------
// Snapshot: mixed-domain round trips and structural refusals.

struct MemCampaign
{
    std::unique_ptr<Chip> chip;
    HardwareSpeculationSetup setup;
    std::unique_ptr<Simulator> sim;
};

MemCampaign
buildMemCampaign(SamplingMode sampling)
{
    setInformEnabled(false);
    MemCampaign c;
    ChipConfig cfg = memChipConfig();
    cfg.memDomains.push_back(MemDomainConfig::hbm());
    c.chip = std::make_unique<Chip>(cfg);
    c.setup = harness::armHardware(*c.chip);
    harness::assignSuite(*c.chip, Suite::coreMark, 5.0);
    c.sim = std::make_unique<Simulator>(*c.chip, 0.005);
    c.sim->setSamplingMode(sampling);
    c.sim->attachControlSystem(c.setup.control.get());
    return c;
}

std::vector<std::uint8_t>
simState(const Simulator &sim)
{
    StateWriter w;
    sim.snapshot(w);
    return w.finish();
}

class MemSnapshotReplay : public ::testing::TestWithParam<SamplingMode>
{
};

TEST_P(MemSnapshotReplay, MixedDomainRestoreMatchesUninterrupted)
{
    const SamplingMode sampling = GetParam();

    MemCampaign ref = buildMemCampaign(sampling);
    ref.sim->runTicks(600);
    const auto want = simState(*ref.sim);

    MemCampaign victim = buildMemCampaign(sampling);
    victim.sim->runTicks(251);
    const auto mid = simState(*victim.sim);

    MemCampaign revived = buildMemCampaign(sampling);
    StateReader r(mid);
    revived.sim->restore(r);
    revived.sim->runTicks(600 - 251);
    EXPECT_EQ(simState(*revived.sim), want);
}

INSTANTIATE_TEST_SUITE_P(SamplingModes, MemSnapshotReplay,
                         ::testing::Values(SamplingMode::exact,
                                           SamplingMode::chipBatched));

TEST(MemSnapshot, DomainCountMismatchIsRefused)
{
    setInformEnabled(false);
    MemCampaign with_mem = buildMemCampaign(SamplingMode::exact);
    with_mem.sim->runTicks(40);
    const auto bytes = simState(*with_mem.sim);

    // A chip built without memory domains must refuse the overlay.
    setInformEnabled(false);
    ChipConfig bare = memChipConfig();
    bare.memDomains.clear();
    Chip chip(bare);
    auto setup = harness::armHardware(chip);
    harness::assignSuite(chip, Suite::coreMark, 5.0);
    Simulator sim(chip, 0.005);
    sim.attachControlSystem(setup.control.get());

    StateReader r(bytes);
    try {
        sim.restore(r);
        FAIL() << "mem-domain snapshot restored onto a mem-less chip";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("mem domain"),
                  std::string::npos)
            << e.what();
    }
}

TEST(MemSnapshot, MonitorDesignationMismatchIsRefused)
{
    auto array = buildArray(MemKind::dram, smallDramParams(), 7);
    MemEccMonitor saved;
    saved.activate(*array, 0, 5);
    StateWriter w;
    w.beginSection("mon");
    saved.saveState(w);
    w.endSection();
    const auto bytes = w.finish();

    MemEccMonitor other;
    other.activate(*array, 0, 7);
    StateReader r(bytes);
    r.beginSection("mon");
    EXPECT_THROW(other.loadState(r), SnapshotError);
}

// ---------------------------------------------------------------------
// Energy accounting: per-category split.

TEST(MemEnergy, CategoriesSumToTheTotal)
{
    EnergyAccount account;
    account.addSample(10.0, 2.0); // core, 20 J
    account.addSample(0.5, 4.0, 0.0, EnergyCategory::memRefresh); // 2 J
    account.addEnergy(3.0, EnergyCategory::memAccess);

    EXPECT_DOUBLE_EQ(account.energyIn(EnergyCategory::core), 20.0);
    EXPECT_DOUBLE_EQ(account.energyIn(EnergyCategory::memRefresh), 2.0);
    EXPECT_DOUBLE_EQ(account.energyIn(EnergyCategory::memAccess), 3.0);
    EXPECT_DOUBLE_EQ(account.energy(), 25.0);

    // The split survives a snapshot round trip.
    StateWriter w;
    w.beginSection("energy");
    account.saveState(w);
    w.endSection();
    EnergyAccount restored;
    StateReader r(w.finish());
    r.beginSection("energy");
    restored.loadState(r);
    r.endSection();
    EXPECT_DOUBLE_EQ(restored.energyIn(EnergyCategory::memRefresh),
                     2.0);
    EXPECT_DOUBLE_EQ(restored.energy(), 25.0);

    account.reset();
    EXPECT_DOUBLE_EQ(account.energyIn(EnergyCategory::memRefresh), 0.0);
    EXPECT_DOUBLE_EQ(account.energy(), 0.0);
}

TEST(MemEnergy, SimulatorAttributesRefreshAndAccess)
{
    setInformEnabled(false);
    Chip chip(memChipConfig());
    auto setup = harness::armHardware(chip);
    harness::assignSuite(chip, Suite::coreMark, 5.0);
    Simulator sim(chip, 0.002);
    sim.attachControlSystem(setup.control.get());
    sim.run(2.0);

    const EnergyAccount &mem = sim.memEnergy(0);
    EXPECT_GT(mem.energyIn(EnergyCategory::memRefresh), 0.0);
    EXPECT_GT(mem.energyIn(EnergyCategory::memAccess), 0.0);
    EXPECT_DOUBLE_EQ(mem.energyIn(EnergyCategory::core), 0.0);
    // Refresh dominates the access stream at these service rates.
    EXPECT_GT(mem.energyIn(EnergyCategory::memRefresh),
              mem.energyIn(EnergyCategory::memAccess));
    // The chip account keeps integrating total chip power, mem included.
    EXPECT_GT(sim.chipEnergy().energy(), mem.energy());
}

// ---------------------------------------------------------------------
// Fleet: heterogeneous memory tiers.

TEST(MemFleet, HeterogeneousMemTiersAreAssignedRoundRobin)
{
    setInformEnabled(false);
    FleetConfig cfg;
    cfg.numChips = 2;
    cfg.seed = 42;
    cfg.chip.numCores = 2;
    cfg.chip.coresPerDomain = 2;
    cfg.nodeMemDomains = {{}, {MemDomainConfig::dram()}};
    cfg.jobs.arrivalsPerSecond = 6.0;
    cfg.jobs.firstArrival = 0.5;
    cfg.jobs.seed = 0xCAFE;
    cfg.recovery.checkpointInterval = 1.0;
    cfg.recovery.recoveryLatency = 0.25;

    Fleet fleet(cfg);
    ExperimentPool pool(2);
    fleet.run(6.0, pool);

    EXPECT_EQ(fleet.node(0).chip().numMemDomains(), 0u);
    EXPECT_EQ(fleet.node(1).chip().numMemDomains(), 1u);
    // Nodes without domains keep the exact-1.0 baseline factor.
    EXPECT_EQ(fleet.node(0).memServiceFactor(), 1.0);
    EXPECT_GE(fleet.node(1).memServiceFactor(), 1.0);
    EXPECT_EQ(fleet.node(0).memEnergy(), 0.0);
    EXPECT_GT(fleet.node(1).memEnergy(), 0.0);

    const FleetReport report = fleet.report();
    EXPECT_GT(report.completed, 0u);
    EXPECT_GT(report.memEnergy, 0.0);
    EXPECT_EQ(report.memEnergy, fleet.node(1).memEnergy());
}

} // namespace
} // namespace vspec
