/**
 * @file
 * Tests for the tick simulator: time advancement, telemetry, energy
 * accounting, hooks, and crash propagation.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "platform/harness.hh"
#include "platform/simulator.hh"
#include "sram/aging.hh"
#include "workload/benchmarks.hh"
#include "workload/virus.hh"

namespace vspec
{
namespace
{

ChipConfig
testConfig(std::uint64_t seed)
{
    ChipConfig cfg;
    cfg.seed = seed;
    return cfg;
}

TEST(Simulator, AdvancesTime)
{
    Chip chip(testConfig(1));
    Simulator sim(chip, 0.01);
    sim.run(1.0);
    EXPECT_NEAR(sim.now(), 1.0, 1e-9);
    sim.run(0.5);
    EXPECT_NEAR(sim.now(), 1.5, 1e-9);
}

TEST(Simulator, TraceSamplesAtInterval)
{
    Chip chip(testConfig(2));
    harness::assignIdle(chip);
    Simulator sim(chip, 0.01);
    sim.enableTrace(0.1);
    sim.run(2.0);
    EXPECT_NEAR(double(sim.trace().samples().size()), 20.0, 1.0);
    const auto &sample = sim.trace().samples().front();
    EXPECT_EQ(sample.domainSetpoint.size(), chip.numDomains());
    EXPECT_EQ(sample.corePower.size(), chip.numCores());
    EXPECT_GT(sample.chipPower, 0.0);
}

TEST(Simulator, TraceFlushesFinalPartialSample)
{
    // Duration is not an integer multiple of the trace interval: the
    // 5 ms tail must be flushed as a final partial sample instead of
    // being silently dropped.
    Chip chip(testConfig(2));
    harness::assignIdle(chip);
    Simulator sim(chip, 0.001);
    sim.enableTrace(0.01);
    sim.run(0.025);
    EXPECT_EQ(sim.trace().samples().size(), 3u);
    EXPECT_NEAR(sim.trace().samples().back().time, 0.025, 1e-9);
}

TEST(Simulator, TraceIntervalNotMultipleOfTickDoesNotDrift)
{
    // interval = 2.5 ticks: the sample clock must carry the remainder
    // (emitting on a 2/3/2/3-tick cadence) instead of resetting to
    // zero and settling on every 3rd tick, which loses one sample in
    // every five intervals on long runs.
    Chip chip(testConfig(2));
    harness::assignIdle(chip);
    Simulator sim(chip, 0.001);
    sim.enableTrace(0.0025);
    sim.run(0.05);
    EXPECT_EQ(sim.trace().samples().size(), 20u);
}

TEST(Simulator, TraceExactMultipleEmitsNoExtraSample)
{
    Chip chip(testConfig(2));
    harness::assignIdle(chip);
    Simulator sim(chip, 0.001);
    sim.enableTrace(0.01);
    sim.run(0.03);
    EXPECT_EQ(sim.trace().samples().size(), 3u);
}

TEST(Simulator, NoErrorsOrCrashesAtNominal)
{
    Chip chip(testConfig(3));
    harness::assignSuite(chip, Suite::specInt2000, 5.0);
    Simulator sim(chip, 0.01);
    sim.run(10.0);
    EXPECT_FALSE(sim.anyCrashed());
    EXPECT_EQ(sim.eventLog().correctableCount(), 0u);
    for (unsigned c = 0; c < chip.numCores(); ++c)
        EXPECT_EQ(sim.coreCorrectableEvents(c), 0u);
}

TEST(Simulator, EnergyAccumulates)
{
    Chip chip(testConfig(4));
    harness::assignSuite(chip, Suite::coreMark, 5.0);
    Simulator sim(chip, 0.01);
    sim.run(2.0);
    EXPECT_GT(sim.chipEnergy().energy(), 0.0);
    EXPECT_NEAR(sim.chipEnergy().elapsed(), 2.0, 1e-6);
    for (unsigned c = 0; c < chip.numCores(); ++c)
        EXPECT_GT(sim.coreEnergy(c).energy(), 0.0);
}

TEST(Simulator, HooksRunEveryTick)
{
    Chip chip(testConfig(5));
    Simulator sim(chip, 0.01);
    int calls = 0;
    Seconds last = -1.0;
    sim.addHook([&](Seconds t, Seconds dt) {
        ++calls;
        EXPECT_GT(t, last);
        last = t;
        EXPECT_DOUBLE_EQ(dt, 0.01);
    });
    sim.run(1.0);
    EXPECT_EQ(calls, 100);
}

TEST(Simulator, CrashLatchesWhenRailDropsBelowLogicFloor)
{
    Chip chip(testConfig(6));
    harness::assignIdle(chip);
    // Force domain 0 far below any logic floor.
    chip.domain(0).regulator().request(450.0);
    chip.domain(0).regulator().advance(1.0);
    Simulator sim(chip, 0.01);
    sim.run(0.1);
    EXPECT_TRUE(sim.anyCrashed());
    EXPECT_TRUE(chip.core(0).crashed());
    EXPECT_TRUE(chip.core(1).crashed());
    EXPECT_FALSE(chip.core(4).crashed());
}

TEST(Simulator, DomainActivityFollowsWorkloads)
{
    Chip chip(testConfig(7));
    harness::assignIdle(chip);
    chip.core(0).setWorkload(std::make_shared<VoltageVirusWorkload>(8));
    Simulator sim(chip, 0.01);
    sim.run(0.1);
    EXPECT_GT(chip.domain(0).activity().swingAmplitude, 0.9);
    EXPECT_LT(chip.domain(3).activity().meanActivity, 0.1);
}

TEST(Simulator, MonitorProbesShowUpInTrace)
{
    Chip chip(testConfig(8));
    harness::assignIdle(chip);
    auto &core = chip.core(0);
    const auto weakest = core.l2iArray().weakestLine();
    chip.l2iMonitor(0).activate(core.l2iArray(), weakest.set,
                                weakest.way);
    Simulator sim(chip, 0.01);
    sim.enableTrace(0.5);
    sim.run(1.0);
    ASSERT_GE(sim.trace().samples().size(), 2u);
    // Probes ran at nominal: accesses recorded, no errors.
    EXPECT_EQ(sim.trace().samples().back().domainErrors[0], 0u);
}

TEST(Simulator, ExactTickIsPinned)
{
    // The exact tick end to end: an armed low-point die with recovery
    // and fault injection, suite sequences on every core, the voltage
    // virus on core 5, and a hook that swaps core 2's workload midway
    // (phase 6 must see it within the same tick). Every value was
    // generated by the tick that sampled each core's workload four
    // times per tick; sampling once must not move a bit.
    Chip chip(testConfig(12));
    const auto setup = harness::armHardware(chip);
    RecoveryManager::Config rc;
    rc.checkpointInterval = 0.5;
    rc.recoveryLatency = 0.1;
    const auto recovery = harness::armRecovery(chip, rc);
    FaultInjector::Config faults;
    faults.bitFlipsPerHour = 7200.0;
    faults.dueFlipsPerHour = 900.0;
    faults.droopsPerHour = 3600.0;
    faults.droopMagnitudeMv = 25.0;
    faults.droopDuration = 0.05;
    faults.monitorDropoutsPerHour = 1800.0;
    faults.dropoutDuration = 0.2;
    faults.stuckRegulatorsPerHour = 1800.0;
    faults.stuckDuration = 0.2;
    const auto injector = harness::armFaultInjector(chip, faults);

    const Suite suites[] = {Suite::coreMark, Suite::specJbb2005,
                            Suite::specInt2000, Suite::specFp2000};
    for (unsigned c = 0; c < chip.numCores(); ++c) {
        chip.core(c).setWorkload(
            benchmarks::suiteSequence(suites[c % 4], 0.5));
    }
    chip.core(5).setWorkload(std::make_shared<VoltageVirusWorkload>(8));
    // Start every rail 40 mV below its monitor line's first-error
    // supply: the monitors raise emergencies and the deepest rails
    // cross their logic floors, so recovery runs within the run.
    for (const WeakLineTarget &target : setup.targets) {
        VoltageRegulator &reg =
            chip.domainOf(target.coreId).regulator();
        reg.request(target.firstErrorVdd - 40.0);
        reg.advance(1.0);
    }

    Simulator sim(chip, 0.002);
    sim.attachControlSystem(setup.control.get());
    sim.attachRecoveryManager(recovery.get());
    sim.attachFaultInjector(injector.get());
    sim.enableTrace(0.25);
    bool swapped = false;
    sim.addHook([&](Seconds t, Seconds) {
        if (!swapped && t >= 1.0) {
            chip.core(2).setWorkload(
                benchmarks::suiteSequence(Suite::stress, 0.5), t);
            swapped = true;
        }
    });
    sim.run(2.0);

    const std::uint64_t correctables[] = {1, 0, 0, 1, 0, 0, 2, 0};
    const Joule core_energy[] = {
        2.8809635967843144, 2.640807721691691,  4.0733173047998994,
        3.3149740483859418, 3.5626149495611585, 3.4866055807400809,
        2.2488851315381804, 2.2715720910165782,
    };
    for (unsigned c = 0; c < chip.numCores(); ++c) {
        EXPECT_EQ(sim.coreCorrectableEvents(c), correctables[c]) << c;
        EXPECT_EQ(sim.coreEnergy(c).energy(), core_energy[c]) << c;
    }
    EXPECT_EQ(sim.chipEnergy().energy(), 51.794548168484354);
    const Millivolt setpoints[] = {685.0, 720.0, 710.0, 625.0};
    for (unsigned d = 0; d < chip.numDomains(); ++d)
        EXPECT_EQ(chip.domain(d).regulator().setpoint(), setpoints[d]) << d;
    ASSERT_EQ(sim.trace().samples().size(), 8u);
    EXPECT_EQ(sim.trace().samples().back().chipPower, 23.253579603586648);
    EXPECT_EQ(recovery->recoveries(), 2u);
}

/** FNV-1a fold of one 64-bit value, byte by byte. */
std::uint64_t
fnvFold(std::uint64_t hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

TEST(Simulator, ExactTickEventLogIsPinned)
{
    // The exact tick's per-line draws, pinned by their event log: an
    // armed low-point die with suites on every core and no controller,
    // so every rail holds where it is put, below its monitor line's
    // first-error supply, and the workload traffic draws hundreds of
    // events. Mid-run, domain 1's rail steps after holding for 300
    // ticks, a weak line of core 7 is deconfigured and later
    // reconfigured, core 1's L2D ages (then refreshWeakLines), and
    // core 2's workload is swapped.
    Chip chip(testConfig(21));
    const auto setup = harness::armHardware(chip);

    const Suite suites[] = {Suite::coreMark, Suite::specJbb2005,
                            Suite::specInt2000, Suite::specFp2000};
    for (unsigned c = 0; c < chip.numCores(); ++c) {
        chip.core(c).setWorkload(
            benchmarks::suiteSequence(suites[c % 4], 0.5));
    }
    for (const WeakLineTarget &target : setup.targets) {
        VoltageRegulator &reg =
            chip.domainOf(target.coreId).regulator();
        reg.request(target.firstErrorVdd - 50.0);
        reg.advance(1.0);
    }

    // The weakest L2D line of core 7 that is not a monitor's line.
    Core &core7 = chip.core(7);
    WeakLineInfo toggled;
    for (const WeakLineInfo &line : core7.weakLinesOf(core7.l2dArray())) {
        const bool designated = std::any_of(
            setup.targets.begin(), setup.targets.end(),
            [&](const WeakLineTarget &target) {
                return target.array == &core7.l2dArray() &&
                       target.set == line.set && target.way == line.way;
            });
        if (!designated) {
            toggled = line;
            break;
        }
    }

    Simulator sim(chip, 0.002);
    const AgingModel aging(AgingModel::Params{/*ratePerDecade=*/10.0});
    Rng age_rng(5);
    bool stepped = false, deconfigured = false, reconfigured = false;
    bool aged = false, swapped = false;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    std::uint64_t seen_corr = 0, seen_uncorr = 0;
    sim.addHook([&](Seconds t, Seconds) {
        if (!stepped && t >= 0.6) {
            VoltageRegulator &reg = chip.domain(1).regulator();
            reg.request(reg.setpoint() - 5.0);
            stepped = true;
        }
        if (!deconfigured && t >= 0.4) {
            core7.l2dArray().deconfigureLine(toggled.set, toggled.way);
            deconfigured = true;
        }
        if (!reconfigured && t >= 1.2) {
            core7.l2dArray().reconfigureLine(toggled.set, toggled.way);
            reconfigured = true;
        }
        if (!aged && t >= 0.8) {
            Core &core1 = chip.core(1);
            aging.advance(core1.l2dArray().sram(), 0.0, 3e7, age_rng);
            core1.refreshWeakLines();
            aged = true;
        }
        if (!swapped && t >= 1.0) {
            chip.core(2).setWorkload(
                benchmarks::suiteSequence(Suite::stress, 0.5), t);
            swapped = true;
        }

        // Fold the log whenever it moved: when, which caches, which
        // lines and which status.
        const EccEventLog &log = sim.eventLog();
        if (log.correctableCount() == seen_corr &&
            log.uncorrectableCount() == seen_uncorr)
            return;
        seen_corr = log.correctableCount();
        seen_uncorr = log.uncorrectableCount();
        std::uint64_t t_bits = 0;
        std::memcpy(&t_bits, &t, sizeof t_bits);
        digest = fnvFold(digest, t_bits);
        digest = fnvFold(digest, seen_corr);
        digest = fnvFold(digest, seen_uncorr);
        for (const auto &[cache, count] : log.perCacheCorrectable()) {
            for (char ch : cache)
                digest = fnvFold(digest, std::uint64_t(ch));
            digest = fnvFold(digest, count);
        }
        for (const auto &[line, count] : log.perLineCorrectable()) {
            digest = fnvFold(digest, line.first);
            digest = fnvFold(digest, line.second);
            digest = fnvFold(digest, count);
        }
    });
    sim.run(1.6);
    ASSERT_TRUE(stepped && deconfigured && reconfigured && aged &&
                swapped);

    const std::uint64_t correctables[] = {0, 59, 50, 0, 0, 104, 112, 107};
    for (unsigned c = 0; c < chip.numCores(); ++c)
        EXPECT_EQ(sim.coreCorrectableEvents(c), correctables[c]) << c;
    EXPECT_EQ(sim.eventLog().correctableCount(), 432u);
    EXPECT_EQ(sim.eventLog().uncorrectableCount(), 0u);
    EXPECT_EQ(digest, 0x5a9e6368c20b768eULL);
}

TEST(Trace, TsvRendering)
{
    Chip chip(testConfig(9));
    harness::assignIdle(chip);
    Simulator sim(chip, 0.01);
    sim.enableTrace(0.1);
    sim.run(0.5);
    const std::string tsv = sim.trace().toTsv();
    EXPECT_NE(tsv.find("time"), std::string::npos);
    EXPECT_NE(tsv.find("chip_power_w"), std::string::npos);
    // Header plus one line per sample.
    const std::size_t lines =
        std::count(tsv.begin(), tsv.end(), '\n');
    EXPECT_EQ(lines, sim.trace().samples().size() + 1);
}

} // namespace
} // namespace vspec
