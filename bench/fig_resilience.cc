/**
 * @file
 * Resilience campaign: voltage speculation under injected faults, with
 * and without crash recovery.
 *
 * Not a figure of the paper — the paper's Section V-C argues that every
 * speculation failure it observed was a detected machine check, and a
 * production deployment would pair the controller with checkpoint
 * recovery. This bench quantifies that pairing: a long run with
 * injected uncorrectable errors, droop transients, monitor dropouts and
 * stuck regulators completes when a RecoveryManager services the
 * machine checks (availability below 100%, recoveries > 0, rails reset
 * and re-speculated), while the identical campaign without recovery
 * halts at the first DUE.
 *
 * The campaign itself is checkpointable:
 *
 *   --duration S               campaign length in simulated seconds
 *                              (default 240)
 *   --sampling exact|chip-batched
 *                              Simulator-tick fidelity (default
 *                              exact; each mode has its own replay
 *                              stream; calibration is always exact)
 *   --checkpoint FILE          snapshot target path
 *   --checkpoint-every T       periodic snapshot cadence (seconds of
 *                              simulated time)
 *   --halt-at T                stop phase (a) at T seconds, snapshot,
 *                              and exit 0 without printing results
 *   --resume FILE              restore phase (a) from a snapshot and
 *                              run it to completion
 *
 * A run halted at any tick and resumed produces byte-identical output
 * to the uninterrupted run: the snapshot records the sampling mode, and
 * Simulator::restore replays RNG streams bit-exactly (golden-compared
 * in CTest, see tests/run_resume_compare.cmake).
 */

#include <cmath>
#include <optional>

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

namespace
{

constexpr Seconds kTick = 0.005;
constexpr Seconds kDefaultDuration = 240.0;

FaultInjector::Config
campaignFaults()
{
    FaultInjector::Config faults;
    // Rates exaggerated far beyond field rates so a minutes-long
    // simulation sees a statistically useful number of events.
    faults.bitFlipsPerHour = 600.0;
    faults.dueFlipsPerHour = 120.0;
    faults.droopsPerHour = 240.0;
    faults.droopMagnitudeMv = 25.0;
    faults.droopDuration = 0.05;
    faults.monitorDropoutsPerHour = 60.0;
    faults.dropoutDuration = 1.0;
    faults.stuckRegulatorsPerHour = 60.0;
    faults.stuckDuration = 1.0;
    return faults;
}

long long
stepOf(Seconds t)
{
    return (long long)std::llround(t / kTick);
}

/**
 * Phase (a). Returns false when the run halted at --halt-at (snapshot
 * written, nothing printed) so main can skip phase (b).
 */
bool
runWithRecovery(SamplingMode sampling, Seconds duration,
                Seconds halt_at, Seconds checkpoint_every,
                const std::string &snap_path,
                const std::string &resume_path)
{
    // When resuming, the snapshot header wins over --sampling: the
    // calibration pass below must replay the RNG stream the snapshot
    // was taken under.
    std::optional<StateReader> reader;
    if (!resume_path.empty()) {
        reader.emplace(StateReader::fromFile(resume_path));
        reader->beginSection("bench");
        const std::string bench = reader->getString();
        if (bench != "fig_resilience")
            throw SnapshotError("snapshot belongs to bench '" + bench +
                                "', not fig_resilience");
        sampling = samplingModeFromByte(reader->getU8());
        reader->endSection();
    }

    Chip chip = makeLowChip();
    auto setup = harness::armHardware(chip);
    harness::assignSuite(chip, Suite::coreMark, 30.0);

    RecoveryManager::Config recovery_cfg;
    recovery_cfg.checkpointInterval = 2.0;
    recovery_cfg.recoveryLatency = 0.5;
    recovery_cfg.recoveryEnergy = 2.0;
    auto recovery = harness::armRecovery(chip, recovery_cfg);

    Simulator sim(chip, kTick);
    sim.setSamplingMode(sampling);
    sim.attachControlSystem(setup.control.get());
    auto injector =
        harness::armFaultInjector(chip, campaignFaults(),
                                  &sim.eventLog());
    sim.attachFaultInjector(injector.get());
    sim.attachRecoveryManager(recovery.get());

    if (reader)
        sim.restore(*reader);

    auto writeSnapshot = [&]() {
        StateWriter w;
        w.beginSection("bench");
        w.putString("fig_resilience");
        w.putU8(std::uint8_t(sampling));
        w.endSection();
        sim.snapshot(w);
        w.writeFile(snap_path);
    };

    // Advance on the tick grid so a halted-and-resumed run takes
    // exactly the same step sequence as the uninterrupted one.
    const long long stop_step =
        (halt_at > 0.0 && halt_at < duration) ? stepOf(halt_at)
                                              : stepOf(duration);
    const long long ckpt_steps =
        checkpoint_every > 0.0
            ? std::max(1LL, stepOf(checkpoint_every))
            : 0;
    long long cur = stepOf(sim.now());
    while (cur < stop_step) {
        long long target = stop_step;
        if (ckpt_steps > 0)
            target = std::min(target, (cur / ckpt_steps + 1) * ckpt_steps);
        sim.run(double(target - cur) * kTick);
        cur = target;
        if (ckpt_steps > 0 && cur < stop_step)
            writeSnapshot();
    }
    if (stop_step < stepOf(duration)) {
        writeSnapshot();
        return false;
    }

    std::printf("\n(a) recovery enabled, %.0f s campaign\n", duration);
    row("injected bit flips",
        {fmt("%.0f", double(injector->stats().bitFlips))});
    row("injected DUEs", {fmt("%.0f", double(injector->stats().dues))});
    row("droop transients",
        {fmt("%.0f", double(injector->stats().droops))});
    row("monitor dropouts",
        {fmt("%.0f", double(injector->stats().monitorDropouts))});
    row("stuck regulators",
        {fmt("%.0f", double(injector->stats().stuckRegulators))});
    row("DUEs seen", {fmt("%.0f", double(recovery->duesSeen()))});
    row("logic failures",
        {fmt("%.0f", double(recovery->logicFailuresSeen()))});
    row("recoveries", {fmt("%.0f", double(recovery->recoveries()))});
    row("recoveries/hour",
        {fmt("%.1f", recovery->recoveriesPerHour(duration))});
    row("lost work (s)", {fmt("%.2f", recovery->lostTime())});
    row("recovery energy (J)",
        {fmt("%.1f", double(recovery->recoveries()) *
                         recovery_cfg.recoveryEnergy)});
    row("availability", {fmt("%.4f %%",
                             100.0 * recovery->availability(duration))});
    row("chip energy (kJ)", {fmt("%.2f",
                                 sim.chipEnergy().energy() / 1000.0)});

    std::printf("per-core recoveries:");
    for (unsigned c = 0; c < chip.numCores(); ++c)
        std::printf(" %llu",
                    (unsigned long long)recovery->recoveries(c));
    std::printf("\n");
    std::printf("terminal crash latched: %s\n",
                sim.anyCrashed() ? "YES" : "no");
    return true;
}

void
runWithoutRecovery(SamplingMode sampling, Seconds duration)
{
    Chip chip = makeLowChip();
    auto setup = harness::armHardware(chip);
    harness::assignSuite(chip, Suite::coreMark, 30.0);

    Simulator sim(chip, kTick);
    sim.setSamplingMode(sampling);
    sim.attachControlSystem(setup.control.get());
    auto injector =
        harness::armFaultInjector(chip, campaignFaults(),
                                  &sim.eventLog());
    sim.attachFaultInjector(injector.get());

    // No recovery manager: run until the first machine check latches.
    Seconds halted_at = -1.0;
    while (sim.now() < duration) {
        sim.run(1.0);
        if (sim.anyCrashed()) {
            halted_at = sim.now();
            break;
        }
    }

    std::printf("\n(b) recovery disabled, same campaign\n");
    if (halted_at >= 0.0) {
        std::printf("halted at first DUE after %.0f s "
                    "(%.0f s of work lost — the whole run)\n",
                    halted_at, halted_at);
    } else {
        std::printf("survived %.0f s without a DUE (raise the injection "
                    "rates)\n", duration);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {"--sampling MODE", "--duration S",
                                   "--halt-at S", "--checkpoint-every S",
                                   "--checkpoint FILE", "--resume FILE"});
    setInformEnabled(false);
    const SamplingMode sampling = parseSampling(argc, argv);
    const Seconds duration =
        parseDoubleArg(argc, argv, "duration", kDefaultDuration);
    const Seconds halt_at = parseDoubleArg(argc, argv, "halt-at", -1.0);
    const Seconds ckpt_every =
        parseDoubleArg(argc, argv, "checkpoint-every", -1.0);
    const std::string snap_path =
        parseStringArg(argc, argv, "checkpoint", "");
    const std::string resume_path =
        parseStringArg(argc, argv, "resume", "");
    if ((halt_at > 0.0 || ckpt_every > 0.0) && snap_path.empty()) {
        std::fprintf(stderr, "--halt-at/--checkpoint-every require "
                             "--checkpoint FILE\n");
        return 2;
    }

    banner("Resilience campaign",
           "availability under injected faults, with and without "
           "crash recovery");
    try {
        if (!runWithRecovery(sampling, duration, halt_at, ckpt_every,
                             snap_path, resume_path))
            return 0;
    } catch (const SnapshotError &e) {
        std::fprintf(stderr, "snapshot error: %s\n", e.what());
        return 1;
    }
    runWithoutRecovery(sampling, duration);
    return 0;
}
