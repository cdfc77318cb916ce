/**
 * @file
 * Chaos-recovery campaign: kill the simulation at random ticks,
 * restore from the snapshot, and prove the restored trajectory is the
 * trajectory.
 *
 * Each trial runs the same fault-injected speculation campaign twice:
 * once uninterrupted to the horizon, and once killed at a random tick
 * — the live objects are destroyed and rebuilt from configuration,
 * the snapshot is overlaid, and the run continues to the same horizon.
 * The end states are compared as serialized snapshot bytes: every RNG
 * cursor, latched counter, regulator setpoint, trace sample and energy
 * account must match bit-for-bit, or the trial fails. A tick-level
 * InvariantAuditor (energy monotonicity, rail bounds, counter-latch
 * consistency, weak-cell span ordering) is armed on every run, on both
 * sides of the kill.
 *
 * Trials alternate between chip-level campaigns (Simulator snapshot,
 * exact and chip-batched sampling), fleet-level campaigns (Fleet snapshot:
 * 2 chips, job stream, governor, kill at a random slice) and
 * scale-fleet campaigns (ShardedFleet snapshot: 96 chips with the
 * correlated-event injector, health lifecycle and retry queue armed,
 * so the kill routinely lands mid-quarantine or mid-self-test and the
 * restored FSM, retry backlog and per-domain attribution must all
 * resume bit-identically).
 *
 * Options:
 *   --trials N     trials per flavor (default 3)
 *   --duration S   horizon per chip trial (default 12; fleet trials
 *                  use S/2 per policy of wall time)
 *   --seed X       campaign seed (default 1337)
 *   --threads N    fleet-trial worker threads (0 = hardware)
 *   --artifact-dir D   where a failing trial dumps its snapshot for
 *                      post-mortem (default: no dump)
 *
 * Exit status 0 only if every trial's end state matched and no
 * invariant was violated.
 */

#include <cmath>
#include <fstream>
#include <memory>

#include "bench_util.hh"
#include "fleet/shard.hh"

using namespace vspec;
using namespace vspec_bench;

namespace
{

constexpr Seconds kTick = 0.005;

/** Failing trials dump their snapshot here (empty: no dump). */
std::string artifactDir;

/** Preserve a failing trial's snapshot for post-mortem (CI uploads). */
void
dumpFailureArtifact(const std::string &name,
                    const std::vector<std::uint8_t> &snapshot)
{
    if (artifactDir.empty())
        return;
    const std::string path = artifactDir + "/" + name + ".snap";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(snapshot.data()),
              std::streamsize(snapshot.size()));
    if (out.good())
        std::printf("  offending snapshot kept at %s\n", path.c_str());
    else
        std::printf("  failed to write snapshot artifact %s\n",
                    path.c_str());
}

FaultInjector::Config
chaosFaults()
{
    FaultInjector::Config faults;
    faults.bitFlipsPerHour = 1200.0;
    faults.dueFlipsPerHour = 300.0;
    faults.droopsPerHour = 600.0;
    faults.droopMagnitudeMv = 25.0;
    faults.droopDuration = 0.05;
    faults.monitorDropoutsPerHour = 120.0;
    faults.dropoutDuration = 0.5;
    faults.stuckRegulatorsPerHour = 120.0;
    faults.stuckDuration = 0.5;
    return faults;
}

/** One fully armed chip campaign (owns everything the sim touches). */
struct CampaignSim
{
    std::unique_ptr<Chip> chip;
    HardwareSpeculationSetup setup;
    std::unique_ptr<RecoveryManager> recovery;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<InvariantAuditor> auditor;
};

CampaignSim
buildCampaign(std::uint64_t seed, SamplingMode sampling)
{
    CampaignSim c;
    ChipConfig cfg = makeLowConfig();
    cfg.seed = seed;
    c.chip = std::make_unique<Chip>(cfg);
    c.setup = harness::armHardware(*c.chip);
    harness::assignSuite(*c.chip, Suite::coreMark, 10.0);

    RecoveryManager::Config recovery_cfg;
    recovery_cfg.checkpointInterval = 1.0;
    recovery_cfg.recoveryLatency = 0.25;
    recovery_cfg.recoveryEnergy = 1.0;
    c.recovery = harness::armRecovery(*c.chip, recovery_cfg);

    c.sim = std::make_unique<Simulator>(*c.chip, kTick);
    c.sim->setSamplingMode(sampling);
    c.sim->enableTrace(0.25);
    c.sim->attachControlSystem(c.setup.control.get());
    c.injector = harness::armFaultInjector(*c.chip, chaosFaults(),
                                           &c.sim->eventLog());
    c.sim->attachFaultInjector(c.injector.get());
    c.sim->attachRecoveryManager(c.recovery.get());

    c.auditor = std::make_unique<InvariantAuditor>();
    c.auditor->attach(*c.sim);
    return c;
}

std::vector<std::uint8_t>
chipEndState(const Simulator &sim)
{
    StateWriter w;
    sim.snapshot(w);
    return w.finish();
}

bool
reportAuditor(const char *label, const InvariantAuditor &auditor)
{
    if (auditor.clean())
        return true;
    std::printf("  %s: %llu invariant violations\n", label,
                (unsigned long long)auditor.violationCount());
    for (const std::string &message : auditor.violations())
        std::printf("    %s\n", message.c_str());
    return false;
}

/** One chip-level kill/restore trial. Returns true on success. */
bool
chipTrial(unsigned trial, std::uint64_t seed, SamplingMode sampling,
          Seconds duration, Rng &chaos)
{
    const long long total_ticks =
        (long long)std::llround(duration / kTick);
    const long long kill_tick =
        1 + (long long)(chaos.uniform() * double(total_ticks - 1));

    // Reference: uninterrupted run to the horizon. runTicks, not
    // run(): the trace is enabled, and run()'s end-of-run partial
    // flush would make split and unsplit runs legitimately differ.
    CampaignSim ref = buildCampaign(seed, sampling);
    ref.sim->runTicks(std::uint64_t(total_ticks));
    const auto want = chipEndState(*ref.sim);

    // Victim: killed at kill_tick — the snapshot is the only survivor.
    std::vector<std::uint8_t> snapshot;
    {
        CampaignSim victim = buildCampaign(seed, sampling);
        victim.sim->runTicks(std::uint64_t(kill_tick));
        StateWriter w;
        victim.sim->snapshot(w);
        snapshot = w.finish();
        if (!reportAuditor("victim", *victim.auditor))
            return false;
    }

    // Reincarnation: fresh construction, overlay, run the remainder.
    CampaignSim revived = buildCampaign(seed, sampling);
    StateReader r(snapshot);
    revived.sim->restore(r);
    revived.sim->runTicks(std::uint64_t(total_ticks - kill_tick));
    const auto got = chipEndState(*revived.sim);

    const bool state_ok = got == want;
    const bool audit_ok = reportAuditor("reference", *ref.auditor) &&
                          reportAuditor("revived", *revived.auditor);
    std::printf("chip  trial %u  %s  kill@%6.2fs/%5.2fs  snapshot "
                "%6zu B  end state %s\n",
                trial, samplingName(sampling),
                double(kill_tick) * kTick, duration, snapshot.size(),
                state_ok ? "MATCH" : "MISMATCH");
    if (!state_ok)
        dumpFailureArtifact("chaos_chip_trial" + std::to_string(trial) +
                                "_" + samplingName(sampling),
                            snapshot);
    return state_ok && audit_ok;
}

FleetConfig
chaosFleetConfig(std::uint64_t seed)
{
    FleetConfig cfg;
    cfg.numChips = 2;
    cfg.seed = seed;
    cfg.chip = makeLowConfig();
    cfg.policy = SchedulerPolicy::marginAware;
    cfg.jobs.arrivalsPerSecond = 8.0;
    cfg.jobs.firstArrival = 0.5;
    cfg.jobs.seed = mix64(seed, 0xF00D);
    cfg.governor.fleetBudget = 44.0;
    cfg.governor.interval = 0.5;
    cfg.governor.minChipCap = 5.0;
    cfg.recovery.checkpointInterval = 1.0;
    cfg.recovery.recoveryLatency = 0.25;
    cfg.faults = chaosFaults();
    return cfg;
}

std::vector<std::uint8_t>
fleetEndState(const Fleet &fleet)
{
    StateWriter w;
    fleet.snapshot(w);
    return w.finish();
}

/** Arm one auditor per fleet node (after the nodes exist). */
std::vector<std::unique_ptr<InvariantAuditor>>
armFleetAuditors(Fleet &fleet)
{
    std::vector<std::unique_ptr<InvariantAuditor>> auditors;
    for (unsigned i = 0; i < fleet.numChips(); ++i) {
        auditors.push_back(std::make_unique<InvariantAuditor>());
        auditors.back()->attach(fleet.node(i).simulator());
    }
    return auditors;
}

bool
reportFleetAuditors(
    const char *label,
    const std::vector<std::unique_ptr<InvariantAuditor>> &auditors)
{
    bool ok = true;
    for (std::size_t i = 0; i < auditors.size(); ++i) {
        const std::string name =
            std::string(label) + " node " + std::to_string(i);
        ok = reportAuditor(name.c_str(), *auditors[i]) && ok;
    }
    return ok;
}

/** One fleet-level kill/restore trial at slice granularity. */
bool
fleetTrial(unsigned trial, std::uint64_t seed, Seconds duration,
           Rng &chaos, ExperimentPool &pool)
{
    const FleetConfig cfg = chaosFleetConfig(seed);
    const long long total_slices =
        (long long)std::llround(duration / cfg.slice);
    const long long kill_slice =
        1 + (long long)(chaos.uniform() * double(total_slices - 1));

    Fleet ref(cfg);
    ref.run(0.0, pool); // build nodes so the auditors can attach
    auto ref_auditors = armFleetAuditors(ref);
    ref.run(duration, pool);
    const auto want = fleetEndState(ref);

    std::vector<std::uint8_t> snapshot;
    {
        Fleet victim(cfg);
        victim.run(0.0, pool);
        auto victim_auditors = armFleetAuditors(victim);
        victim.run(double(kill_slice) * cfg.slice, pool);
        snapshot = fleetEndState(victim);
        if (!reportFleetAuditors("victim", victim_auditors))
            return false;
    }

    Fleet revived(cfg);
    StateReader r(snapshot);
    revived.restore(r, pool);
    auto revived_auditors = armFleetAuditors(revived);
    revived.run(double(total_slices - kill_slice) * cfg.slice, pool);
    const auto got = fleetEndState(revived);

    const bool state_ok = got == want;
    const bool audit_ok =
        reportFleetAuditors("reference", ref_auditors) &&
        reportFleetAuditors("revived", revived_auditors);
    std::printf("fleet trial %u  %u chips     kill@%6.2fs/%5.2fs  "
                "snapshot %6zu B  end state %s\n",
                trial, cfg.numChips, double(kill_slice) * cfg.slice,
                duration, snapshot.size(),
                state_ok ? "MATCH" : "MISMATCH");
    if (!state_ok)
        dumpFailureArtifact("chaos_fleet_trial" + std::to_string(trial),
                            snapshot);
    return state_ok && audit_ok;
}

/**
 * Scale-fleet flavor: the correlated-event script plus the health
 * lifecycle keeps chips cycling through quarantine/self-test/probation
 * for the whole horizon, so the random kill exercises the v4 snapshot
 * payload (health FSM, retry queue, injector event state, domain
 * attribution) rather than a quiescent fleet.
 */
ScaleFleetConfig
chaosScaleConfig(std::uint64_t seed)
{
    ScaleFleetConfig cfg;
    cfg.numChips = 96;
    cfg.seed = seed;
    cfg.policy = SchedulerPolicy::roundRobin;
    cfg.slice = 0.1;
    cfg.horizon = 1e9; // trials pick their own horizon
    cfg.traffic.baseArrivalsPerSecond = 1.6 * double(cfg.numChips);
    cfg.traffic.users = cfg.numChips * 20;
    cfg.traffic.firstArrival = 0.5;
    cfg.traffic.seed = mix64(seed, 0xF00D);
    JobClass critical;
    critical.name = "critical";
    critical.arrivalWeight = 2.0;
    critical.meanServiceTime = 0.5;
    critical.minServiceTime = 0.1;
    critical.deadline = 2.0;
    critical.latencyCritical = true;
    critical.maxRetries = 2;
    critical.retryBackoff = 0.2;
    critical.hedge = true;
    JobClass batch;
    batch.name = "batch";
    batch.arrivalWeight = 1.0;
    batch.meanServiceTime = 2.0;
    batch.minServiceTime = 0.2;
    batch.deadline = 15.0;
    cfg.traffic.classes = {critical, batch};
    cfg.chip.recoveryPenalty = 2.0;
    cfg.governor.fleetBudget = 20.0 * double(cfg.numChips);
    cfg.governor.interval = 0.5;
    cfg.governor.minChipCap = 2.0;
    // Dense event script: small domains, storms every few seconds.
    cfg.chaos.railGroupSize = 8;
    cfg.chaos.railDroopsPerHour = 240.0;
    cfg.chaos.railDroopMagnitudeMv = 45.0;
    cfg.chaos.railDroopDuration = 1.5;
    cfg.chaos.rackSize = 16;
    cfg.chaos.dueStormsPerHour = 360.0;
    cfg.chaos.dueStormRate = 3.0;
    cfg.chaos.dueStormDuration = 2.0;
    cfg.chaos.thermalZoneSize = 32;
    cfg.chaos.thermalEventsPerHour = 120.0;
    cfg.chaos.thermalMarginPenaltyMv = 25.0;
    cfg.chaos.thermalDuration = 3.0;
    cfg.health.enabled = true;
    cfg.health.windowTau = 2.0;
    cfg.health.degradeRate = 0.3;
    cfg.health.quarantineRate = 1.0;
    cfg.health.quarantineHold = 0.3;
    cfg.health.selfTestDuration = 1.0;
    cfg.health.probationDuration = 2.0;
    cfg.auditEverySlices = 10;
    return cfg;
}

std::vector<std::uint8_t>
scaleEndState(const ShardedFleet &fleet)
{
    StateWriter w;
    fleet.snapshot(w);
    return w.finish();
}

bool
reportScaleAudit(const char *label, const ShardedFleet &fleet)
{
    if (fleet.auditViolations().empty())
        return true;
    std::printf("  %s: %zu invariant violations\n", label,
                fleet.auditViolations().size());
    for (const std::string &message : fleet.auditViolations())
        std::printf("    %s\n", message.c_str());
    return false;
}

/** One scale-fleet kill/restore trial at slice granularity. */
bool
scaleTrial(unsigned trial, std::uint64_t seed, Seconds duration,
           Rng &chaos, ExperimentPool &pool)
{
    const ScaleFleetConfig cfg = chaosScaleConfig(seed);
    const long long total_slices =
        (long long)std::llround(duration / cfg.slice);
    const long long kill_slice =
        1 + (long long)(chaos.uniform() * double(total_slices - 1));

    ShardedFleet ref(cfg);
    ref.run(duration, pool);
    ref.audit();
    const auto want = scaleEndState(ref);

    std::vector<std::uint8_t> snapshot;
    unsigned offline_at_kill = 0;
    {
        ShardedFleet victim(cfg);
        victim.run(double(kill_slice) * cfg.slice, pool);
        snapshot = scaleEndState(victim);
        offline_at_kill = victim.report().offlineChipsAtEnd;
        if (!reportScaleAudit("victim", victim))
            return false;
    }

    ShardedFleet revived(cfg);
    StateReader r(snapshot);
    revived.restore(r);
    revived.run(double(total_slices - kill_slice) * cfg.slice, pool);
    revived.audit();
    const auto got = scaleEndState(revived);

    const bool state_ok = got == want;
    const bool audit_ok = reportScaleAudit("reference", ref) &&
                          reportScaleAudit("revived", revived);
    std::printf("scale trial %u  %u chips    kill@%6.2fs/%5.2fs  "
                "snapshot %6zu B  %u offline at kill  end state %s\n",
                trial, cfg.numChips, double(kill_slice) * cfg.slice,
                duration, snapshot.size(), offline_at_kill,
                state_ok ? "MATCH" : "MISMATCH");
    if (!state_ok)
        dumpFailureArtifact("chaos_scale_trial" + std::to_string(trial),
                            snapshot);
    return state_ok && audit_ok;
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    const unsigned trials = unsigned(
        parseDoubleArg(argc, argv, "trials", 3.0));
    const Seconds duration =
        parseDoubleArg(argc, argv, "duration", 12.0);
    const std::uint64_t seed = std::uint64_t(
        parseDoubleArg(argc, argv, "seed", 1337.0));
    artifactDir = parseStringArg(argc, argv, "artifact-dir", "");
    ExperimentPool pool(parseThreads(argc, argv));

    banner("Chaos campaign",
           "kill at a random tick, restore, demand a bit-identical "
           "end state");

    bool ok = true;
    Rng chaos(mix64(seed, 0xC4A05ULL));
    for (unsigned t = 0; t < trials; ++t) {
        const std::uint64_t trial_seed = mix64(seed, t);
        ok = chipTrial(t, trial_seed, SamplingMode::exact, duration,
                       chaos) &&
             ok;
        ok = chipTrial(t, trial_seed, SamplingMode::chipBatched, duration,
                       chaos) &&
             ok;
        ok = fleetTrial(t, trial_seed, duration / 2.0, chaos, pool) &&
             ok;
        ok = scaleTrial(t, trial_seed, duration / 2.0, chaos, pool) &&
             ok;
    }

    std::printf("\nchaos campaign: %s\n",
                ok ? "all trials matched" : "FAILURES (see above)");
    return ok ? 0 : 1;
}
