/**
 * @file
 * Blast-radius experiment: correlated failure-domain events against a
 * naive fleet and a quarantine-enabled fleet, same event script.
 *
 * The per-chip resilience story (backoff, recovery, earned floors)
 * says nothing about the availability events that dominate at
 * datacenter scale: shared-rail droops, rack-wide DUE storms and
 * thermal excursions hit whole failure domains at once. This bench
 * runs the identical correlated-event campaign (same seed, same
 * domain layout, same governor budget) against two fleets:
 *
 *  - naive: chips grind through the storm in place — every DUE costs a
 *    recovery replay, the rail resets to nominal, and session affinity
 *    keeps routing work into the blast zone;
 *  - quarantine: the chip-health lifecycle drains stormed chips
 *    (backlog respreads over healthy capacity), runs a firmware
 *    self-test, and re-admits on probation; deadline-aware retries and
 *    hedged duplicates cover the latency-critical classes meanwhile.
 *
 * Expected shape: the quarantine fleet holds SLA misses strictly below
 * the naive fleet at the same energy budget, and the per-domain
 * blast-radius attribution in the JSON shows the misses concentrating
 * in the domains the event script actually hit. The bench exits 1 if
 * the quarantine fleet fails to beat the naive fleet, so CI holds the
 * headline claim, not just the format.
 *
 * Options:
 *   --threads N   worker threads (0 = hardware concurrency). Output is
 *                 byte-identical for every N.
 *   --json        machine-readable output.
 *   --chips N     fleet size (default 1536).
 *   --duration S  simulated seconds per variant (default 40).
 *   --sampling exact|chip-batched
 *                 hot-loop sampling granularity (default exact).
 */

#include <cmath>

#include "bench_util.hh"
#include "fleet/shard.hh"

using namespace vspec;
using namespace vspec_bench;

namespace
{

/**
 * The shared substrate of both variants: traffic, chip model, governor
 * budget and the correlated-event script are identical — the variants
 * differ only in the health FSM and the job classes' retry/hedge
 * budgets, so any delta in the reports is the robustness machinery.
 */
ScaleFleetConfig
blastConfig(unsigned chips, Seconds duration, SamplingMode sampling,
            bool guarded)
{
    ScaleFleetConfig cfg;
    cfg.numChips = chips;
    cfg.seed = evalSeed;
    cfg.policy = SchedulerPolicy::roundRobin;
    cfg.slice = 0.1;
    cfg.horizon = duration;
    cfg.sampling = sampling;

    // ~35% utilization before the storms push on it; the stream opens
    // after a 5 s warmup so placement sees settled (earned) rails.
    cfg.traffic.baseArrivalsPerSecond = 1.55 * double(chips);
    cfg.traffic.users = std::uint64_t(chips) * 20;
    cfg.traffic.hotSessionFraction = 0.02;
    cfg.traffic.hotSessions = std::max<std::uint64_t>(64, chips / 2);
    cfg.traffic.closedUsers = 0.3 * double(chips);
    cfg.traffic.thinkTime = 2.0;
    cfg.traffic.firstArrival = 5.0;
    cfg.traffic.seed = 0xCAFE;

    // Two classes: a latency-critical interactive stream with a tight
    // deadline (the SLA the storms threaten) over loose batch work.
    // The class mix and distributions are identical in both variants —
    // retry/hedge budgets do not perturb the traffic streams.
    JobClass interactive;
    interactive.name = "interactive";
    interactive.arrivalWeight = 3.0;
    interactive.meanServiceTime = 0.6;
    interactive.minServiceTime = 0.1;
    interactive.deadline = 3.0;
    interactive.latencyCritical = true;
    interactive.suite = Suite::coreMark;
    JobClass batch;
    batch.name = "batch";
    batch.arrivalWeight = 1.0;
    batch.meanServiceTime = 2.5;
    batch.minServiceTime = 0.25;
    batch.deadline = 20.0;
    batch.suite = Suite::specFp2000;
    if (guarded) {
        interactive.maxRetries = 2;
        interactive.retryBackoff = 0.2;
        interactive.hedge = true;
        batch.maxRetries = 1;
        batch.retryBackoff = 0.4;
    }
    cfg.traffic.classes = {interactive, batch};

    // DUE recoveries replay a full checkpoint interval: 4 core-seconds
    // per recovery. At the storm rate this overwhelms a chip's drain
    // capacity (10 core-s/s influx vs 8 core-s/s capacity), which is
    // the point — a stormed chip cannot serve its SLA in place.
    cfg.chip.recoveryPenalty = 4.0;

    // Equal energy budget for both variants. Generous enough that the
    // governor never throttles a stormed chip (a storm pins the rail
    // at nominal and the drain pushes utilization to 1, ~24 W) — the
    // power cap must not silently do the quarantine FSM's job, or the
    // naive/guarded comparison measures the governor, not the health
    // lifecycle.
    cfg.governor.fleetBudget = 20.0 * double(chips);
    cfg.governor.interval = 0.5;
    cfg.governor.minChipCap = 2.0;

    // The correlated-event script — identical RNG streams in both
    // variants (forked off the fleet seed, one per kind).
    cfg.chaos.railGroupSize = 32;
    cfg.chaos.railDroopsPerHour = 20.0;
    cfg.chaos.railDroopMagnitudeMv = 45.0;
    cfg.chaos.railDroopDuration = 3.0;
    cfg.chaos.rackSize = 64;
    cfg.chaos.dueStormsPerHour = 24.0;
    cfg.chaos.dueStormRate = 2.5;
    cfg.chaos.dueStormDuration = 5.0;
    cfg.chaos.thermalZoneSize = 128;
    cfg.chaos.thermalEventsPerHour = 10.0;
    cfg.chaos.thermalMarginPenaltyMv = 25.0;
    cfg.chaos.thermalDuration = 6.0;

    if (guarded) {
        cfg.health.enabled = true;
        cfg.health.windowTau = 3.0;
        cfg.health.degradeRate = 0.3;
        cfg.health.quarantineRate = 1.0;
        cfg.health.healthyRate = 0.1;
        cfg.health.quarantineHold = 1.0;
        cfg.health.selfTestDuration = 4.0;
        cfg.health.selfTestBoostMv = 50.0;
        cfg.health.probationDuration = 5.0;
        cfg.retryWatchdog = 2.0;
        cfg.hedgeLoserFraction = 0.25;
        cfg.auditEverySlices = 50;
    }
    return cfg;
}

struct VariantResult
{
    const char *name;
    FleetReport report;
};

void
emitReport(JsonWriter &doc, const FleetReport &r)
{
    doc.key("submitted").value(r.submitted);
    doc.key("completed").value(r.completed);
    doc.key("completedCritical").value(r.completedCritical);
    doc.key("pendingAtEnd").value(r.pendingAtEnd);
    doc.key("inRetryAtEnd").value(r.inRetryAtEnd);
    doc.key("slaViolations").value(r.slaViolations);
    doc.key("p50LatencySec").value(r.p50Latency);
    doc.key("p99LatencySec").value(r.p99Latency);
    doc.key("fleetEnergyJoules").value(r.fleetEnergy);
    doc.key("energyPerJobJoules").value(r.energyPerJob);
    doc.key("meanFleetPowerWatts").value(r.meanFleetPower);
    doc.key("availability").value(r.availability);
    doc.key("recoveries").value(r.recoveries);
    doc.key("quarantines").value(r.quarantines);
    doc.key("readmissions").value(r.readmissions);
    doc.key("offlineChipsAtEnd")
        .value(std::uint64_t(r.offlineChipsAtEnd));
    doc.key("drainedCoreSeconds").value(r.drainedCoreSeconds);
    doc.key("retries").value(r.retries);
    doc.key("hedgedJobs").value(r.hedgedJobs);
    doc.key("watchdogForced").value(r.watchdogForced);
    doc.key("throttleEpisodes").value(r.throttleEpisodes);
    doc.key("blastRadius").beginArray();
    for (const FleetReport::DomainImpact &row : r.domainImpact) {
        doc.beginObject();
        doc.key("kind").value(failureDomainKindName(row.kind));
        doc.key("domain").value(std::uint64_t(row.domain));
        doc.key("events").value(row.events);
        doc.key("dues").value(row.dues);
        doc.key("quarantines").value(row.quarantines);
        doc.key("slaMisses").value(row.slaMisses);
        doc.key("offlineCoreSeconds").value(row.offlineCoreSeconds);
        doc.endObject();
    }
    doc.endArray();
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    const unsigned threads = parseThreads(argc, argv);
    const bool json = parseJson(argc, argv);
    const SamplingMode sampling = parseSampling(argc, argv);
    const Seconds duration =
        parseDoubleArg(argc, argv, "duration", 40.0);
    const unsigned chips =
        unsigned(parseDoubleArg(argc, argv, "chips", 1536.0));
    if (chips == 0) {
        std::fprintf(stderr, "--chips must be positive\n");
        return 2;
    }

    ExperimentPool pool(threads);
    std::vector<VariantResult> results;

    if (!json) {
        banner("Blast radius",
               "correlated failure-domain events, naive vs "
               "quarantine-enabled fleet");
        std::printf("%u chips, duration %.0f s, identical event script "
                    "and %.0f kW budget per variant\n\n",
                    chips, duration, 9.5 * double(chips) / 1000.0);
        std::printf("%-12s %10s %9s %9s %9s %10s %7s %7s %7s\n",
                    "variant", "completed", "p99 (s)", "SLA-miss",
                    "recover", "energy/job", "quarant", "retries",
                    "hedged");
    }

    for (const bool guarded : {false, true}) {
        ScaleFleetConfig cfg =
            blastConfig(chips, duration, sampling, guarded);
        ShardedFleet fleet(cfg);
        fleet.run(duration, pool);
        if (guarded) {
            fleet.audit();
            if (!fleet.auditViolations().empty()) {
                for (const std::string &v : fleet.auditViolations())
                    std::fprintf(stderr, "invariant violation: %s\n",
                                 v.c_str());
                return 1;
            }
        }
        results.push_back(
            {guarded ? "quarantine" : "naive", fleet.report()});
        if (!json) {
            const FleetReport &r = results.back().report;
            std::printf("%-12s %10llu %9.3f %9llu %9llu %9.2fJ "
                        "%7llu %7llu %7llu\n",
                        results.back().name,
                        (unsigned long long)r.completed, r.p99Latency,
                        (unsigned long long)r.slaViolations,
                        (unsigned long long)r.recoveries,
                        r.energyPerJob,
                        (unsigned long long)r.quarantines,
                        (unsigned long long)r.retries,
                        (unsigned long long)r.hedgedJobs);
        }
    }

    const FleetReport &naive = results[0].report;
    const FleetReport &guarded = results[1].report;

    if (json) {
        JsonWriter doc;
        doc.beginObject();
        doc.key("artifact").value("fig_blast_radius");
        doc.key("numChips").value(std::uint64_t(chips));
        doc.key("durationSec").value(duration);
        doc.key("sampling").value(samplingName(sampling));
        doc.key("fleetBudgetWatts").value(9.5 * double(chips));
        doc.key("variants").beginArray();
        for (const VariantResult &res : results) {
            doc.beginObject();
            doc.key("variant").value(res.name);
            emitReport(doc, res.report);
            doc.endObject();
        }
        doc.endArray();
        doc.key("comparison").beginObject();
        doc.key("slaMissReductionPct")
            .value(naive.slaViolations > 0
                       ? 100.0 * (1.0 - double(guarded.slaViolations) /
                                            double(naive.slaViolations))
                       : 0.0);
        doc.key("p99DeltaSec")
            .value(guarded.p99Latency - naive.p99Latency);
        doc.key("energyDeltaPct")
            .value(naive.fleetEnergy > 0.0
                       ? 100.0 * (guarded.fleetEnergy /
                                      naive.fleetEnergy -
                                  1.0)
                       : 0.0);
        doc.key("availabilityDelta")
            .value(guarded.availability - naive.availability);
        doc.endObject();
        doc.endObject();
        doc.print();
    } else {
        std::printf("\nquarantine vs naive: SLA misses %llu vs %llu "
                    "(%+.1f%%), p99 %.3f s vs %.3f s, energy %+.2f%%\n",
                    (unsigned long long)guarded.slaViolations,
                    (unsigned long long)naive.slaViolations,
                    naive.slaViolations > 0
                        ? 100.0 * (double(guarded.slaViolations) /
                                       double(naive.slaViolations) -
                                   1.0)
                        : 0.0,
                    guarded.p99Latency, naive.p99Latency,
                    naive.fleetEnergy > 0.0
                        ? 100.0 * (guarded.fleetEnergy /
                                       naive.fleetEnergy -
                                   1.0)
                        : 0.0);
    }

    // The headline claim is part of the artifact: the quarantine fleet
    // must hold SLA misses strictly below the naive fleet.
    if (guarded.slaViolations >= naive.slaViolations) {
        std::fprintf(stderr,
                     "blast-radius claim failed: quarantine fleet had "
                     "%llu SLA misses vs naive %llu\n",
                     (unsigned long long)guarded.slaViolations,
                     (unsigned long long)naive.slaViolations);
        return 1;
    }
    return 0;
}
