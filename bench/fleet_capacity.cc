/**
 * @file
 * Fleet capacity experiment: a 4-chip datacenter row under a shared
 * power budget, one run per scheduling policy against the identical
 * deterministic job stream.
 *
 * This is the extension experiment the fleet layer exists for: the
 * paper's ECC-guided control loop earns a different safe undervolt
 * depth on every chip (process variation), and a scheduler that can see
 * that headroom places work on the cheapest cores in the row. Expected
 * shape: margin-aware beats round-robin on energy per job at
 * equal-or-better p99 latency under the same cap.
 *
 * Options:
 *   --threads N   worker threads (0 = hardware concurrency). Results
 *                 are byte-identical for every N.
 *   --json        machine-readable output.
 *   --duration S  simulated seconds per policy (default 16; the golden
 *                 regression tests use a shorter run).
 *
 * The campaign is checkpointable at scheduling-slice granularity; a
 * run killed at any slice and resumed is byte-identical to the
 * uninterrupted run, for any worker-thread count:
 *   --sampling exact|chip-batched
 *                 per-node fidelity (default exact). chip-batched
 *                 collapses each chip (row mode) or each margin bucket
 *                 of a shard (scale mode) to one aggregate draw pair
 *                 per slice.
 *   --checkpoint FILE          snapshot target path
 *   --checkpoint-every T       snapshot cadence, in global simulated
 *                              seconds (accumulated across policies)
 *   --halt-at T                stop at global simulated second T,
 *                              snapshot, exit 0 without printing
 *                              results for the interrupted policy
 *   --resume FILE              reload completed policies and the
 *                              in-flight fleet, run to completion
 *
 * Datacenter scale (the hot SoA path, see fleet/shard.hh):
 *   --chips N         run the sharded scale fleet with N chips instead
 *                     of the 4-chip full-simulation row. Same policy
 *                     sweep, same deterministic guarantee (the report
 *                     is byte-identical for every --threads value);
 *                     traffic comes from the diurnal + flash-crowd +
 *                     closed-loop TrafficGenerator over a multi-million
 *                     user population. Checkpoint flags do not apply.
 *   --latency-exact   arm the exact-histogram validation mode in every
 *                     metrics shard and assert that the sketch p50/p99
 *                     agree with the exact-histogram quantiles within
 *                     the documented quantization bounds.
 *   --perf FILE       write wall-clock throughput (chip-slices/s) as
 *                     JSON to FILE, with a cold Fleet::run as the
 *                     reference (its construction, the calibration, is
 *                     not timed). Perf numbers are non-deterministic,
 *                     so they never go to the byte-compared stdout.
 */

#include <chrono>
#include <cmath>
#include <fstream>
#include <optional>

#include "bench_util.hh"
#include "fleet/shard.hh"

using namespace vspec;
using namespace vspec_bench;

namespace
{

FleetConfig
capacityConfig(SchedulerPolicy policy)
{
    FleetConfig cfg;
    cfg.numChips = 4;
    cfg.seed = evalSeed;
    cfg.chip = makeLowConfig();
    cfg.policy = policy;

    // Open-loop stream: ~75% interactive / 25% batch at 8 jobs/s
    // across 32 cores keeps the row busy without saturating it. The
    // stream opens after a 6 s warmup so every chip's ECC control
    // loops have settled into their per-domain equilibria — the
    // headroom ordering the margin-aware policy exploits is process
    // variation, not the transient of the initial descent.
    cfg.jobs.arrivalsPerSecond = 8.0;
    cfg.jobs.firstArrival = 6.0;
    cfg.jobs.seed = 0xCAFE;

    // Row budget below the ~4 x 25 W nominal draw: the governor has to
    // redistribute, and a policy that wastes joules hits the cap.
    cfg.governor.fleetBudget = 88.0;
    cfg.governor.interval = 0.5;
    cfg.governor.minChipCap = 5.0;

    cfg.recovery.checkpointInterval = 1.0;
    cfg.recovery.recoveryLatency = 0.25;
    return cfg;
}

struct PolicyResult
{
    SchedulerPolicy policy;
    FleetReport report;
};

const std::vector<SchedulerPolicy> &
policyOrder()
{
    static const std::vector<SchedulerPolicy> policies = {
        SchedulerPolicy::roundRobin, SchedulerPolicy::leastLoaded,
        SchedulerPolicy::marginAware, SchedulerPolicy::riskAware};
    return policies;
}

void
saveReport(StateWriter &w, const FleetReport &r)
{
    w.putDouble(r.simulated);
    w.putU64(r.submitted);
    w.putU64(r.completed);
    w.putU64(r.completedCritical);
    w.putU64(r.requeued);
    w.putU64(r.pendingAtEnd);
    w.putU64(r.runningAtEnd);
    w.putU64(r.slaViolations);
    w.putDouble(r.throughputPerSec);
    w.putDouble(r.meanLatency);
    w.putDouble(r.p50Latency);
    w.putDouble(r.p99Latency);
    w.putDouble(r.fleetEnergy);
    w.putDouble(r.energyPerJob);
    w.putDouble(r.meanFleetPower);
    w.putDouble(r.availability);
    w.putU64(r.recoveries);
    w.putU64(r.abandonedCores);
    w.putU64(r.throttleEpisodes);
    w.putU64(r.injectedBitFlips);
    w.putU64(r.injectedDues);
}

FleetReport
loadReport(StateReader &r)
{
    FleetReport report;
    report.simulated = r.getDouble();
    report.submitted = r.getU64();
    report.completed = r.getU64();
    report.completedCritical = r.getU64();
    report.requeued = r.getU64();
    report.pendingAtEnd = r.getU64();
    report.runningAtEnd = r.getU64();
    report.slaViolations = r.getU64();
    report.throughputPerSec = r.getDouble();
    report.meanLatency = r.getDouble();
    report.p50Latency = r.getDouble();
    report.p99Latency = r.getDouble();
    report.fleetEnergy = r.getDouble();
    report.energyPerJob = r.getDouble();
    report.meanFleetPower = r.getDouble();
    report.availability = r.getDouble();
    report.recoveries = r.getU64();
    report.abandonedCores = unsigned(r.getU64());
    report.throttleEpisodes = r.getU64();
    report.injectedBitFlips = r.getU64();
    report.injectedDues = r.getU64();
    return report;
}

/** @p fleet is null at a policy boundary (no in-flight run). */
void
writeCheckpoint(const std::string &path, SamplingMode sampling,
                Seconds duration,
                const std::vector<PolicyResult> &results,
                const Fleet *fleet)
{
    StateWriter w;
    w.beginSection("bench");
    w.putString("fleet_capacity");
    w.putU8(std::uint8_t(sampling));
    w.putDouble(duration);
    w.putU64(results.size());
    w.putBool(fleet != nullptr);
    w.endSection();
    w.beginSection("reports");
    for (const PolicyResult &res : results)
        saveReport(w, res.report);
    w.endSection();
    if (fleet)
        fleet->snapshot(w);
    w.writeFile(path);
}

/**
 * Scale-fleet configuration: every rate scales linearly with the chip
 * count, so the per-chip operating point (utilization ~35%, a governor
 * budget ~10% under the nominal fleet draw) is the same at 1k and 100k
 * chips and policy comparisons stay meaningful across sizes.
 */
ScaleFleetConfig
scaleConfig(unsigned chips, Seconds duration, SchedulerPolicy policy,
            bool latency_exact, SamplingMode sampling)
{
    ScaleFleetConfig cfg;
    cfg.numChips = chips;
    cfg.seed = evalSeed;
    cfg.policy = policy;
    cfg.slice = 0.1;
    cfg.horizon = duration;
    cfg.exactLatencyValidation = latency_exact;
    cfg.sampling = sampling;

    // ~1.85 open-loop + ~0.15 closed-loop jobs/s per chip against 8
    // cores at 1.4 s mean service: ~35% utilization before the diurnal
    // swing and flash crowds push on it. The stream opens after a 5 s
    // warmup so placement sees settled (earned) rails.
    cfg.traffic.baseArrivalsPerSecond = 1.85 * double(chips);
    cfg.traffic.users = std::uint64_t(chips) * 20;
    cfg.traffic.hotSessionFraction = 0.1;
    cfg.traffic.hotSessions = std::max<std::uint64_t>(64, chips / 2);
    cfg.traffic.diurnalAmplitude = 0.25;
    cfg.traffic.diurnalPeriod = 20.0;
    cfg.traffic.flashesPerHour = 240.0;
    cfg.traffic.flashMagnitude = 1.5;
    cfg.traffic.flashDecayTau = 5.0;
    cfg.traffic.closedUsers = 0.3 * double(chips);
    cfg.traffic.thinkTime = 2.0;
    cfg.traffic.firstArrival = 5.0;
    cfg.traffic.seed = 0xCAFE;

    // Budget under the ~10.6 W/chip nominal draw, so the governor has
    // demand to arbitrate at every size.
    cfg.governor.fleetBudget = 9.5 * double(chips);
    cfg.governor.interval = 0.5;
    cfg.governor.minChipCap = 2.0;
    return cfg;
}

/**
 * Sketch-vs-exact quantile agreement: both estimators name the bin of
 * the same ceil(q*n)-th order statistic v, the sketch within
 * relativeErrorBound()*v (log bins) and the histogram within half a
 * linear bin (0.05 s at the 0.1 s default). Returns false (and
 * complains on stderr) when the difference exceeds the two bounds.
 */
bool
checkSketchAgainstExact(const FleetMetrics &merged, double q,
                        const char *policy)
{
    const Seconds sketch_q = merged.latencyQuantile(q);
    const Seconds exact_q = merged.exactLatencyQuantile(q);
    const Histogram &hist = merged.latencyHistogram();
    const Seconds half_bin = 0.5 * (hist.binHigh(0) - hist.binLow(0));
    if (exact_q + half_bin >= hist.binHigh(hist.numBins() - 1))
        return true; // exact estimate saturated its range cap
    const double bound =
        merged.latencySketch().relativeErrorBound() *
            (exact_q + half_bin) +
        half_bin;
    if (std::abs(sketch_q - exact_q) <= bound)
        return true;
    std::fprintf(stderr,
                 "latency validation failed (%s): sketch p%.0f "
                 "%.6f s vs exact %.6f s exceeds bound %.6f s\n",
                 policy, 100.0 * q, sketch_q, exact_q, bound);
    return false;
}

int
runScale(unsigned chips, Seconds duration, unsigned threads, bool json,
         bool latency_exact, SamplingMode sampling,
         const std::string &perf_path)
{
    ExperimentPool pool(threads);
    std::vector<PolicyResult> results;
    std::uint64_t total_slices = 0;
    const auto wall_start = std::chrono::steady_clock::now();

    if (!json) {
        banner("Fleet capacity (scale)",
               "sharded SoA fleet, shared power cap, one run per "
               "policy");
        std::printf("%u chips, duration %.0f s (first 5 s warmup), "
                    "%.0f jobs/s open-loop, %.0f kW budget\n\n",
                    chips, duration, 1.85 * double(chips),
                    9.5 * double(chips) / 1000.0);
        std::printf("%-14s %10s %9s %9s %9s %10s %10s %7s\n", "policy",
                    "completed", "p50 (s)", "p99 (s)", "SLA-miss",
                    "energy/job", "mean kW", "thrott");
    }

    for (SchedulerPolicy policy : policyOrder()) {
        ShardedFleet fleet(scaleConfig(chips, duration, policy,
                                       latency_exact, sampling));
        fleet.run(duration, pool);
        total_slices +=
            std::uint64_t(std::llround(duration / 0.1)) * chips;
        if (latency_exact) {
            const FleetMetrics merged = fleet.mergedMetrics();
            if (!checkSketchAgainstExact(merged, 0.50,
                                         policyName(policy)) ||
                !checkSketchAgainstExact(merged, 0.99,
                                         policyName(policy)))
                return 1;
        }
        results.push_back({policy, fleet.report()});
        if (!json) {
            const FleetReport &r = results.back().report;
            std::printf("%-14s %10llu %9.3f %9.3f %9llu %9.2fJ "
                        "%10.1f %7llu\n",
                        policyName(policy),
                        (unsigned long long)r.completed, r.p50Latency,
                        r.p99Latency,
                        (unsigned long long)r.slaViolations,
                        r.energyPerJob, r.meanFleetPower / 1000.0,
                        (unsigned long long)r.throttleEpisodes);
        }
    }

    const double wall_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    if (json) {
        JsonWriter doc;
        doc.beginObject();
        doc.key("artifact").value("fleet_capacity");
        doc.key("mode").value("scale");
        doc.key("numChips").value(std::uint64_t(chips));
        doc.key("durationSec").value(duration);
        doc.key("fleetBudgetWatts").value(9.5 * double(chips));
        doc.key("policies").beginArray();
        for (const PolicyResult &res : results) {
            const FleetReport &r = res.report;
            doc.beginObject();
            doc.key("policy").value(policyName(res.policy));
            doc.key("submitted").value(r.submitted);
            doc.key("completed").value(r.completed);
            doc.key("completedCritical").value(r.completedCritical);
            doc.key("pendingAtEnd").value(r.pendingAtEnd);
            doc.key("slaViolations").value(r.slaViolations);
            doc.key("throughputPerSec").value(r.throughputPerSec);
            doc.key("meanLatencySec").value(r.meanLatency);
            doc.key("p50LatencySec").value(r.p50Latency);
            doc.key("p99LatencySec").value(r.p99Latency);
            doc.key("fleetEnergyJoules").value(r.fleetEnergy);
            doc.key("energyPerJobJoules").value(r.energyPerJob);
            doc.key("meanFleetPowerWatts").value(r.meanFleetPower);
            doc.key("availability").value(r.availability);
            doc.key("recoveries").value(r.recoveries);
            doc.key("throttleEpisodes").value(r.throttleEpisodes);
            doc.endObject();
        }
        doc.endArray();
        doc.endObject();
        doc.print();
    }

    if (!perf_path.empty()) {
        // Reference measurement: the cold (full-simulation) fleet's
        // chip-slice throughput on this same machine. Absolute wall
        // times are runner-dependent; the hot/cold throughput ratio is
        // a ratio of two measurements on the same hardware, so it is
        // the number the CI perf gate can hold to a threshold.
        // Only run() is timed: construction calibrates every die, and a
        // faster calibration must not move the ratio.
        const Seconds cold_duration = 4.0;
        FleetConfig cold_cfg =
            capacityConfig(SchedulerPolicy::roundRobin);
        Fleet cold_fleet(cold_cfg);
        const auto cold_start = std::chrono::steady_clock::now();
        cold_fleet.run(cold_duration, pool);
        const double cold_wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - cold_start)
                .count();
        const double cold_slices =
            double(cold_cfg.numChips) * (cold_duration / cold_cfg.slice);
        const double cold_rate =
            cold_wall > 0.0 ? cold_slices / cold_wall : 0.0;
        const double hot_rate =
            wall_sec > 0.0 ? double(total_slices) / wall_sec : 0.0;

        JsonWriter perf;
        perf.beginObject();
        perf.key("artifact").value("fleet_capacity_scale_perf");
        perf.key("numChips").value(std::uint64_t(chips));
        perf.key("durationSec").value(duration);
        perf.key("policies").value(std::uint64_t(results.size()));
        perf.key("wallSec").value(wall_sec);
        perf.key("chipSlicesPerSec").value(hot_rate);
        perf.key("coldChipSlicesPerSec").value(cold_rate);
        perf.key("hotVsColdSpeedup")
            .value(cold_rate > 0.0 ? hot_rate / cold_rate : 0.0);
        perf.endObject();
        std::ofstream out(perf_path);
        out << perf.str() << "\n";
        if (!out) {
            std::fprintf(stderr, "cannot write perf file '%s'\n",
                         perf_path.c_str());
            return 1;
        }
    }
    return 0;
}

void
printPolicyRow(SchedulerPolicy policy, const FleetReport &r)
{
    std::printf("%-14s %9llu %9.2f %9.2f %9llu %9.1fJ %8.1f "
                "%7llu\n",
                policyName(policy),
                (unsigned long long)r.completed, r.p50Latency,
                r.p99Latency, (unsigned long long)r.slaViolations,
                r.energyPerJob, r.meanFleetPower,
                (unsigned long long)r.throttleEpisodes);
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    const unsigned threads = parseThreads(argc, argv);
    const bool json = parseJson(argc, argv);
    SamplingMode sampling = parseSampling(argc, argv);
    Seconds duration = parseDoubleArg(argc, argv, "duration", 16.0);
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

    const double chips_arg = parseDoubleArg(argc, argv, "chips", 0.0);
    if (chips_arg > 0.0) {
        if (!snap_path.empty() || !resume_path.empty()) {
            std::fprintf(stderr, "--chips (scale mode) does not take "
                                 "checkpoint/resume flags; snapshotting "
                                 "the sharded fleet is a library-level "
                                 "operation\n");
            return 2;
        }
        return runScale(unsigned(chips_arg), duration, threads, json,
                        parseBoolFlag(argc, argv, "latency-exact"),
                        sampling,
                        parseStringArg(argc, argv, "perf", ""));
    }

    ExperimentPool pool(threads);
    std::vector<PolicyResult> results;
    std::size_t start_policy = 0;
    bool resume_fleet = false;
    std::optional<StateReader> reader;
    try {
        if (!resume_path.empty()) {
            // The snapshot's sampling mode and per-policy duration win
            // over the command line: the remaining slices must extend
            // the same replay stream the snapshot was taken under.
            reader.emplace(StateReader::fromFile(resume_path));
            reader->beginSection("bench");
            const std::string bench = reader->getString();
            if (bench != "fleet_capacity")
                throw SnapshotError("snapshot belongs to bench '" +
                                    bench + "', not fleet_capacity");
            sampling = samplingModeFromByte(reader->getU8());
            duration = reader->getDouble();
            const std::uint64_t n_reports = reader->getU64();
            resume_fleet = reader->getBool();
            reader->endSection();
            if (n_reports > policyOrder().size())
                throw SnapshotError("snapshot reports more completed "
                                    "policies than the bench runs");
            reader->beginSection("reports");
            for (std::uint64_t i = 0; i < n_reports; ++i)
                results.push_back({policyOrder()[i], loadReport(*reader)});
            reader->endSection();
            start_policy = results.size();
            if (resume_fleet && start_policy >= policyOrder().size())
                throw SnapshotError("snapshot carries an in-flight "
                                    "fleet past the last policy");
        }
    } catch (const SnapshotError &e) {
        std::fprintf(stderr, "snapshot error: %s\n", e.what());
        return 1;
    }

    if (!json) {
        banner("Fleet capacity",
               "4-chip row, shared power cap, one run per policy");
        std::printf("duration %.0f s (first 6 s warmup), %0.f jobs/s "
                    "open-loop, %.0f W row budget\n\n",
                    duration,
                    capacityConfig(SchedulerPolicy::roundRobin)
                        .jobs.arrivalsPerSecond,
                    capacityConfig(SchedulerPolicy::roundRobin)
                        .governor.fleetBudget);
        std::printf("%-14s %9s %9s %9s %9s %10s %8s %7s\n", "policy",
                    "completed", "p50 (s)", "p99 (s)", "SLA-miss",
                    "energy/job", "mean W", "thrott");
        for (const PolicyResult &res : results)
            printPolicyRow(res.policy, res.report);
    }

    // All slice math stays on the scheduling-slice grid so a halted
    // and resumed run takes exactly the same Fleet::run step sequence
    // as the uninterrupted one.
    const Seconds slice = capacityConfig(SchedulerPolicy::roundRobin).slice;
    const long long slices_per_policy =
        (long long)std::llround(duration / slice);
    const long long halt_slice =
        halt_at > 0.0 ? (long long)std::llround(halt_at / slice) : -1;
    const long long ckpt_slices =
        ckpt_every > 0.0
            ? std::max(1LL, (long long)std::llround(ckpt_every / slice))
            : 0;
    const long long total_slices =
        slices_per_policy * (long long)policyOrder().size();

    try {
        for (std::size_t pi = start_policy; pi < policyOrder().size();
             ++pi) {
            FleetConfig cfg = capacityConfig(policyOrder()[pi]);
            cfg.sampling = sampling;
            Fleet fleet(cfg);
            long long cur = 0;
            if (reader && resume_fleet && pi == start_policy) {
                fleet.restore(*reader, pool);
                cur = (long long)std::llround(fleet.now() / slice);
                reader.reset();
            }
            while (cur < slices_per_policy) {
                const long long base = (long long)pi * slices_per_policy;
                long long target = slices_per_policy;
                if (halt_slice > base && halt_slice < total_slices)
                    target = std::min(target, halt_slice - base);
                if (ckpt_slices > 0)
                    target = std::min(
                        target, ((base + cur) / ckpt_slices + 1) *
                                        ckpt_slices -
                                    base);
                fleet.run(double(target - cur) * slice, pool);
                cur = target;
                const bool at_halt =
                    halt_slice >= 0 && base + cur >= halt_slice &&
                    base + cur < total_slices;
                if (at_halt && cur < slices_per_policy) {
                    writeCheckpoint(snap_path, sampling, duration,
                                    results, &fleet);
                    return 0;
                }
                if (at_halt) // halted exactly on the policy boundary
                    break;
                if (ckpt_slices > 0 && cur < slices_per_policy)
                    writeCheckpoint(snap_path, sampling, duration,
                                    results, &fleet);
            }
            results.push_back({policyOrder()[pi], fleet.report()});
            if (halt_slice >= 0 &&
                (long long)(pi + 1) * slices_per_policy >= halt_slice &&
                (long long)(pi + 1) * slices_per_policy < total_slices) {
                writeCheckpoint(snap_path, sampling, duration, results,
                                nullptr);
                return 0;
            }
            if (!json)
                printPolicyRow(results.back().policy,
                               results.back().report);
        }
    } catch (const SnapshotError &e) {
        std::fprintf(stderr, "snapshot error: %s\n", e.what());
        return 1;
    }

    if (json) {
        JsonWriter doc;
        doc.beginObject();
        doc.key("artifact").value("fleet_capacity");
        doc.key("durationSec").value(duration);
        doc.key("numChips")
            .value(capacityConfig(SchedulerPolicy::roundRobin).numChips);
        doc.key("fleetBudgetWatts")
            .value(capacityConfig(SchedulerPolicy::roundRobin)
                       .governor.fleetBudget);
        doc.key("policies").beginArray();
        for (const PolicyResult &res : results) {
            const FleetReport &r = res.report;
            doc.beginObject();
            doc.key("policy").value(policyName(res.policy));
            doc.key("submitted").value(r.submitted);
            doc.key("completed").value(r.completed);
            doc.key("completedCritical").value(r.completedCritical);
            doc.key("requeued").value(r.requeued);
            doc.key("slaViolations").value(r.slaViolations);
            doc.key("throughputPerSec").value(r.throughputPerSec);
            doc.key("meanLatencySec").value(r.meanLatency);
            doc.key("p50LatencySec").value(r.p50Latency);
            doc.key("p99LatencySec").value(r.p99Latency);
            doc.key("fleetEnergyJoules").value(r.fleetEnergy);
            doc.key("energyPerJobJoules").value(r.energyPerJob);
            doc.key("meanFleetPowerWatts").value(r.meanFleetPower);
            doc.key("availability").value(r.availability);
            doc.key("recoveries").value(r.recoveries);
            doc.key("abandonedCores").value(std::uint64_t(r.abandonedCores));
            doc.key("throttleEpisodes").value(r.throttleEpisodes);
            doc.endObject();
        }
        doc.endArray();
        doc.endObject();
        doc.print();
        return 0;
    }

    // The headline comparison of the experiment.
    const FleetReport *rr = nullptr;
    const FleetReport *margin = nullptr;
    for (const PolicyResult &res : results) {
        if (res.policy == SchedulerPolicy::roundRobin)
            rr = &res.report;
        if (res.policy == SchedulerPolicy::marginAware)
            margin = &res.report;
    }
    if (rr && margin && rr->energyPerJob > 0.0) {
        std::printf("\nmargin-aware vs round-robin: %+.1f%% energy/job, "
                    "p99 %.2f s vs %.2f s\n",
                    100.0 * (margin->energyPerJob / rr->energyPerJob - 1.0),
                    margin->p99Latency, rr->p99Latency);
    }
    return 0;
}
