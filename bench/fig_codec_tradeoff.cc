/**
 * @file
 * Codec trade-off sweep: the same evaluation chip armed with each
 * member of the ECC codec zoo, plus a heterogeneous-tier fleet run.
 *
 * The experiment behind the codec-aware speculation floors: a stronger
 * code (BCH-2/BCH-3) tolerates orders of magnitude more correctable
 * events at the same uncorrectable budget, so the control loop earns a
 * measurably deeper mean Vdd than the SECDED baseline — paid for in
 * check-bit storage (and its leakage) and decode latency. Hsiao SECDED
 * is the control: identical correction strength to Hamming, identical
 * floors, cheaper decode.
 *
 * Phase 1 sweeps one chip per scheme on the worker pool (independent
 * tasks, byte-identical results for any --threads). Phase 2 runs the
 * fleet twice against the identical job stream: homogeneous Hamming
 * vs a heterogeneous row with BCH-2 on half the nodes.
 *
 * Options:
 *   --threads N          worker threads (0 = hardware concurrency)
 *   --json               machine-readable output
 *   --duration S         simulated seconds per scheme (default 30)
 *   --fleet-duration S   simulated seconds per fleet run (default 8)
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

namespace
{

const std::vector<EccScheme> &
schemeOrder()
{
    static const std::vector<EccScheme> schemes = {
        EccScheme::hamming, EccScheme::hsiao, EccScheme::bch2,
        EccScheme::bch3};
    return schemes;
}

struct SchemeResult
{
    EccScheme scheme;
    CodecTraits traits;
    double budgetScale = 0.0;
    Millivolt meanVddMv = 0.0;
    double meanReductionPct = 0.0;
    Watt meanChipPowerWatts = 0.0;
    double extraEccCheckMbit = 0.0;
    std::uint64_t workloadCorrectable = 0;
    std::uint64_t workloadUncorrectable = 0;
    bool crashed = false;
};

SchemeResult
runScheme(EccScheme scheme, Seconds duration)
{
    ChipConfig cfg = makeLowConfig();
    cfg.eccScheme = scheme;
    Chip chip(cfg);
    auto setup = harness::armHardware(chip);
    harness::assignSuite(chip, Suite::coreMark, 10.0);

    Simulator sim(chip, 0.002);
    sim.attachControlSystem(setup.control.get());
    sim.enableTrace(0.5);
    sim.run(duration);

    SchemeResult res;
    res.scheme = scheme;
    res.traits = codecTraits(scheme, itanium9560::l2Data().eccDataBits);
    res.budgetScale = correctableBudgetScale(res.traits);
    res.extraEccCheckMbit = chip.extraEccCheckMbit();
    res.crashed = sim.anyCrashed();

    // Mean setpoint and power over the settled second half of the run.
    const Millivolt nominal = cfg.operatingPoint.nominalVdd;
    const auto &samples = sim.trace().samples();
    RunningStats vdd, power;
    for (std::size_t i = samples.size() / 2; i < samples.size(); ++i) {
        for (Millivolt v : samples[i].domainSetpoint)
            vdd.add(v);
        power.add(samples[i].chipPower);
    }
    res.meanVddMv = vdd.mean();
    res.meanReductionPct = 100.0 * (nominal - vdd.mean()) / nominal;
    res.meanChipPowerWatts = power.mean();
    res.workloadCorrectable = sim.eventLog().correctableCount();
    res.workloadUncorrectable = sim.eventLog().uncorrectableCount();
    return res;
}

struct FleetResult
{
    const char *label;
    FleetReport report;
};

FleetConfig
tierFleetConfig()
{
    FleetConfig cfg;
    cfg.numChips = 4;
    cfg.seed = evalSeed;
    cfg.chip = makeLowConfig();
    cfg.policy = SchedulerPolicy::marginAware;
    cfg.jobs.arrivalsPerSecond = 8.0;
    cfg.jobs.firstArrival = 2.0;
    cfg.jobs.seed = 0xCAFE;
    cfg.governor.fleetBudget = 88.0;
    cfg.governor.interval = 0.5;
    cfg.governor.minChipCap = 5.0;
    cfg.recovery.checkpointInterval = 1.0;
    cfg.recovery.recoveryLatency = 0.25;
    return cfg;
}

FleetReport
runFleet(const FleetConfig &cfg, Seconds duration, ExperimentPool &pool)
{
    Fleet fleet(cfg);
    fleet.run(duration, pool);
    return fleet.report();
}

} // namespace

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {"--threads N", "--json", "--duration S",
                                   "--fleet-duration S"});
    setInformEnabled(false);
    const unsigned threads = parseThreads(argc, argv);
    const bool json = parseJson(argc, argv);
    const Seconds duration = parseDoubleArg(argc, argv, "duration", 30.0);
    const Seconds fleet_duration =
        parseDoubleArg(argc, argv, "fleet-duration", 8.0);

    ExperimentPool pool(threads);

    // Phase 1: one chip per scheme, independent pool tasks. Each task
    // builds its own chip from the fixed evaluation seed; the scheme
    // is the only thing that varies, so the floor differences below
    // are the codec's doing, not sampling noise.
    const auto outcomes = pool.run(
        evalSeed, schemeOrder().size(), [&](ExperimentTaskContext &ctx) {
            return runScheme(schemeOrder()[ctx.index], duration);
        });
    std::vector<SchemeResult> results;
    for (const auto &outcome : outcomes) {
        if (!outcome.ok())
            fatal("codec sweep task failed: ", outcome.error);
        results.push_back(*outcome.value);
    }

    // Phase 2: homogeneous Hamming row vs the same row with BCH-2 on
    // half the nodes (the critical-serving tier), identical job stream.
    FleetConfig homog = tierFleetConfig();
    FleetConfig hetero = tierFleetConfig();
    hetero.nodeSchemes = {EccScheme::bch2, EccScheme::hamming};
    const FleetResult fleets[] = {
        {"homogeneous-hamming",
         runFleet(homog, fleet_duration, pool)},
        {"heterogeneous-bch2",
         runFleet(hetero, fleet_duration, pool)},
    };

    if (json) {
        JsonWriter doc;
        doc.beginObject();
        doc.key("artifact").value("fig_codec_tradeoff");
        doc.key("durationSec").value(duration);
        doc.key("fleetDurationSec").value(fleet_duration);
        doc.key("schemes").beginArray();
        for (const SchemeResult &r : results) {
            doc.beginObject();
            doc.key("scheme").value(schemeName(r.scheme));
            doc.key("dataBits").value(r.traits.dataBits);
            doc.key("checkBits").value(r.traits.checkBits);
            doc.key("codewordBits").value(r.traits.codewordBits);
            doc.key("correctableBits").value(r.traits.correctableBits);
            doc.key("decodeLatencyCycles")
                .value(r.traits.decodeLatencyCycles);
            doc.key("storageOverheadPct")
                .value(100.0 * r.traits.storageOverhead());
            doc.key("correctableBudgetScale").value(r.budgetScale);
            doc.key("extraEccCheckMbit").value(r.extraEccCheckMbit);
            doc.key("meanVddMv").value(double(r.meanVddMv));
            doc.key("meanReductionPct").value(r.meanReductionPct);
            doc.key("meanChipPowerWatts")
                .value(double(r.meanChipPowerWatts));
            doc.key("workloadCorrectable").value(r.workloadCorrectable);
            doc.key("workloadUncorrectable")
                .value(r.workloadUncorrectable);
            doc.key("crashed").value(r.crashed);
            doc.endObject();
        }
        doc.endArray();
        doc.key("fleet").beginArray();
        for (const FleetResult &f : fleets) {
            const FleetReport &r = f.report;
            doc.beginObject();
            doc.key("tiers").value(f.label);
            doc.key("completed").value(r.completed);
            doc.key("slaViolations").value(r.slaViolations);
            doc.key("p99LatencySec").value(r.p99Latency);
            doc.key("energyPerJobJoules").value(r.energyPerJob);
            doc.key("meanFleetPowerWatts").value(r.meanFleetPower);
            doc.key("recoveries").value(r.recoveries);
            doc.endObject();
        }
        doc.endArray();
        doc.endObject();
        doc.print();
        return 0;
    }

    banner("Codec trade-off",
           "speculation floors, storage and power across the codec zoo");
    std::printf("%.0f s per scheme, CoreMark, 8-core evaluation chip\n\n",
                duration);
    std::printf("%-8s %6s %6s %7s %7s %9s %9s %8s %7s %6s\n", "scheme",
                "check", "t", "ovh%", "lat", "budget-x", "meanVdd",
                "red%", "corr", "DUE");
    for (const SchemeResult &r : results) {
        std::printf("%-8s %6u %6u %7.2f %7u %9.1f %8.1f %7.1f %7llu "
                    "%6llu%s\n",
                    schemeName(r.scheme), r.traits.checkBits,
                    r.traits.correctableBits,
                    100.0 * r.traits.storageOverhead(),
                    r.traits.decodeLatencyCycles, r.budgetScale,
                    double(r.meanVddMv), r.meanReductionPct,
                    (unsigned long long)r.workloadCorrectable,
                    (unsigned long long)r.workloadUncorrectable,
                    r.crashed ? "  CRASHED" : "");
    }

    // The large-codeword variant never runs the per-word path; report
    // its storage trade alongside for the overhead comparison.
    const CodecTraits blk = codecTraits(EccScheme::bchLarge512, 64);
    std::printf("%-8s %6u %6u %7.2f %7u %9s %8s %7s %7s %6s\n",
                schemeName(EccScheme::bchLarge512), blk.checkBits,
                blk.correctableBits, 100.0 * blk.storageOverhead(),
                blk.decodeLatencyCycles, "-", "-", "-", "-", "-");

    std::printf("\n%-22s %9s %8s %9s %11s %8s\n", "fleet tiers",
                "completed", "SLA-miss", "p99 (s)", "energy/job",
                "mean W");
    for (const FleetResult &f : fleets) {
        std::printf("%-22s %9llu %8llu %9.2f %10.1fJ %8.1f\n", f.label,
                    (unsigned long long)f.report.completed,
                    (unsigned long long)f.report.slaViolations,
                    f.report.p99Latency, f.report.energyPerJob,
                    f.report.meanFleetPower);
    }

    const SchemeResult *hamming = nullptr;
    const SchemeResult *bch2 = nullptr;
    for (const SchemeResult &r : results) {
        if (r.scheme == EccScheme::hamming)
            hamming = &r;
        if (r.scheme == EccScheme::bch2)
            bch2 = &r;
    }
    if (hamming && bch2) {
        std::printf("\nBCH-2 vs Hamming: %.1f mV deeper mean Vdd "
                    "(%llu vs %llu uncorrectable)\n",
                    double(hamming->meanVddMv - bch2->meanVddMv),
                    (unsigned long long)bch2->workloadUncorrectable,
                    (unsigned long long)hamming->workloadUncorrectable);
    }
    return 0;
}
