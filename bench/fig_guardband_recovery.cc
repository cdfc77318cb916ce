/**
 * @file
 * Long-horizon guardband recovery: how much supply guardband the
 * speculation loop re-earns after each week of aging and temperature
 * drift, per domain family.
 *
 * Three configurations run as independent pool tasks on a two-core
 * chip: SRAM-only (the paper's system), SRAM + a DRAM domain, and
 * SRAM + an HBM domain. Each simulated week the arrays age (NBTI-style
 * Vc drift on the SRAM, the same shift applied to the memory weak
 * cells), the memory temperature takes a seasonal swing, and the
 * maintenance window runs: rails return to nominal, the monitors are
 * recalibrated onto the (possibly new) weakest lines, and a fresh
 * control system re-converges over a settle run. The recovered
 * guardband — nominal minus the settled setpoint — is the figure of
 * merit; aging claws it back week by week, and the memory domains
 * additionally breathe with temperature.
 *
 * Options:
 *   --threads N      worker threads (0 = hardware concurrency)
 *   --json           machine-readable output
 *   --weeks N        aging horizon in weeks (default 4)
 *   --settle S       simulated seconds per re-convergence (default 6)
 *   --temp-swing C   seasonal temperature amplitude (default 12)
 *   --sampling exact|chip-batched
 *                    fault-sampling fidelity of the settle runs (see
 *                    common/sampling.hh; default exact)
 *
 * Output is byte-identical for every --threads value.
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

namespace
{

constexpr Seconds kWeek = 7.0 * 24.0 * 3600.0;

const std::vector<const char *> &
configOrder()
{
    static const std::vector<const char *> labels = {
        "sram-only", "sram+dram", "sram+hbm"};
    return labels;
}

ChipConfig
chipConfigFor(std::size_t config_index)
{
    ChipConfig cfg;
    cfg.seed = evalSeed;
    cfg.numCores = 2;
    cfg.coresPerDomain = 2;
    if (config_index == 1)
        cfg.memDomains = {MemDomainConfig::dram()};
    else if (config_index == 2)
        cfg.memDomains = {MemDomainConfig::hbm()};
    return cfg;
}

/** One domain's settled state after a weekly maintenance window. */
struct DomainRow
{
    std::string domain;
    Millivolt setpointMv = 0.0;
    /** Nominal minus settled setpoint. */
    Millivolt recoveredMv = 0.0;
    /** Calibrated first-error voltage of the monitored line. */
    Millivolt firstErrorMv = 0.0;
};

struct WeekRow
{
    unsigned week = 0;
    Celsius memTempC = 0.0;
    std::vector<DomainRow> domains;
};

struct ConfigResult
{
    std::string label;
    std::vector<WeekRow> weeks;
    std::uint64_t workloadCorrectable = 0;
    std::uint64_t workloadUncorrectable = 0;
    std::uint64_t memRecoveries = 0;
    bool crashed = false;
};

/** Settled per-domain rows after arming and a settle run. */
WeekRow
settleWindow(Chip &chip, Simulator &sim,
             std::unique_ptr<VoltageControlSystem> &control,
             unsigned week, Seconds settle)
{
    const Millivolt core_nominal =
        chip.config().operatingPoint.nominalVdd;

    // Maintenance window: rails back to nominal, fresh calibration and
    // control system, then re-converge.
    for (unsigned d = 0; d < chip.numDomains(); ++d)
        chip.domain(d).regulator().request(core_nominal);
    for (unsigned m = 0; m < chip.numMemDomains(); ++m)
        chip.memDomain(m).rail().request(
            chip.memDomain(m).nominalMv());

    auto setup = harness::armHardware(chip);
    control = std::move(setup.control);
    sim.attachControlSystem(control.get());
    sim.run(settle);

    WeekRow row;
    row.week = week;
    if (chip.numMemDomains() > 0)
        row.memTempC = chip.memDomain(0).array().temperature();
    for (unsigned d = 0; d < chip.numDomains(); ++d) {
        DomainRow dr;
        dr.domain = "core" + std::to_string(d);
        dr.setpointMv = chip.domain(d).regulator().setpoint();
        dr.recoveredMv = core_nominal - dr.setpointMv;
        dr.firstErrorMv = setup.targets.at(d).firstErrorVdd;
        row.domains.push_back(dr);
    }
    for (unsigned m = 0; m < chip.numMemDomains(); ++m) {
        const MemDomain &md = chip.memDomain(m);
        DomainRow dr;
        dr.domain = md.name();
        dr.setpointMv = md.rail().setpoint();
        dr.recoveredMv = md.nominalMv() - dr.setpointMv;
        dr.firstErrorMv = setup.memTargets.at(m).firstErrorVdd;
        row.domains.push_back(dr);
    }
    return row;
}

ConfigResult
runConfig(std::size_t config_index, unsigned weeks, Seconds settle,
          Celsius temp_swing, SamplingMode sampling, Rng &rng)
{
    Chip chip(chipConfigFor(config_index));
    harness::assignSuite(chip, Suite::coreMark, 10.0);
    Simulator sim(chip, 0.002);
    sim.setSamplingMode(sampling);

    const AgingModel aging(
        AgingModel::Params{/*ratePerDecade=*/20.0});
    const Celsius base_temp =
        chip.numMemDomains() > 0
            ? chip.memDomain(0).array().params().referenceTemp
            : 0.0;

    ConfigResult result;
    result.label = configOrder()[config_index];

    // Week 0: the fresh part.
    std::unique_ptr<VoltageControlSystem> control;
    result.weeks.push_back(settleWindow(chip, sim, control, 0, settle));

    for (unsigned w = 1; w <= weeks; ++w) {
        const Seconds t0 = (w - 1) * kWeek;
        const Seconds t1 = w * kWeek;

        // One week of NBTI-style drift on every SRAM array.
        for (unsigned c = 0; c < chip.numCores(); ++c) {
            Core &core = chip.core(c);
            aging.advance(core.l2iArray().sram(), t0, t1, rng);
            aging.advance(core.l2dArray().sram(), t0, t1, rng);
        }

        // The same mean shift hits the memory weak cells, and the
        // array temperature takes its seasonal swing.
        const Millivolt shift =
            aging.totalShift(t1) - aging.totalShift(t0);
        for (unsigned m = 0; m < chip.numMemDomains(); ++m) {
            MemDomain &md = chip.memDomain(m);
            md.array().applyAgingShift(shift, shift * 0.5, rng);
            md.array().setTemperature(
                base_temp + temp_swing * std::sin(1.1 * double(w)));
            md.recalibrate();
        }

        result.weeks.push_back(
            settleWindow(chip, sim, control, w, settle));
    }

    result.workloadCorrectable = sim.eventLog().correctableCount();
    result.workloadUncorrectable = sim.eventLog().uncorrectableCount();
    for (unsigned m = 0; m < chip.numMemDomains(); ++m)
        result.memRecoveries += chip.memDomain(m).recoveries();
    result.crashed = sim.anyCrashed();
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {"--threads N", "--json", "--weeks N",
                                   "--settle S", "--temp-swing C",
                                   "--sampling MODE"});
    setInformEnabled(false);
    const unsigned threads = parseThreads(argc, argv);
    const bool json = parseJson(argc, argv);
    const unsigned weeks =
        unsigned(parseDoubleArg(argc, argv, "weeks", 4.0));
    const Seconds settle = parseDoubleArg(argc, argv, "settle", 6.0);
    const Celsius temp_swing =
        parseDoubleArg(argc, argv, "temp-swing", 12.0);
    const SamplingMode sampling = parseSampling(argc, argv);

    ExperimentPool pool(threads);
    const auto outcomes = pool.run(
        evalSeed, configOrder().size(),
        [&](ExperimentTaskContext &ctx) {
            return runConfig(ctx.index, weeks, settle, temp_swing,
                             sampling, ctx.rng);
        });
    std::vector<ConfigResult> results;
    for (const auto &outcome : outcomes) {
        if (!outcome.ok())
            fatal("guardband recovery task failed: ", outcome.error);
        results.push_back(*outcome.value);
    }

    if (json) {
        JsonWriter doc;
        doc.beginObject();
        doc.key("artifact").value("fig_guardband_recovery");
        doc.key("weeks").value(weeks);
        doc.key("settleSec").value(settle);
        doc.key("tempSwingC").value(double(temp_swing));
        doc.key("configs").beginArray();
        for (const ConfigResult &r : results) {
            doc.beginObject();
            doc.key("label").value(r.label);
            doc.key("weeks").beginArray();
            for (const WeekRow &w : r.weeks) {
                doc.beginObject();
                doc.key("week").value(w.week);
                doc.key("memTempC").value(double(w.memTempC));
                doc.key("domains").beginArray();
                for (const DomainRow &d : w.domains) {
                    doc.beginObject();
                    doc.key("domain").value(d.domain);
                    doc.key("setpointMv").value(double(d.setpointMv));
                    doc.key("recoveredMv").value(double(d.recoveredMv));
                    doc.key("firstErrorMv").value(double(d.firstErrorMv));
                    doc.endObject();
                }
                doc.endArray();
                doc.endObject();
            }
            doc.endArray();
            doc.key("workloadCorrectable").value(r.workloadCorrectable);
            doc.key("workloadUncorrectable")
                .value(r.workloadUncorrectable);
            doc.key("memRecoveries").value(r.memRecoveries);
            doc.key("crashed").value(r.crashed);
            doc.endObject();
        }
        doc.endArray();
        doc.endObject();
        doc.print();
        return 0;
    }

    banner("Guardband recovery",
           "guardband re-earned per weekly maintenance window");
    std::printf("%u weeks, %.1f s settle per window, +/-%.0f C memory "
                "temperature swing\n",
                weeks, settle, double(temp_swing));
    for (const ConfigResult &r : results) {
        std::printf("\n%s  (corr %llu, DUE %llu, mem recoveries "
                    "%llu%s)\n",
                    r.label.c_str(),
                    (unsigned long long)r.workloadCorrectable,
                    (unsigned long long)r.workloadUncorrectable,
                    (unsigned long long)r.memRecoveries,
                    r.crashed ? ", CRASHED" : "");
        std::printf("%-6s %8s", "week", "memC");
        for (const DomainRow &d : r.weeks.front().domains)
            std::printf(" %10s %8s", d.domain.c_str(), "recov");
        std::printf("\n");
        for (const WeekRow &w : r.weeks) {
            std::printf("%-6u %8.1f", w.week, double(w.memTempC));
            for (const DomainRow &d : w.domains)
                std::printf(" %10.0f %8.0f", double(d.setpointMv),
                            double(d.recoveredMv));
            std::printf("\n");
        }
    }
    return 0;
}
