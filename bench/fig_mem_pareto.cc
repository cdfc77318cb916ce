/**
 * @file
 * Memory-domain Pareto sweep: voltage vs latency vs reliability for
 * the DRAM and HBM array models.
 *
 * One task per (kind, Vdd) grid point. Every task rebuilds its kind's
 * array from the same fixed seed — the weak-cell population is
 * identical across the voltage axis, so the curves below are the
 * voltage's doing, not sampling noise — then measures the designated
 * weakest line with a probe burst and reports the analytic rates next
 * to the measured ones. The latency columns are what make this a
 * Pareto surface rather than a cliff plot: DRAM pays access-time
 * stretch long before it pays errors, HBM hits its (higher, steeper)
 * cliff first.
 *
 * Options:
 *   --threads N   worker threads (0 = hardware concurrency)
 *   --json        machine-readable output
 *   --probes N    probe reads per grid point (default 20000)
 *   --vmax MV     top of the sweep (default 1200)
 *   --vmin MV     bottom of the sweep (default 1020)
 *   --vstep MV    grid step (default 10)
 *   --temp C      array temperature (default 45)
 *   --sampling exact|chip-batched
 *                 probe task granularity. Exact reproduces the
 *                 historical draws: one pool task per (kind, Vdd),
 *                 each rebuilding its array. Chip-batched sweeps a
 *                 whole kind inside one task from a single array
 *                 build (one array per kind already is chip
 *                 granularity) — same statistics, different RNG
 *                 sequence, ~grid-size fewer array constructions.
 *
 * Output is byte-identical for every --threads value.
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

namespace
{

const std::vector<MemKind> &
kindOrder()
{
    static const std::vector<MemKind> kinds = {MemKind::dram,
                                              MemKind::hbm};
    return kinds;
}

MemArrayParams
paramsFor(MemKind kind)
{
    return kind == MemKind::dram ? dramArrayDefaults()
                                 : hbmArrayDefaults();
}

/** One (kind, Vdd) grid point of the Pareto sweep. */
struct ParetoPoint
{
    MemKind kind = MemKind::dram;
    Millivolt vdd = 0.0;
    /** Analytic weakest-line per-read probabilities, worst pattern. */
    double pCorrectable = 0.0;
    double pUncorrectable = 0.0;
    /** Measured probe-burst correctable rate on the same line. */
    double measuredRate = 0.0;
    std::uint64_t measuredUncorrectable = 0;
    /** Array-mean per-access rates (the traffic model's view). */
    double aggCorrectable = 0.0;
    double aggUncorrectable = 0.0;
    /** Latency axis. */
    double accessLatencyNs = 0.0;
    double latencyStretch = 0.0;
    /** Power axis. */
    double refreshPowerW = 0.0;
    double accessEnergyNj = 0.0;
};

/** Per-kind facts that do not depend on the grid voltage. */
struct KindSummary
{
    MemKind kind = MemKind::dram;
    Millivolt nominalMv = 0.0;
    Millivolt firstErrorVddMv = 0.0;
    Millivolt weakestVcMv = 0.0;
    unsigned codewordBits = 0;
    double checkMbit = 0.0;
    double decodeLatencyNs = 0.0;
};

std::vector<Millivolt>
voltageGrid(Millivolt vmax, Millivolt vmin, Millivolt vstep)
{
    std::vector<Millivolt> grid;
    for (Millivolt v = vmax; v >= vmin - 1e-9; v -= vstep)
        grid.push_back(v);
    return grid;
}

/** Rebuild the kind's array from the fixed bench seed. */
std::unique_ptr<MemArray>
buildArray(MemKind kind, Celsius temp)
{
    Rng build_rng(mix64(evalSeed, std::uint64_t(kind)));
    auto array = makeMemArray(kind, paramsFor(kind), build_rng);
    array->setTemperature(temp);
    return array;
}

ParetoPoint
measurePoint(MemArray &array, MemKind kind, Millivolt vdd,
             std::uint64_t probes, Rng &rng)
{
    const auto weakest = array.weakestLine();

    ParetoPoint point;
    point.kind = kind;
    point.vdd = vdd;

    const auto analytic = array.lineEventProbabilities(
        weakest.bank, weakest.line, vdd, MemArray::kPatternWorst);
    point.pCorrectable = analytic.pCorrectable;
    point.pUncorrectable = analytic.pUncorrectable;

    const ProbeStats measured =
        array.probeLine(weakest.bank, weakest.line, vdd, probes,
                        MemArray::kPatternWorst, rng);
    point.measuredRate = measured.errorRate();
    point.measuredUncorrectable = measured.uncorrectableEvents;

    const auto agg = array.aggregateRates(vdd);
    point.aggCorrectable = agg.pCorrectable;
    point.aggUncorrectable = agg.pUncorrectable;

    point.accessLatencyNs = array.accessLatencyNs(vdd);
    point.latencyStretch = array.latencyStretch(vdd);
    point.refreshPowerW = array.refreshPower(vdd);
    point.accessEnergyNj = array.accessEnergy(vdd) * 1e9;
    return point;
}

/** Exact mode: the historical one-point task, array rebuilt per point. */
ParetoPoint
runPoint(MemKind kind, Millivolt vdd, Celsius temp,
         std::uint64_t probes, Rng &rng)
{
    auto array = buildArray(kind, temp);
    return measurePoint(*array, kind, vdd, probes, rng);
}

/** Chip-batched mode: one task sweeps a whole kind from a single build. */
std::vector<ParetoPoint>
runKind(MemKind kind, const std::vector<Millivolt> &grid, Celsius temp,
        std::uint64_t probes, Rng &rng)
{
    auto array = buildArray(kind, temp);
    std::vector<ParetoPoint> points;
    points.reserve(grid.size());
    for (Millivolt vdd : grid)
        points.push_back(measurePoint(*array, kind, vdd, probes, rng));
    return points;
}

KindSummary
summarize(MemKind kind, Celsius temp)
{
    auto array = buildArray(kind, temp);
    const auto weakest = array->weakestLine();
    KindSummary summary;
    summary.kind = kind;
    summary.nominalMv = array->params().nominalMv;
    summary.firstErrorVddMv = array->firstErrorVoltage();
    summary.weakestVcMv = weakest.maxVc;
    summary.codewordBits = array->codewordBits();
    summary.checkMbit = array->checkMbit();
    summary.decodeLatencyNs = array->decodeLatencyNs();
    return summary;
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    const unsigned threads = parseThreads(argc, argv);
    const bool json = parseJson(argc, argv);
    const std::uint64_t probes = std::uint64_t(
        parseDoubleArg(argc, argv, "probes", 20000.0));
    const Millivolt vmax = parseDoubleArg(argc, argv, "vmax", 1200.0);
    const Millivolt vmin = parseDoubleArg(argc, argv, "vmin", 1020.0);
    const Millivolt vstep = parseDoubleArg(argc, argv, "vstep", 10.0);
    const Celsius temp = parseDoubleArg(argc, argv, "temp", 45.0);
    const SamplingMode sampling = parseSampling(argc, argv);

    const std::vector<Millivolt> grid = voltageGrid(vmax, vmin, vstep);
    const std::size_t per_kind = grid.size();

    ExperimentPool pool(threads);
    std::vector<ParetoPoint> points;
    if (sampling == SamplingMode::exact) {
        // One task per (kind, Vdd), kind-major; the merged result
        // vector is in task order, so output is byte-identical for
        // any --threads.
        const std::size_t num_tasks = kindOrder().size() * per_kind;
        const auto outcomes = pool.run(
            evalSeed, num_tasks, [&](ExperimentTaskContext &ctx) {
                const MemKind kind = kindOrder()[ctx.index / per_kind];
                const Millivolt vdd = grid[ctx.index % per_kind];
                return runPoint(kind, vdd, temp, probes, ctx.rng);
            });
        for (const auto &outcome : outcomes) {
            if (!outcome.ok())
                fatal("mem pareto task failed: ", outcome.error);
            points.push_back(*outcome.value);
        }
    } else {
        // Chip-batched: one task per kind, the array built once and swept
        // down the voltage axis. Task order is still deterministic, so
        // output stays byte-identical across --threads — it differs
        // from exact only in the (documented) draw sequence.
        const auto outcomes = pool.run(
            evalSeed, kindOrder().size(),
            [&](ExperimentTaskContext &ctx) {
                return runKind(kindOrder()[ctx.index], grid, temp,
                               probes, ctx.rng);
            });
        for (const auto &outcome : outcomes) {
            if (!outcome.ok())
                fatal("mem pareto task failed: ", outcome.error);
            points.insert(points.end(), outcome.value->begin(),
                          outcome.value->end());
        }
    }

    std::vector<KindSummary> summaries;
    for (MemKind kind : kindOrder())
        summaries.push_back(summarize(kind, temp));

    if (json) {
        JsonWriter doc;
        doc.beginObject();
        doc.key("artifact").value("fig_mem_pareto");
        doc.key("probesPerPoint").value(probes);
        doc.key("tempC").value(double(temp));
        doc.key("domains").beginArray();
        for (const KindSummary &s : summaries) {
            doc.beginObject();
            doc.key("kind").value(memKindName(s.kind));
            doc.key("nominalMv").value(double(s.nominalMv));
            doc.key("firstErrorVddMv").value(double(s.firstErrorVddMv));
            doc.key("weakestVcMv").value(double(s.weakestVcMv));
            doc.key("codewordBits").value(s.codewordBits);
            doc.key("checkMbit").value(s.checkMbit);
            doc.key("decodeLatencyNs").value(s.decodeLatencyNs);
            doc.endObject();
        }
        doc.endArray();
        doc.key("points").beginArray();
        for (const ParetoPoint &p : points) {
            doc.beginObject();
            doc.key("kind").value(memKindName(p.kind));
            doc.key("vddMv").value(double(p.vdd));
            doc.key("pCorrectable").value(p.pCorrectable);
            doc.key("pUncorrectable").value(p.pUncorrectable);
            doc.key("measuredRate").value(p.measuredRate);
            doc.key("measuredUncorrectable")
                .value(p.measuredUncorrectable);
            doc.key("aggCorrectable").value(p.aggCorrectable);
            doc.key("aggUncorrectable").value(p.aggUncorrectable);
            doc.key("accessLatencyNs").value(p.accessLatencyNs);
            doc.key("latencyStretch").value(p.latencyStretch);
            doc.key("refreshPowerW").value(p.refreshPowerW);
            doc.key("accessEnergyNj").value(p.accessEnergyNj);
            doc.endObject();
        }
        doc.endArray();
        doc.endObject();
        doc.print();
        return 0;
    }

    banner("Memory Pareto",
           "voltage / latency / reliability surface per memory domain");
    std::printf("%llu probes per point, %.0f C, %.0f..%.0f mV in %.0f "
                "mV steps\n",
                (unsigned long long)probes, double(temp), double(vmax),
                double(vmin), double(vstep));
    for (const KindSummary &s : summaries) {
        std::printf("%s: first error at %.0f mV (weakest Vc %.1f mV), "
                    "%u-bit lines, %.2f Mbit check, decode %.1f ns\n",
                    memKindName(s.kind), double(s.firstErrorVddMv),
                    double(s.weakestVcMv), s.codewordBits, s.checkMbit,
                    s.decodeLatencyNs);
    }
    std::printf("\n%-5s %6s %10s %10s %10s %9s %8s %8s %8s\n", "kind",
                "mV", "p(corr)", "measured", "p(DUE)", "lat-ns",
                "stretch", "refW", "acc-nJ");
    for (const ParetoPoint &p : points) {
        std::printf("%-5s %6.0f %10.3e %10.3e %10.3e %9.2f %8.3f "
                    "%8.3f %8.2f\n",
                    memKindName(p.kind), double(p.vdd), p.pCorrectable,
                    p.measuredRate, p.pUncorrectable, p.accessLatencyNs,
                    p.latencyStretch, p.refreshPowerW, p.accessEnergyNj);
    }
    return 0;
}
