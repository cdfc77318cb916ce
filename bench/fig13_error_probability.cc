/**
 * @file
 * Fig. 13: probability of a single-bit error of the targeted cache
 * line as a function of supply voltage, for four cores with different
 * error-distribution profiles.
 *
 * Paper shape to reproduce: smooth S-curves with ramp-up ranges
 * (0 -> 100%) spanning roughly 20 mV to over 50 mV depending on the
 * core, giving the 5 mV-step controller plenty of resolution, with
 * margins remaining above the 5% ceiling before the minimum safe
 * voltage is reached.
 *
 * Every (core, Vdd step) probe burst is an independent pool task
 * (--threads N selects the worker count; output is identical for
 * any N). With --json, the raw task-order points are emitted as one
 * machine-readable document instead of the table (byte-stable across
 * runs and thread counts; the golden-output regression tests pin it).
 *
 * The sweep is checkpointable at task granularity — task seeds come
 * from the global grid index, so a resumed window reproduces the
 * uninterrupted points bit-for-bit (the probes always draw at the
 * exact voltage):
 *
 *   --probes N                 probe bursts per (core, Vdd) point
 *                              (default 20000 — the figure's
 *                              resolution; tests dial it down)
 *   --checkpoint FILE          snapshot target path
 *   --checkpoint-every N       snapshot after every N completed tasks
 *   --halt-after N             stop after N tasks, snapshot, exit 0
 *                              without printing results
 *   --resume FILE              reload completed points and finish the
 *                              remaining tasks
 */

#include <cmath>

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

namespace
{

constexpr std::uint64_t kProbesPerPoint = 20000;

void
writeCheckpoint(const std::string &path, std::uint64_t probes,
                std::size_t grid_size,
                const std::vector<experiments::ProbeCurvePoint> &points)
{
    StateWriter w;
    w.beginSection("bench");
    w.putString("fig13_error_probability");
    // The format keeps its sampling-mode byte; fig13 probes exact only.
    w.putU8(std::uint8_t(SamplingMode::exact));
    w.putU64(probes);
    w.putU64(grid_size);
    w.endSection();
    w.beginSection("points");
    std::vector<std::uint64_t> core_ids;
    std::vector<double> vdds, probs;
    for (const auto &point : points) {
        core_ids.push_back(point.coreId);
        vdds.push_back(point.vdd);
        probs.push_back(point.probability);
    }
    w.putU64Vector(core_ids);
    w.putDoubleVector(vdds);
    w.putDoubleVector(probs);
    w.endSection();
    w.writeFile(path);
}

std::vector<experiments::ProbeCurvePoint>
readCheckpoint(const std::string &path, std::uint64_t expected_probes,
               std::size_t grid_size)
{
    StateReader r = StateReader::fromFile(path);
    r.beginSection("bench");
    const std::string bench = r.getString();
    if (bench != "fig13_error_probability")
        throw SnapshotError("snapshot belongs to bench '" + bench +
                            "', not fig13_error_probability");
    if (samplingModeFromByte(r.getU8()) != SamplingMode::exact)
        throw SnapshotError("sampling mode 2 (chip-batched) was retired "
                            "from fig13; rerun the sweep without "
                            "--resume");
    const std::uint64_t probes = r.getU64();
    if (probes != expected_probes)
        throw SnapshotError("snapshot probes-per-point " +
                            std::to_string(probes) +
                            " does not match the configured sweep (" +
                            std::to_string(expected_probes) + ")");
    const std::uint64_t saved_grid = r.getU64();
    if (saved_grid != grid_size)
        throw SnapshotError("snapshot grid size " +
                            std::to_string(saved_grid) +
                            " does not match the configured sweep (" +
                            std::to_string(grid_size) + " tasks)");
    r.endSection();
    r.beginSection("points");
    const auto core_ids = r.getU64Vector();
    const auto vdds = r.getDoubleVector();
    const auto probs = r.getDoubleVector();
    r.endSection();
    if (core_ids.size() != vdds.size() ||
        core_ids.size() != probs.size() ||
        core_ids.size() > grid_size)
        throw SnapshotError("snapshot point arrays are inconsistent");
    std::vector<experiments::ProbeCurvePoint> points(core_ids.size());
    for (std::size_t i = 0; i < core_ids.size(); ++i) {
        points[i].coreId = unsigned(core_ids[i]);
        points[i].vdd = vdds[i];
        points[i].probability = probs[i];
    }
    return points;
}

} // namespace

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {"--threads N", "--json", "--probes N",
                                   "--halt-after N", "--checkpoint-every N",
                                   "--checkpoint FILE", "--resume FILE"});
    setInformEnabled(false);
    ExperimentPool pool(parseThreads(argc, argv));
    const bool json = parseJson(argc, argv);
    const std::uint64_t probes = std::uint64_t(
        parseDoubleArg(argc, argv, "probes", double(kProbesPerPoint)));
    const double halt_after =
        parseDoubleArg(argc, argv, "halt-after", -1.0);
    const double ckpt_every =
        parseDoubleArg(argc, argv, "checkpoint-every", -1.0);
    const std::string snap_path =
        parseStringArg(argc, argv, "checkpoint", "");
    const std::string resume_path =
        parseStringArg(argc, argv, "resume", "");
    if ((halt_after > 0.0 || ckpt_every > 0.0) && snap_path.empty()) {
        std::fprintf(stderr, "--halt-after/--checkpoint-every require "
                             "--checkpoint FILE\n");
        return 2;
    }
    const std::vector<unsigned> cores = {0, 2, 4, 6};  // A, B, C, D.

    const auto grid = experiments::errorProbabilityGrid(
        makeLowConfig(), cores, /*span=*/60.0, /*step=*/5.0);

    std::vector<experiments::ProbeCurvePoint> points;
    try {
        if (!resume_path.empty())
            points = readCheckpoint(resume_path, probes, grid.size());

        const std::size_t stop =
            halt_after > 0.0
                ? std::min(grid.size(), std::size_t(halt_after))
                : grid.size();
        const std::size_t chunk =
            ckpt_every > 0.0 ? std::size_t(ckpt_every) : grid.size();
        while (points.size() < stop) {
            const std::size_t next =
                std::min(stop, points.size() + std::max<std::size_t>(
                                                   1, chunk));
            auto fresh = experiments::errorProbabilityPointsPooled(
                makeLowConfig(), grid, points.size(), next, probes,
                pool);
            points.insert(points.end(), fresh.begin(), fresh.end());
            if (ckpt_every > 0.0 && points.size() < stop)
                writeCheckpoint(snap_path, probes, grid.size(),
                                points);
        }
        if (stop < grid.size()) {
            writeCheckpoint(snap_path, probes, grid.size(), points);
            return 0;
        }
    } catch (const SnapshotError &e) {
        std::fprintf(stderr, "snapshot error: %s\n", e.what());
        return 1;
    }

    if (json) {
        JsonWriter doc;
        doc.beginObject();
        doc.key("artifact").value("fig13_error_probability");
        doc.key("probesPerPoint").value(probes);
        doc.key("points").beginArray();
        for (const auto &point : points) {
            doc.beginObject();
            doc.key("core").value(point.coreId);
            doc.key("vddMv").value(point.vdd);
            doc.key("probability").value(point.probability);
            doc.endObject();
        }
        doc.endArray();
        doc.endObject();
        doc.print();
        return 0;
    }

    banner("Figure 13", "P(single-bit error) vs supply voltage, "
                        "four cores");
    std::printf("%-10s", "Vdd (mV)");
    for (unsigned c : cores)
        std::printf("  core %u  ", c);
    std::printf("\n");

    // Regroup the core-major task-order points into per-core curves.
    struct Curve
    {
        std::vector<std::pair<Millivolt, double>> points;
        Millivolt rampLow = 0.0, rampHigh = 0.0;
    };
    std::vector<Curve> curves(cores.size());
    Millivolt grid_hi = 0.0, grid_lo = 1e9;
    for (const auto &point : points) {
        for (std::size_t i = 0; i < cores.size(); ++i) {
            if (cores[i] == point.coreId)
                curves[i].points.emplace_back(point.vdd,
                                              point.probability);
        }
        grid_hi = std::max(grid_hi, point.vdd);
        grid_lo = std::min(grid_lo, point.vdd);
    }
    for (auto &curve : curves) {
        // Ramp range: from first >1% down to first >99%.
        for (const auto &[v, p] : curve.points) {
            if (p > 0.01 && curve.rampHigh == 0.0)
                curve.rampHigh = v;
            if (p > 0.99 && curve.rampLow == 0.0)
                curve.rampLow = v;
        }
    }

    for (Millivolt v = grid_hi; v >= grid_lo; v -= 5.0) {
        std::printf("%-10.0f", v);
        for (const auto &curve : curves) {
            double p = -1.0;
            for (const auto &[pv, pp] : curve.points) {
                if (std::abs(pv - v) < 0.5) {
                    p = pp;
                    break;
                }
            }
            if (p < 0.0)
                std::printf("  %-8s", "-");
            else
                std::printf("  %-8.3f", p);
        }
        std::printf("\n");
    }

    std::printf("\nramp-up ranges (1%% -> 99%%):");
    for (std::size_t i = 0; i < curves.size(); ++i) {
        std::printf(" core %u: %.0f mV;", cores[i],
                    curves[i].rampHigh - curves[i].rampLow);
    }
    std::printf("\n(paper: 20 mV to over 50 mV)\n");
    return 0;
}
