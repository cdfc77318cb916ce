/**
 * @file
 * Hot-path performance harness: microbenchmarks of the fault-sampling
 * probability path plus small end-to-end slices of the two drivers that
 * dominate experiment wall time (calibration sweeps and fleet runs).
 *
 * Four sections:
 *
 *  1. probe: per-line event-probability queries in the access pattern
 *     of the ECC monitors (a small working set of weak lines revisited
 *     across a voltage grid). Measured two ways — through the
 *     production LUT path (lineEventProbabilities) and through a
 *     reference reimplementation of the pre-LUT cost (copy-returning
 *     weak-cell range query + per-cell normalCdf fold on every call).
 *     The ratio is the speedup the span index + LUT buy.
 *  2. sweep: full data calibration sweeps of one L2D array — naive
 *     reference against the production exact sweep.
 *  3. burst: a fig13-style probe-burst voltage sweep over four cores of
 *     a fixed chip (throughput of the whole probeLine stack).
 *  4. fleet: a 2-chip fleet slice, exact vs chip-batched: Fleet::run
 *     alone. Construction, which calibrates every die, is not timed,
 *     so a faster calibration cannot move the ratio.
 *
 * Every lane is timed three times and reports the median run, so a
 * scheduler hiccup in one repetition cannot sink (or inflate) a
 * speedup ratio.
 *
 * Options:
 *   --json                machine-readable output (BENCH_hotpath.json).
 *   --min-probe-speedup X fail (exit 2) if section 1's speedup < X.
 *   --min-sweep-speedup X fail (exit 2) if section 2's exact sweep
 *                         speedup < X.
 *
 * The CI perf-smoke job runs this binary and compares the dimensionless
 * speedup ratios against the committed BENCH_hotpath.json baseline
 * (ratios are stable across machines; absolute times are not).
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>

#include "bench_util.hh"
#include "common/simd.hh"

using namespace vspec;
using namespace vspec_bench;

namespace
{

double
nowMs()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               clock::now().time_since_epoch())
        .count();
}

/**
 * Reference reimplementation of the pre-LUT per-call cost of the
 * probability path: a copy-returning range query over the whole weak
 * population followed by the per-word fold, recomputed on every call.
 * Kept numerically identical to CacheArray::lineEventProbabilities so
 * the two paths can be cross-checked while being timed.
 */
void
naiveLineEventProbabilities(const CacheArray &array, std::uint64_t set,
                            unsigned way, Millivolt v_eff,
                            double &p_correctable,
                            double &p_uncorrectable)
{
    const std::uint64_t base = array.lineCellBase(set, way);
    const std::vector<WeakCell> weak = array.sram().weakCellsInRange(
        base, base + array.geometry().cellsPerLine());

    const unsigned cw_bits = array.codec().codewordBits();
    double e_corr = 0.0;
    double p_no_uncorr = 1.0;

    std::uint64_t cur_word = ~std::uint64_t(0);
    double none = 1.0, exactly_one = 0.0;
    auto fold_word = [&]() {
        if (cur_word == ~std::uint64_t(0))
            return;
        const double multi = std::max(0.0, 1.0 - none - exactly_one);
        e_corr += exactly_one;
        p_no_uncorr *= (1.0 - multi);
    };

    for (const WeakCell &cell : weak) {
        const double p = array.sram().failureProbability(cell, v_eff);
        if (p <= 0.0)
            continue;
        const std::uint64_t word = (cell.cellIndex - base) / cw_bits;
        if (word != cur_word) {
            fold_word();
            cur_word = word;
            none = 1.0;
            exactly_one = 0.0;
        }
        exactly_one = exactly_one * (1.0 - p) + p * none;
        none *= (1.0 - p);
    }
    fold_word();

    p_correctable = e_corr;
    p_uncorrectable = 1.0 - p_no_uncorr;
}

struct Measure
{
    std::string name;
    double millis = 0.0;
    std::uint64_t work = 0;  // Calls / probes / simulated things.
};

/**
 * Median-of-3 lane timer: runs the lane three times and returns the
 * median wall time. Side effects (checksums, event counters, RNG
 * advancement) accumulate across all three repetitions, so paired
 * lanes stay comparable — both accumulate 3x.
 */
template <typename Fn>
double
medianMs(Fn &&fn)
{
    std::array<double, 3> times;
    for (double &t : times) {
        const double start = nowMs();
        fn();
        t = nowMs() - start;
    }
    std::sort(times.begin(), times.end());
    return times[1];
}

FleetConfig
fleetSliceConfig(SamplingMode sampling)
{
    FleetConfig cfg;
    cfg.numChips = 2;
    cfg.seed = evalSeed;
    cfg.chip = makeLowConfig();
    cfg.policy = SchedulerPolicy::marginAware;
    cfg.jobs.arrivalsPerSecond = 8.0;
    cfg.jobs.firstArrival = 0.5;
    cfg.jobs.seed = 0xCAFE;
    cfg.recovery.checkpointInterval = 1.0;
    cfg.recovery.recoveryLatency = 0.25;
    cfg.sampling = sampling;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {"--json", "--min-probe-speedup X",
                                   "--min-sweep-speedup X", "--threads N"});
    setInformEnabled(false);
    const bool json = parseJson(argc, argv);
    const double min_probe =
        parseDoubleArg(argc, argv, "min-probe-speedup", 0.0);
    const double min_sweep =
        parseDoubleArg(argc, argv, "min-sweep-speedup", 0.0);

    std::vector<Measure> measures;

    // ---------------------------------------------------------------
    // Section 1: probability path, LUT vs naive reference.
    // ---------------------------------------------------------------
    Chip chip(makeLowConfig());
    CacheArray &l2d = chip.core(0).l2dArray();

    // Monitor-like working set: the weakest lines, revisited across a
    // regulator-step voltage grid.
    std::vector<WeakLineInfo> lines = l2d.weakLines();
    if (lines.size() > 32)
        lines.resize(32);
    std::vector<Millivolt> grid;
    const Millivolt v_top = l2d.weakestLine().weakestVc + 10.0;
    for (Millivolt v = v_top; v > v_top - 60.0; v -= 5.0)
        grid.push_back(v);

    constexpr unsigned probeIters = 1500;
    double max_abs_err = 0.0;

    double checksum_naive = 0.0;
    const double naive_ms = medianMs([&] {
        for (unsigned it = 0; it < probeIters; ++it) {
            for (const WeakLineInfo &line : lines) {
                for (const Millivolt v : grid) {
                    double pc = 0.0, pu = 0.0;
                    naiveLineEventProbabilities(l2d, line.set, line.way, v,
                                                pc, pu);
                    checksum_naive += pc + pu;
                }
            }
        }
    });
    const std::uint64_t probe_calls =
        std::uint64_t(probeIters) * lines.size() * grid.size();
    measures.push_back({"probe_naive", naive_ms, probe_calls});

    double checksum_lut = 0.0;
    const double lut_ms = medianMs([&] {
        for (unsigned it = 0; it < probeIters; ++it) {
            for (const WeakLineInfo &line : lines) {
                for (const Millivolt v : grid) {
                    double pc = 0.0, pu = 0.0;
                    l2d.lineEventProbabilities(line.set, line.way, v, pc,
                                               pu);
                    checksum_lut += pc + pu;
                }
            }
        }
    });
    measures.push_back({"probe_lut", lut_ms, probe_calls});

    // The LUT path must be numerically identical to the reference.
    max_abs_err = std::abs(checksum_naive - checksum_lut);
    if (max_abs_err > 1e-9 * std::max(1.0, std::abs(checksum_naive))) {
        std::fprintf(stderr,
                     "FAIL: LUT path diverged from reference "
                     "(%.17g vs %.17g)\n",
                     checksum_lut, checksum_naive);
        return 1;
    }

    const double probe_speedup = naive_ms / std::max(lut_ms, 1e-6);

    // ---------------------------------------------------------------
    // Section 2: calibration data sweep — pre-optimization reference
    // ("naive": per-line weak-cell vector copies + per-probe
    // probability recomputation, as the library did before the span
    // index and LUT) against the current exact sweep.
    // ---------------------------------------------------------------
    constexpr unsigned sweepReps = 20;
    constexpr std::uint64_t readsPerPattern = 2500;
    // Sweep ~2 mV above the weakest cell's Vc, snapped to the LUT grid
    // (the voltage BENCH_hotpath.json's sweep lanes were measured at).
    const Millivolt v_sweep =
        std::round((l2d.weakestLine().weakestVc + 2.0) /
                   CacheArray::probQuantMv) *
        CacheArray::probQuantMv;

    std::uint64_t naive_events = 0;
    Rng rng_naive(0x5EEDULL);
    const auto &geo = l2d.geometry();
    const double sweep_naive_ms = medianMs([&] {
        for (unsigned r = 0; r < sweepReps; ++r) {
            for (std::uint64_t pattern : sweep::dataPatterns) {
                for (std::uint64_t set = 0; set < geo.numSets(); ++set) {
                    for (unsigned way = 0; way < geo.associativity;
                         ++way) {
                        // Pre-optimization behavior: copy the line's
                        // weak cells out to test for emptiness.
                        const std::uint64_t base =
                            l2d.lineCellBase(set, way);
                        if (l2d.sram()
                                .weakCellsInRange(base,
                                                  base +
                                                      geo.cellsPerLine())
                                .empty()) {
                            continue;
                        }
                        l2d.writePattern(set, way, pattern);
                        double pc = 0.0, pu = 0.0;
                        naiveLineEventProbabilities(l2d, set, way,
                                                    v_sweep, pc, pu);
                        const std::uint64_t whole = std::uint64_t(pc);
                        naive_events +=
                            whole * readsPerPattern +
                            rng_naive.binomial(readsPerPattern,
                                               pc - double(whole));
                        rng_naive.binomial(readsPerPattern, pu);
                    }
                }
            }
        }
    });
    measures.push_back({"sweep_naive", sweep_naive_ms, sweepReps});

    std::uint64_t exact_events = 0;
    Rng rng_exact(0x5EEDULL);

    const double sweep_exact_ms = medianMs([&] {
        for (unsigned r = 0; r < sweepReps; ++r) {
            exact_events += sweep::dataSweep(l2d, v_sweep,
                                             readsPerPattern, rng_exact)
                                .totalCorrectable;
        }
    });
    measures.push_back({"sweep_exact", sweep_exact_ms, sweepReps});

    const double sweep_exact_speedup =
        sweep_naive_ms / std::max(sweep_exact_ms, 1e-6);

    // ---------------------------------------------------------------
    // Section 3: fig13-style probe-burst voltage sweep, fixed chip.
    // ---------------------------------------------------------------
    constexpr std::uint64_t probesPerPoint = 20000;
    constexpr unsigned burstReps = 5;
    std::uint64_t burst_events = 0;
    Rng rng_burst(0xB1A5ULL);
    const double burst_ms = medianMs([&] {
        for (unsigned r = 0; r < burstReps; ++r) {
            for (unsigned c : {0u, 2u, 4u, 6u}) {
                CacheArray &array = chip.core(c).l2dArray();
                const WeakLineInfo target = array.weakestLine();
                for (Millivolt v = target.weakestVc + 10.0;
                     v > target.weakestVc - 50.0; v -= 5.0) {
                    burst_events +=
                        array
                            .probeLine(target.set, target.way, v,
                                       probesPerPoint, rng_burst)
                            .correctableEvents;
                }
            }
        }
    });
    const std::uint64_t burst_probes =
        std::uint64_t(burstReps) * 4 * 12 * probesPerPoint;
    measures.push_back({"fig13_burst", burst_ms, burst_probes});

    // ---------------------------------------------------------------
    // Section 4: fleet slice, exact vs chip-batched.
    // ---------------------------------------------------------------
    ExperimentPool pool(parseThreads(argc, argv));
    constexpr Seconds fleetDuration = 2.0;

    const auto fleet_lane = [&](SamplingMode mode) {
        std::array<double, 3> times;
        for (double &t : times) {
            Fleet fleet(fleetSliceConfig(mode));
            const double start = nowMs();
            fleet.run(fleetDuration, pool);
            t = nowMs() - start;
        }
        std::sort(times.begin(), times.end());
        return times[1];
    };

    const double fleet_exact_ms = fleet_lane(SamplingMode::exact);
    measures.push_back({"fleet_exact", fleet_exact_ms, 2});

    const double fleet_chip_ms = fleet_lane(SamplingMode::chipBatched);
    measures.push_back({"fleet_chipbatched", fleet_chip_ms, 2});

    const double fleet_chip_speedup =
        fleet_exact_ms / std::max(fleet_chip_ms, 1e-6);

    // ---------------------------------------------------------------
    // Report.
    // ---------------------------------------------------------------
    if (json) {
        JsonWriter doc;
        doc.beginObject();
        doc.key("artifact").value("perf_hotpath");
        doc.key("measures").beginArray();
        for (const Measure &m : measures) {
            doc.beginObject();
            doc.key("name").value(m.name);
            doc.key("millis").value(m.millis);
            doc.key("work").value(m.work);
            doc.endObject();
        }
        doc.endArray();
        doc.key("speedups").beginObject();
        doc.key("probeLutVsNaive").value(probe_speedup);
        doc.key("sweepExactVsNaive").value(sweep_exact_speedup);
        doc.key("fleetChipBatchedVsExact").value(fleet_chip_speedup);
        doc.endObject();
        doc.key("checks").beginObject();
        doc.key("probeChecksumAbsError").value(max_abs_err);
        doc.key("sweepNaiveEvents").value(naive_events);
        doc.key("sweepExactEvents").value(exact_events);
        doc.key("burstEvents").value(burst_events);
        doc.key("simdBackend").value(simd::backendName());
        doc.endObject();
        doc.endObject();
        doc.print();
    } else {
        banner("perf_hotpath",
               "fault-sampling hot-path micro + end-to-end timings");
        std::printf("%-16s %12s %14s %12s\n", "section", "millis",
                    "work items", "ns/item");
        for (const Measure &m : measures) {
            std::printf("%-16s %12.1f %14llu %12.1f\n", m.name.c_str(),
                        m.millis, (unsigned long long)m.work,
                        1e6 * m.millis / double(std::max<std::uint64_t>(
                                             m.work, 1)));
        }
        std::printf("\nspeedups vs pre-optimization reference: probe LUT "
                    "%.1fx, sweep exact %.1fx; "
                    "fleet chip-batched vs exact %.1fx [%s]\n",
                    probe_speedup, sweep_exact_speedup,
                    fleet_chip_speedup, simd::backendName());
    }

    if (min_probe > 0.0 && probe_speedup < min_probe) {
        std::fprintf(stderr,
                     "FAIL: probe speedup %.2fx below floor %.2fx\n",
                     probe_speedup, min_probe);
        return 2;
    }
    if (min_sweep > 0.0 && sweep_exact_speedup < min_sweep) {
        std::fprintf(stderr,
                     "FAIL: exact sweep speedup %.2fx below floor %.2fx\n",
                     sweep_exact_speedup, min_sweep);
        return 2;
    }
    return 0;
}
