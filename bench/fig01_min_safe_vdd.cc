/**
 * @file
 * Fig. 1: lowest safe Vdd for each core at both the high (2.53 GHz)
 * and low (340 MHz) frequency points, relative to the respective
 * nominal supplies.
 *
 * Paper shape to reproduce: at high frequency the minimum safe Vdd is
 * ~10% below the 1.1 V nominal with little core-to-core spread; at
 * 340 MHz it is far deeper (~600-660 mV, ~23% below the 800 mV
 * nominal) with much larger core-to-core variation.
 *
 * The per-core characterizations are independent, so they run as one
 * pool task per core (--threads N selects the worker count; output is
 * identical for any N).
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {"--threads N"});
    setInformEnabled(false);
    ExperimentPool pool(parseThreads(argc, argv));
    banner("Figure 1", "lowest safe Vdd per core, high and low "
                       "frequency");

    struct Regime
    {
        const char *label;
        ChipConfig cfg;
    };
    const Regime regimes[] = {{"2.53 GHz", makeHighConfig()},
                              {"340 MHz", makeLowConfig()}};

    std::printf("%-8s %-10s %-14s %-14s %-12s\n", "core", "regime",
                "min safe (mV)", "nominal (mV)", "relative");

    for (const Regime &regime : regimes) {
        const Millivolt nominal =
            regime.cfg.operatingPoint.nominalVdd;
        const auto results = experiments::measureMarginsPooled(
            regime.cfg,
            [] { return benchmarks::suiteSequence(Suite::stress, 5.0); },
            /*hold=*/2.0, /*step=*/5.0, /*tick=*/1e-2, pool);

        RunningStats rel;
        for (const auto &result : results) {
            const double fraction = result.minSafeVdd / nominal;
            rel.add(fraction);
            std::printf("Core %-3u %-10s %-14.0f %-14.0f %.3f\n",
                        result.coreId, regime.label, result.minSafeVdd,
                        nominal, fraction);
        }
        std::printf("  -> %s: mean %.1f%% below nominal, spread "
                    "%.1f%% of nominal\n\n",
                    regime.label, 100.0 * (1.0 - rel.mean()),
                    100.0 * (rel.max() - rel.min()));
    }
    return 0;
}
