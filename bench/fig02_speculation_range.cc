/**
 * @file
 * Fig. 2: voltage speculation range for each core at high and low
 * frequency — the error-free range (nominal down to the first
 * correctable error) and the correctable-error range (first error
 * down to the lowest safe Vdd).
 *
 * Paper shape to reproduce: both ranges are much larger at low Vdd;
 * the correctable-error range is ~4x larger at 340 MHz than at
 * 2.53 GHz, giving the speculation system much earlier feedback.
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {});
    setInformEnabled(false);
    banner("Figure 2", "voltage speculation ranges per core");

    struct Point
    {
        const char *label;
        Chip chip;
    };
    Point points[] = {{"2.53 GHz", makeHighChip()},
                      {"340 MHz", makeLowChip()}};

    std::printf("%-8s %-10s %-12s %-12s %-16s %-16s\n", "core", "regime",
                "1st err mV", "min safe mV", "err-free rng mV",
                "corr-err rng mV");

    RunningStats ranges[2];
    int idx = 0;
    for (auto &point : points) {
        auto stress = benchmarks::suiteSequence(Suite::stress, 5.0);
        const Millivolt nominal =
            point.chip.config().operatingPoint.nominalVdd;
        for (unsigned c = 0; c < point.chip.numCores(); ++c) {
            const auto result = experiments::measureMargins(
                point.chip, c, stress, /*hold=*/2.0, /*step=*/5.0);
            const double error_free =
                result.firstErrorVdd > 0.0
                    ? nominal - result.firstErrorVdd
                    : nominal - result.minSafeVdd;
            const double corr_range =
                result.firstErrorVdd > 0.0
                    ? result.firstErrorVdd - result.minSafeVdd
                    : 0.0;
            ranges[idx].add(corr_range);
            std::printf("Core %-3u %-10s %-12.0f %-12.0f %-16.0f "
                        "%-16.0f\n",
                        c, point.label, result.firstErrorVdd,
                        result.minSafeVdd, error_free, corr_range);
        }
        ++idx;
    }

    std::printf("\ncorrectable-error range: high %.0f mV vs low %.0f mV "
                "(low/high = %.1fx; paper: ~4x)\n",
                ranges[0].mean(), ranges[1].mean(),
                ranges[1].mean() / std::max(1.0, ranges[0].mean()));
    return 0;
}
