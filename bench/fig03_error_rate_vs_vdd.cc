/**
 * @file
 * Fig. 3: average correctable errors (across still-alive cores) as a
 * function of speculation depth below nominal, at both frequency
 * points.
 *
 * Paper shape to reproduce: an error-free window exceeding 100 mV
 * below nominal in both regimes; beyond it the error rate ramps up as
 * Vdd drops; the low-Vdd regime produces far more errors (thousands
 * vs hundreds per 5-minute interval) over a much wider range.
 *
 * Each depth step is an independent trial on its own chip, run as one
 * pool task (--threads N selects the worker count; output is identical
 * for any N).
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

namespace
{

void
sweepRegime(const char *label, const ChipConfig &cfg,
            ExperimentPool &pool)
{
    const Millivolt nominal = cfg.operatingPoint.nominalVdd;
    const Seconds window = 3.0;          // Simulated seconds per step.
    const double to_five_min = 300.0 / window;

    std::printf("\n%s (nominal %.0f mV)\n", label, nominal);
    std::printf("%-18s %-12s %-14s %-12s\n", "depth below nom",
                "Vdd (mV)", "avg errors/5min", "cores alive");

    const auto points = experiments::errorRateVsDepthPooled(
        cfg, Suite::stress, 5.0, /*max_depth=*/260.0, /*step=*/10.0,
        window, /*tick=*/0.005, pool);

    for (const auto &point : points) {
        std::printf("%-18.0f %-12.0f %-14.0f %-12u\n", point.depthMv,
                    point.vdd, point.errorsPerCore.mean() * to_five_min,
                    point.coresAlive);
        if (point.coresAlive == 0)
            break;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {"--threads N"});
    setInformEnabled(false);
    ExperimentPool pool(parseThreads(argc, argv));
    banner("Figure 3", "average correctable errors vs speculation "
                       "depth");

    sweepRegime("2.53 GHz", makeHighConfig(), pool);
    sweepRegime("340 MHz", makeLowConfig(), pool);
    return 0;
}
