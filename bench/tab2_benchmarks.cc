/**
 * @file
 * Table II: applications and benchmarks used in the evaluation.
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {});
    setInformEnabled(false);
    banner("Table II", "applications and benchmarks");

    for (Suite suite :
         {Suite::coreMark, Suite::specJbb2005, Suite::specInt2000,
          Suite::specFp2000, Suite::stress}) {
        std::printf("\n%s:\n", suiteName(suite));
        for (const auto &profile : benchmarks::ofSuite(suite)) {
            std::printf("  %-18s activity %.2f  IPC %.2f  "
                        "L2D %.1fM/s  L2I %.1fM/s  coverage %.2f\n",
                        profile.name.c_str(), profile.activity,
                        profile.ipc, profile.l2dAccessesPerSec / 1e6,
                        profile.l2iAccessesPerSec / 1e6,
                        profile.coverage);
        }
    }
    return 0;
}
