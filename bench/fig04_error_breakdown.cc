/**
 * @file
 * Fig. 4: number and type (instruction vs data L2 cache) of
 * correctable errors for each core over a 5-minute-equivalent run of
 * the benchmark mix with each core at its lowest safe voltage.
 *
 * Paper shape to reproduce: every core errs in its L2 caches only
 * (both I and D sides for most cores), with large core-to-core
 * variability in counts because each core's sensitive lines sit at
 * different addresses and the workload exercises them unevenly.
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {});
    setInformEnabled(false);
    banner("Figure 4", "correctable error breakdown per core at lowest "
                       "safe Vdd");

    Chip chip = makeLowChip();

    // Benchmark mix: memory- and compute-intensive apps back to back.
    auto mix = [] {
        std::vector<std::pair<std::shared_ptr<Workload>, Seconds>> phases;
        for (const char *name :
             {"mcf", "crafty", "swim", "sixtrack", "gcc", "art"}) {
            phases.emplace_back(std::make_shared<BenchmarkWorkload>(
                                    benchmarks::lookup(name)),
                                10.0);
        }
        return std::make_shared<SequenceWorkload>("mix",
                                                  std::move(phases));
    };

    const Seconds window = 30.0;  // Scaled to a 5-minute equivalent.
    const double scale = 300.0 / window;

    std::printf("%-8s %-14s %-16s %-16s %-10s\n", "core",
                "min safe (mV)", "I-cache errors", "D-cache errors",
                "other");

    for (unsigned c = 0; c < chip.numCores(); ++c) {
        // Characterize this core's lowest safe level first.
        const auto margin = experiments::measureMargins(
            chip, c, benchmarks::suiteSequence(Suite::stress, 5.0),
            /*hold=*/2.0, /*step=*/5.0);

        // Isolate the core (sibling idles in a firmware spin-loop) and
        // run the mix at that level.
        harness::assignIdle(chip);
        chip.core(c).setWorkload(mix());
        chip.domainOf(c).regulator().request(margin.minSafeVdd);
        chip.domainOf(c).regulator().advance(1.0);
        chip.core(c).clearCrash();

        Simulator sim(chip, 0.005);
        sim.run(window);

        std::uint64_t icache = 0, dcache = 0, other = 0;
        for (const auto &[key, count] :
             sim.eventLog().perCacheCorrectable()) {
            if (key == "L2I")
                icache += count;
            else if (key == "L2D")
                dcache += count;
            else
                other += count;
        }

        std::printf("Core %-3u %-14.0f %-16.0f %-16.0f %-10.0f\n", c,
                    margin.minSafeVdd, double(icache) * scale,
                    double(dcache) * scale, double(other) * scale);

        chip.core(c).clearCrash();
        chip.domainOf(c).regulator().request(800.0);
        chip.domainOf(c).regulator().advance(1.0);
    }

    std::printf("\n(all errors fall in the L2 I/D caches; 'other' "
                "must be 0 at low Vdd)\n");
    return 0;
}
