/**
 * @file
 * Fig. 14: dynamic adaptation of Vdd to abrupt load changes induced by
 * the stress kernel on the auxiliary core — (a) with the main core
 * idle, (b) with the main core running SPECfp.
 *
 * Paper shape to reproduce: the rail voltage tracks the 30 s on/off
 * stress pattern (raised while the kernel loads the rail, lowered when
 * it throttles), the error rate stays within the target band, and both
 * the idle-main and SPECfp-main cases complete without crashes.
 */

#include <cmath>

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

namespace
{

void
runCase(const char *label, bool main_loaded)
{
    Chip chip = makeLowChip();
    auto setup = harness::armHardware(chip);
    harness::assignIdle(chip);

    if (main_loaded) {
        chip.core(0).setWorkload(
            benchmarks::suiteSequence(Suite::specFp2000, 15.0));
    }
    chip.core(1).setWorkload(
        std::make_shared<StressKernelWorkload>(30.0, 30.0));

    Simulator sim(chip, 0.002);
    sim.attachControlSystem(setup.control.get());
    sim.enableTrace(2.0);
    sim.run(120.0);

    std::printf("\n(%s)\n", label);
    std::printf("%-8s %-10s %-12s %-10s\n", "t (s)", "kernel",
                "Vdd (mV)", "err rate");
    RunningStats on_v, off_v, all_v;
    for (const auto &sample : sim.trace().samples()) {
        const bool kernel_on =
            std::fmod(sample.time, 60.0) < 30.0;
        std::printf("%-8.0f %-10s %-12.1f %.3f\n", sample.time,
                    kernel_on ? "active" : "throttled",
                    sample.domainSetpoint[0],
                    sample.domainErrorRate[0]);
        if (sample.time > 20.0) {
            (kernel_on ? on_v : off_v).add(sample.domainSetpoint[0]);
            all_v.add(sample.domainSetpoint[0]);
        }
    }
    std::printf("mean Vdd: kernel active %.1f mV vs throttled %.1f mV "
                "(delta %.1f mV); crashed: %s\n",
                on_v.mean(), off_v.mean(), on_v.mean() - off_v.mean(),
                sim.anyCrashed() ? "YES" : "no");
}

} // namespace

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {});
    setInformEnabled(false);
    banner("Figure 14", "adaptation to stress-kernel load swings on "
                        "the shared rail");
    runCase("a: main core idle", false);
    runCase("b: main core running SPECfp", true);
    return 0;
}
