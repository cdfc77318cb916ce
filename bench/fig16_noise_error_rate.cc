/**
 * @file
 * Fig. 16: self-test error rate of the main core as a function of
 * supply voltage with the auxiliary core (a) idle, (b) running the
 * NOP-0 virus, (c) running the resonant NOP-8 virus.
 *
 * Paper shape to reproduce: the NOP-8 curve sits above the NOP-0
 * curve across the whole voltage range even though NOP-0 draws more
 * average power — the signature of resonance — and both sit above the
 * idle curve.
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {});
    setInformEnabled(false);
    banner("Figure 16", "error rate vs Vdd under different auxiliary "
                        "loads");

    Chip chip = makeLowChip();
    Core &main_core = chip.core(0);
    auto [array, line] = experiments::weakestL2Line(main_core);

    struct Load
    {
        const char *label;
        std::shared_ptr<Workload> workload;
    };
    Load loads[] = {
        {"aux NOP-8", std::make_shared<VoltageVirusWorkload>(8)},
        {"aux NOP-0", std::make_shared<VoltageVirusWorkload>(0)},
        {"no aux load", std::make_shared<IdleWorkload>()},
    };

    std::printf("%-10s", "Vdd (mV)");
    for (const auto &load : loads)
        std::printf("  %-12s", load.label);
    std::printf("\n");

    Rng rng = chip.rng().fork(0xF16);
    const Millivolt top = line.weakestVc + 45.0;
    for (Millivolt v = top; v >= top - 90.0; v -= 5.0) {
        std::printf("%-10.0f", v);
        for (const auto &load : loads) {
            const ActivityProfile rail =
                main_core.workloadSampleAt(0.0).activity.combinedWith(
                    load.workload->sampleAt(0.0).activity);
            const Millivolt v_eff = v - chip.pdn().droop(rail);
            const ProbeStats stats =
                array->probeLine(line.set, line.way, v_eff, 20000, rng);
            std::printf("  %-12.4f", stats.errorRate());
        }
        std::printf("\n");
    }

    std::printf("\n(NOP-8 > NOP-0 > idle across the range: cache lines "
                "are sensitive\nenough to expose resonant voltage "
                "noise)\n");
    return 0;
}
