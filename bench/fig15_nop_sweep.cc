/**
 * @file
 * Fig. 15: correctable errors observed by the targeted self-test on
 * the main core while the auxiliary core runs voltage-virus variants
 * with 0..20 interleaved NOPs.
 *
 * Paper shape to reproduce: a pronounced error spike around 8 NOPs —
 * the variant whose power oscillation matches the PDN resonance —
 * even though lower NOP counts have *higher* average power. Away from
 * resonance the count falls back down.
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {});
    setInformEnabled(false);
    banner("Figure 15", "self-test errors vs NOP count of the voltage "
                        "virus");

    Chip chip = makeLowChip();
    Core &main_core = chip.core(0);
    Core &aux_core = chip.core(1);
    auto [array, line] = experiments::weakestL2Line(main_core);

    // Probe at a fixed voltage chosen so the quiet-rail error rate is
    // small but measurable; resonant droop pushes it up sharply.
    const Millivolt v_set = line.weakestVc +
                            3.0 * array->sram()
                                      .distribution()
                                      .sigmaDynamic;
    const std::uint64_t probes = 50000;

    std::printf("virus oscillation: f = 340 MHz / (8 + NOPs); PDN "
                "resonance at %.2f MHz (NOP-8)\n\n",
                chip.pdn().params().resonanceFreq);
    std::printf("%-8s %-12s %-12s %-14s %-10s\n", "NOPs", "f (MHz)",
                "droop (mV)", "errors/50k", "rel power");

    Rng rng = chip.rng().fork(0xF15);
    for (unsigned nops = 0; nops <= 20; ++nops) {
        auto virus = std::make_shared<VoltageVirusWorkload>(nops);
        aux_core.setWorkload(virus);
        main_core.setWorkload(std::make_shared<IdleWorkload>());

        // Rail activity: main core idle + virus on the sibling.
        const ActivityProfile rail =
            main_core.workloadSampleAt(0.0).activity.combinedWith(
                virus->sampleAt(0.0).activity);
        const Millivolt droop = chip.pdn().droop(rail);
        const Millivolt v_eff = v_set - droop;

        const ProbeStats stats =
            array->probeLine(line.set, line.way, v_eff, probes, rng);

        std::printf("%-8u %-12.2f %-12.1f %-14llu %-10.2f\n", nops,
                    virus->oscillationFrequency(), droop,
                    (unsigned long long)stats.correctableEvents,
                    virus->sampleAt(0.0).activity.meanActivity);
    }

    std::printf("\n(peak expected at NOP-8: oscillation on the PDN "
                "resonance)\n");
    return 0;
}
