/**
 * @file
 * Fig. 17: per-suite core energy of the hardware speculation system
 * and the firmware (software) baseline, relative to running at the
 * low-Vdd nominal.
 *
 * Paper shape to reproduce: hardware beats software on every suite —
 * software saves ~22% on average, hardware ~11 percentage points more
 * (~33%), because (a) the software technique parks at conservative
 * offline-characterized levels and (b) it pays firmware time per
 * handled error.
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

namespace
{

/** Total core energy of a run of the given suite. */
double
runCase(Chip &chip, Suite suite, VoltageControlSystem *hw,
        std::vector<std::unique_ptr<SoftwareSpeculator>> *sw)
{
    const Millivolt nominal = chip.config().operatingPoint.nominalVdd;
    for (unsigned d = 0; d < chip.numDomains(); ++d) {
        chip.domain(d).regulator().request(nominal);
        chip.domain(d).regulator().advance(1.0);
        chip.core(2 * d).clearCrash();
        chip.core(2 * d + 1).clearCrash();
    }
    harness::assignSuite(chip, suite, 10.0);

    Simulator sim(chip, 0.002);
    if (hw)
        sim.attachControlSystem(hw);
    if (sw) {
        for (unsigned d = 0; d < chip.numDomains(); ++d)
            sim.attachSoftwareSpeculator(d, (*sw)[d].get());
    }
    sim.run(60.0);
    if (sim.anyCrashed())
        fatal("crash during ", suiteName(suite), " energy run");

    double energy = 0.0;
    for (unsigned c = 0; c < chip.numCores(); ++c)
        energy += sim.coreEnergy(c).energy();
    return energy;
}

} // namespace

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {});
    setInformEnabled(false);
    banner("Figure 17", "energy: hardware vs software speculation, "
                        "relative to nominal");

    // Three identical chips: reference, hardware, software.
    Chip ref_chip = makeLowChip();
    Chip hw_chip = makeLowChip();
    Chip sw_chip = makeLowChip();

    auto hw = harness::armHardware(hw_chip);
    std::vector<Millivolt> floors;
    for (const auto &target : hw.targets)
        floors.push_back(target.firstErrorVdd + 10.0);
    auto sw = harness::armSoftware(sw_chip, floors);

    std::printf("%-14s %-14s %-14s %-12s %-12s\n", "suite",
                "sw rel energy", "hw rel energy", "sw saving",
                "hw saving");

    RunningStats sw_savings, hw_savings;
    for (Suite suite : evalSuites()) {
        const double ref =
            runCase(ref_chip, suite, nullptr, nullptr);
        const double hw_energy =
            runCase(hw_chip, suite, hw.control.get(), nullptr);
        const double sw_energy =
            runCase(sw_chip, suite, nullptr, &sw);

        const double hw_rel = hw_energy / ref;
        const double sw_rel = sw_energy / ref;
        hw_savings.add(100.0 * (1.0 - hw_rel));
        sw_savings.add(100.0 * (1.0 - sw_rel));
        std::printf("%-14s %-14.3f %-14.3f %-12.1f %-12.1f\n",
                    suiteName(suite), sw_rel, hw_rel,
                    100.0 * (1.0 - sw_rel), 100.0 * (1.0 - hw_rel));
    }

    std::printf("\naverage energy savings: software %.1f%%, hardware "
                "%.1f%% (+%.1f points)\n",
                sw_savings.mean(), hw_savings.mean(),
                hw_savings.mean() - sw_savings.mean());
    std::printf("(paper: software ~22%%, hardware ~33%%)\n");
    return 0;
}
