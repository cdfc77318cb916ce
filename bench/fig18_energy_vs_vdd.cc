/**
 * @file
 * Fig. 18: core energy as a function of (forced) supply voltage for
 * the hardware and software speculation techniques, relative to the
 * energy at the low-Vdd nominal.
 *
 * Paper shape to reproduce: both curves track the falling P(V) until
 * correctable errors start; from there the software curve diverges
 * upward — firmware error handling stretches runtime faster than the
 * voltage saves power — while the hardware curve keeps falling until
 * the minimum safe voltage.
 *
 * The core with the widest first-error-to-crash window is used so the
 * divergence region is visible; the workload is the cache-intensive
 * stress kernel (broad working set), and the firmware handling cost is
 * 1 ms per error (machine-check trap + logging, the upper end of the
 * prior work's overhead).
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {});
    setInformEnabled(false);
    banner("Figure 18", "core energy vs Vdd, hardware vs software "
                        "handling");

    Chip chip = makeLowChip();

    // Pick the core with the widest window between its weakest L2
    // line and its logic crash floor.
    unsigned core_id = 0;
    double best_window = -1e9;
    for (unsigned c = 0; c < chip.numCores(); ++c) {
        auto [array, line] = experiments::weakestL2Line(chip.core(c));
        const double window = line.weakestVc - chip.core(c).logicFloor();
        if (window > best_window) {
            best_window = window;
            core_id = c;
        }
    }

    const Seconds window = 10.0;
    const Seconds error_cost = 1e-3;

    harness::assignIdle(chip);
    chip.core(core_id).setWorkload(std::make_shared<BenchmarkWorkload>(
        benchmarks::lookup("stress.cache")));
    VoltageDomain &dom = chip.domainOf(core_id);

    std::printf("core %u (weakest line %.0f mV, logic floor %.0f mV)\n\n",
                core_id, best_window + chip.core(core_id).logicFloor(),
                chip.core(core_id).logicFloor());
    std::printf("%-10s %-12s %-14s %-14s %-14s\n", "Vdd (mV)",
                "errors/s", "power (W)", "hw rel energy",
                "sw rel energy");

    double ref_energy = -1.0;
    std::uint64_t prev_events = 0;
    double prev_energy = 0.0;
    Simulator sim(chip, 0.005);

    for (Millivolt v = 800.0; v >= 540.0; v -= 10.0) {
        dom.regulator().request(v);
        dom.regulator().advance(1.0);
        chip.core(core_id).clearCrash();

        sim.run(window);

        const std::uint64_t events =
            sim.coreCorrectableEvents(core_id) - prev_events;
        prev_events = sim.coreCorrectableEvents(core_id);
        const double energy =
            sim.coreEnergy(core_id).energy() - prev_energy;
        prev_energy = sim.coreEnergy(core_id).energy();

        if (chip.core(core_id).crashed()) {
            std::printf("%-10.0f crashed — minimum safe voltage "
                        "reached\n",
                        v);
            break;
        }

        if (ref_energy < 0.0)
            ref_energy = energy;

        // Hardware: negligible per-error cost (idle-cycle probes).
        // Software: each correctable error costs firmware time, which
        // stretches runtime and therefore energy.
        const double overhead = double(events) * error_cost / window;
        const double hw_rel = energy / ref_energy;
        const double sw_rel = energy * (1.0 + overhead) / ref_energy;

        std::printf("%-10.0f %-12.1f %-14.3f %-14.3f %-14.3f\n", v,
                    double(events) / window, energy / window, hw_rel,
                    sw_rel);
    }

    std::printf("\n(software energy diverges upward once the error "
                "rate ramps;\nhardware keeps falling until the crash "
                "point)\n");
    return 0;
}
