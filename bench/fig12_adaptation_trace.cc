/**
 * @file
 * Fig. 12: supply voltage and monitored error-rate trace while mcf and
 * crafty run back to back under the speculation system.
 *
 * Paper shape to reproduce: the voltage continuously adapts in 5 mV
 * steps, the steady-state error rate stays inside the [1%, 5%] target
 * band, and the context switch from the memory-bound mcf to the
 * compute-bound crafty is absorbed without crashes.
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {});
    setInformEnabled(false);
    banner("Figure 12", "dynamic adaptation: mcf followed by crafty");

    Chip chip = makeLowChip();
    auto setup = harness::armHardware(chip);

    // mcf then crafty on the monitored domain's cores.
    auto sequence = std::make_shared<SequenceWorkload>(
        "mcf-crafty",
        std::vector<std::pair<std::shared_ptr<Workload>, Seconds>>{
            {std::make_shared<BenchmarkWorkload>(benchmarks::lookup(
                 "mcf")),
             60.0},
            {std::make_shared<BenchmarkWorkload>(benchmarks::lookup(
                 "crafty")),
             60.0}});
    for (unsigned c = 0; c < chip.numCores(); ++c)
        chip.core(c).setWorkload(sequence);

    Simulator sim(chip, 0.002);
    sim.attachControlSystem(setup.control.get());
    sim.enableTrace(1.0);
    sim.run(120.0);

    std::printf("%-8s %-12s %-12s %-12s %-10s\n", "t (s)", "phase",
                "Vdd (mV)", "V_eff (mV)", "err rate");
    for (const auto &sample : sim.trace().samples()) {
        const char *phase =
            sequence->phaseIndexAt(sample.time) == 0 ? "mcf" : "crafty";
        std::printf("%-8.0f %-12s %-12.1f %-12.1f %.3f\n", sample.time,
                    phase, sample.domainSetpoint[0],
                    sample.domainEffective[0],
                    sample.domainErrorRate[0]);
    }

    // Steady-state summary over the second half of each phase.
    RunningStats rate;
    for (const auto &sample : sim.trace().samples()) {
        if (sample.time > 30.0)
            rate.add(sample.domainErrorRate[0]);
    }
    std::printf("\ncrashed: %s; mean steady error rate %.3f "
                "(target band [0.01, 0.05])\n",
                sim.anyCrashed() ? "YES" : "no", rate.mean());
    return 0;
}
