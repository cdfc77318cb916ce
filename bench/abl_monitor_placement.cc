/**
 * @file
 * Ablation: why the calibration step must find the *weakest* line.
 *
 * The mechanism's safety rests on the monitored line erring before
 * any line that holds real data. This ablation arms the system three
 * ways — monitoring the weakest line (the design), the 4th-weakest
 * line, and a random line — and reports the settled voltage plus how
 * often *unmonitored* workload lines raised errors (the leading edge
 * of unsafety; with a random monitor the controller happily dives
 * past the real margin).
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

namespace
{

struct Outcome
{
    Millivolt meanV = 0.0;
    std::uint64_t workloadErrors = 0;
    std::uint64_t uncorrectable = 0;
    bool crashed = false;
};

Outcome
run(unsigned rank)
{
    Chip chip = makeLowChip();

    // Arm each domain's monitor at the rank-th weakest line of the
    // domain's weakest array (rank 0 = the design point). A huge rank
    // stands in for "random line" (effectively never errs).
    VoltageControlSystem control;
    ControlPolicy policy;
    policy.maxVdd = 800.0;
    for (unsigned d = 0; d < chip.numDomains(); ++d) {
        CacheArray *array = nullptr;
        Millivolt best = -1.0;
        for (Core *core : chip.domain(d).cores()) {
            for (CacheArray *candidate :
                 {&core->l2iArray(), &core->l2dArray()}) {
                const Millivolt vc =
                    candidate->weakestLine().weakestVc;
                if (vc > best) {
                    best = vc;
                    array = candidate;
                }
            }
        }
        const auto lines = array->weakLines();
        const auto &line = lines.at(std::min<std::size_t>(
            rank, lines.size() - 1));
        EccMonitor &monitor = chip.monitorFor(*array);
        monitor.activate(*array, line.set, line.way);
        control.addDomain(chip.domain(d).regulator(), monitor, policy);
    }

    harness::assignSuite(chip, Suite::specFp2000, 10.0);
    Simulator sim(chip, 0.002);
    sim.attachControlSystem(&control);
    sim.run(45.0);

    Outcome outcome;
    RunningStats v;
    for (unsigned d = 0; d < chip.numDomains(); ++d)
        v.add(chip.domain(d).regulator().setpoint());
    outcome.meanV = v.mean();
    outcome.workloadErrors = sim.eventLog().correctableCount();
    outcome.uncorrectable = sim.eventLog().uncorrectableCount();
    outcome.crashed = sim.anyCrashed();
    return outcome;
}

} // namespace

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {});
    setInformEnabled(false);
    banner("Ablation", "monitor placement: weakest vs weaker vs random "
                       "line");

    struct Case
    {
        const char *label;
        unsigned rank;
    };
    const Case cases[] = {
        {"weakest line (design)", 0},
        {"4th-weakest line", 3},
        {"random line (~coldest)", 100000},
    };

    std::printf("%-24s %-12s %-18s %-14s %-8s\n", "monitored line",
                "mean V (mV)", "workload errors", "uncorrectable",
                "crash");
    for (const Case &c : cases) {
        const Outcome o = run(c.rank);
        std::printf("%-24s %-12.1f %-18llu %-14llu %-8s\n", c.label,
                    o.meanV, (unsigned long long)o.workloadErrors,
                    (unsigned long long)o.uncorrectable,
                    o.crashed ? "YES" : "no");
    }

    std::printf("\n(monitoring anything but the weakest line makes the "
                "controller blind:\nit keeps lowering the rail while "
                "real data lines err — and eventually\ncorrupt)\n");
    return 0;
}
