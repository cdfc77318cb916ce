/**
 * @file
 * Ablation (the paper's §V-C future work): tailoring the controller's
 * error-rate floor and ceiling.
 *
 * The paper uses floor 1% / ceiling 5% for every domain and observes
 * that margins of 10-20 mV exist above the ceiling, "indicating some
 * potential for tailoring the values of the floor or ceiling"; it
 * leaves the optimization for future work. This ablation runs it:
 * sweep (floor, ceiling) pairs and report the settled voltage, the
 * residual crash margin of the monitored line, and the emergency
 * counts — the aggressiveness/safety trade the knobs buy.
 *
 * Each band is a 60-second closed-loop simulation on its own chip, run
 * as one pool task (--threads N selects the worker count; output is
 * identical for any N).
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

namespace
{

struct Band
{
    double floor;
    double ceiling;
};

struct BandResult
{
    RunningStats setpoint;
    std::uint64_t emergencies = 0;
    double worstMargin = 1e9;
    bool crashed = false;
};

} // namespace

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {"--threads N"});
    setInformEnabled(false);
    ExperimentPool pool(parseThreads(argc, argv));
    banner("Ablation", "controller error-rate band tuning (paper "
                       "future work, §V-C)");

    const std::vector<Band> bands = {
        {0.001, 0.005},  // Very conservative.
        {0.002, 0.01},
        {0.01, 0.05},    // The paper's setting.
        {0.05, 0.15},
        {0.10, 0.30},    // Aggressive.
    };

    std::printf("%-16s %-12s %-12s %-14s %-12s %-8s\n", "band",
                "mean V (mV)", "red. (%)", "margin (mV)", "emergencies",
                "crash");

    auto outcomes = pool.run(
        evalSeed, bands.size(), [&](ExperimentTaskContext &ctx) {
            const Band &band = bands[ctx.index];
            Chip chip(makeLowConfig());
            ControlPolicy policy;
            policy.floorRate = band.floor;
            policy.ceilingRate = band.ceiling;
            auto setup = harness::armHardware(chip, policy);
            harness::assignSuite(chip, Suite::specInt2000, 10.0);

            Simulator sim(chip, 0.002);
            sim.attachControlSystem(setup.control.get());
            sim.run(60.0);

            BandResult result;
            for (unsigned d = 0; d < chip.numDomains(); ++d) {
                result.setpoint.add(
                    chip.domain(d).regulator().setpoint());
                result.emergencies +=
                    setup.control->domain(d).emergencies();

                // Margin: settled effective voltage above the weakest
                // logic floor in the domain (the hard crash line).
                Millivolt floor_mv = 0.0;
                for (Core *core : chip.domain(d).cores())
                    floor_mv = std::max(floor_mv, core->logicFloor());
                result.worstMargin = std::min(
                    result.worstMargin,
                    chip.domain(d).effectiveVoltage(chip.pdn()) -
                        floor_mv);
            }
            result.crashed = sim.anyCrashed();
            return result;
        });

    for (std::size_t i = 0; i < bands.size(); ++i) {
        if (!outcomes[i].ok()) {
            std::fprintf(stderr, "band %zu failed: %s\n", i,
                         outcomes[i].error.c_str());
            return 1;
        }
        const BandResult &result = *outcomes[i].value;
        char label[32];
        std::snprintf(label, sizeof(label), "[%.1f%%, %.1f%%]",
                      100.0 * bands[i].floor, 100.0 * bands[i].ceiling);
        std::printf("%-16s %-12.1f %-12.1f %-14.1f %-12llu %-8s\n",
                    label, result.setpoint.mean(),
                    100.0 * (800.0 - result.setpoint.mean()) / 800.0,
                    result.worstMargin,
                    (unsigned long long)result.emergencies,
                    result.crashed ? "YES" : "no");
    }

    std::printf("\n(aggressive bands buy a few more mV but shrink the "
                "crash margin and\ntrip the emergency path more often "
                "— the paper's 1%%/5%% sits at the\nknee)\n");
    return 0;
}
