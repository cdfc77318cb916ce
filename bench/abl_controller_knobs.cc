/**
 * @file
 * Ablation: the controller's mechanical knobs — probe rate, control
 * interval, and step size.
 *
 * Reports, for each knob setting, how long the system takes to settle
 * (within 10 mV of its final voltage), the settled voltage, and the
 * voltage jitter once settled. Shows the design's choices (50k
 * probes/s, 100 ms interval, 5 mV steps) are enough for stable
 * regulation, and what breaks when they are starved.
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

namespace
{

void
runCase(const char *label, double probes_per_sec, Seconds interval,
        Millivolt step)
{
    ControlPolicy policy;
    policy.controlInterval = interval;
    policy.stepMv = step;
    policy.emergencyStepMv = std::max(25.0, 5.0 * step);
    Calibrator::Config cal;
    EccMonitor::Config mon;
    mon.probesPerSecond = probes_per_sec;

    // armHardware uses the chip's monitor config; rebuild monitors by
    // arming manually with the desired probe rate.
    ChipConfig cfg;
    cfg.seed = evalSeed;
    cfg.monitor = mon;
    Chip tuned(cfg);
    auto setup = harness::armHardware(tuned, policy, cal);
    harness::assignSuite(tuned, Suite::coreMark, 10.0);

    Simulator sim(tuned, 0.002);
    sim.attachControlSystem(setup.control.get());
    sim.enableTrace(0.5);
    sim.run(60.0);

    // Settle time: first trace sample within 10 mV of the final mean.
    const auto &samples = sim.trace().samples();
    RunningStats tail_v;
    for (std::size_t i = samples.size() * 3 / 4; i < samples.size(); ++i)
        tail_v.add(samples[i].domainSetpoint[0]);
    Seconds settle = 0.0;
    for (const auto &s : samples) {
        if (std::abs(s.domainSetpoint[0] - tail_v.mean()) <= 10.0) {
            settle = s.time;
            break;
        }
    }

    std::printf("%-34s %-12.1f %-10.1f %-12.2f %-8s\n", label,
                tail_v.mean(), settle, tail_v.stddev(),
                sim.anyCrashed() ? "YES" : "no");
}

} // namespace

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {});
    setInformEnabled(false);
    banner("Ablation", "probe rate / control interval / step size");

    std::printf("%-34s %-12s %-10s %-12s %-8s\n", "configuration",
                "V (mV)", "settle (s)", "jitter (mV)", "crash");

    runCase("design: 50k/s, 100 ms, 5 mV", 50000.0, 0.1, 5.0);
    runCase("probe-starved: 500/s", 500.0, 0.1, 5.0);
    runCase("probe-rich: 500k/s", 500000.0, 0.1, 5.0);
    runCase("slow control: 1 s interval", 50000.0, 1.0, 5.0);
    runCase("fast control: 10 ms interval", 50000.0, 0.01, 5.0);
    runCase("coarse steps: 20 mV", 50000.0, 0.1, 20.0);
    runCase("fine steps: 2.5 mV", 50000.0, 0.1, 2.5);

    std::printf("\n(starving the probes leaves too few samples per "
                "interval to act, so the\nrail never moves; coarse "
                "steps settle fast but jitter around the band;\nand "
                "2.5 mV control steps are rounded away by the rail's "
                "5 mV regulator\nquantum — the control step must be at "
                "least the hardware step)\n");
    return 0;
}
