/**
 * @file
 * Managing aging (Section III-D): over the machine's lifetime, BTI
 * drift raises cell critical voltages and can change which line is
 * the weakest. The speculation system recalibrates periodically (e.g.
 * at boot), retargets the ECC monitors, and keeps operating at the
 * (now slightly higher) safe point.
 *
 * The example fast-forwards a die through several years of stress and
 * shows the recalibration keeping the system honest.
 */

#include <cstdio>

#include "vspec/vspec.hh"

using namespace vspec;

int
main()
{
    setInformEnabled(false);
    ChipConfig config;
    config.seed = 900;
    Chip chip(config);

    const AgingModel aging;  // Default BTI-style log-time drift.
    Rng age_rng = chip.rng().fork(0xA6E);
    const Seconds year = 365.0 * 24.0 * 3600.0;

    Calibrator calibrator;
    Rng cal_rng = chip.rng().fork(0xCA1);

    std::printf("%-8s %-10s %-22s %-16s\n", "age", "domain",
                "weakest line", "1st error (mV)");

    Seconds age = 0.0;
    for (int checkpoint = 0; checkpoint <= 3; ++checkpoint) {
        // Recalibrate every domain and (re)target its monitor.
        for (unsigned d = 0; d < chip.numDomains(); ++d) {
            std::vector<Core *> cores(chip.domain(d).cores().begin(),
                                      chip.domain(d).cores().end());
            auto target = calibrator.calibrateDomain(
                cores, config.operatingPoint.nominalVdd, cal_rng);
            if (!target)
                fatal("calibration failed");

            EccMonitor &monitor = chip.monitorFor(*target->array);
            monitor.activate(*target->array, target->set, target->way);

            std::printf("%2dy      %-10u core %u %s set %-5llu way %u  "
                        "%-16.0f\n",
                        checkpoint * 2, d, target->coreId,
                        target->cacheName.c_str(),
                        (unsigned long long)target->set, target->way,
                        target->firstErrorVdd);
        }

        // Prove the recalibrated system still speculates safely.
        HardwareSpeculationSetup setup = harness::armHardware(chip);
        harness::assignSuite(chip, Suite::specInt2000, 10.0);
        Simulator sim(chip, 0.002);
        sim.attachControlSystem(setup.control.get());
        sim.run(20.0);
        if (sim.anyCrashed())
            fatal("crash after recalibration at age ", checkpoint * 2,
                  " years");
        double mean_v = 0.0;
        for (unsigned d = 0; d < chip.numDomains(); ++d)
            mean_v += chip.domain(d).regulator().setpoint();
        std::printf("         -> safe operating mean: %.0f mV\n\n",
                    mean_v / chip.numDomains());

        // Fast-forward two years of stress.
        if (checkpoint < 3) {
            for (unsigned c = 0; c < chip.numCores(); ++c) {
                Core &core = chip.core(c);
                aging.advance(core.l2iArray().sram(), age, age + 2 * year,
                              age_rng);
                aging.advance(core.l2dArray().sram(), age, age + 2 * year,
                              age_rng);
            }
            age += 2 * year;
            // Regulators back to nominal for the next boot.
            for (unsigned d = 0; d < chip.numDomains(); ++d) {
                chip.domain(d).regulator().request(
                    config.operatingPoint.nominalVdd);
                chip.domain(d).regulator().advance(1.0);
            }
        }
    }

    std::printf("aging raised the weak lines' critical voltages; each "
                "recalibration\nretargeted the monitors and the system "
                "kept its guardband honest.\n");
    return 0;
}
