/**
 * @file
 * Table I: architectural and system details of the simulated BL860c-i4
 * Integrity server / Itanium 9560 platform.
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {});
    setInformEnabled(false);
    banner("Table I", "architectural and system details");

    Chip chip = makeLowChip();
    const Core &core = chip.core(0);

    auto geo_line = [](const char *label, const CacheGeometry &geo) {
        std::printf("%-24s %u-way %lluKB, %u-cycle\n", label,
                    geo.associativity,
                    (unsigned long long)(geo.sizeBytes / 1024),
                    geo.latencyCycles);
    };

    std::printf("%-24s %s\n", "Processor", "Itanium II 9560 (simulated)");
    std::printf("%-24s %u, in-order, 2 HW threads\n", "Cores",
                chip.numCores());
    std::printf("%-24s %.2f GHz (high), %.0f MHz (low)\n", "Frequency",
                OperatingPoint::high().frequency / 1000.0,
                OperatingPoint::low().frequency);
    std::printf("%-24s %.1f V (high), %.0f mV (low)\n", "Nominal Vdd",
                OperatingPoint::high().nominalVdd / 1000.0,
                OperatingPoint::low().nominalVdd);
    std::printf("%-24s %.2f KB int+fp, (39,32) SECDED\n",
                "Register file size",
                double(core.rfArray().geometry().sizeBytes) / 1024.0);
    geo_line("L1 data cache", core.dSide().l1().geometry());
    geo_line("L1 instruction cache", core.iSide().l1().geometry());
    geo_line("L2 data cache", core.dSide().l2().geometry());
    geo_line("L2 instruction cache", core.iSide().l2().geometry());
    geo_line("L3 unified (uncore)", itanium9560::l3Unified());
    std::printf("%-24s (72,64) SECDED per cache word\n", "ECC");
    std::printf("%-24s %u core domains (%u cores each) + uncore\n",
                "Voltage domains", chip.numDomains(),
                chip.config().coresPerDomain);
    std::printf("%-24s %.0f mV steps, %.0f-%.0f mV rail\n",
                "Voltage regulators",
                chip.config().regulator.stepMv,
                chip.config().regulator.minMv,
                chip.config().regulator.maxMv);
    std::printf("%-24s %.0f W TDP-class power model (uncore %.0f W)\n",
                "Power",
                chip.power().corePower(1100.0, 2530.0, 1.0, 60.0) * 8 +
                    chip.power().uncorePower(),
                chip.power().uncorePower());
    std::printf("%-24s %.2f MHz resonance, Q=%.1f\n", "PDN",
                chip.pdn().params().resonanceFreq,
                chip.pdn().params().qFactor);
    return 0;
}
