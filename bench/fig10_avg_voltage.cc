/**
 * @file
 * Fig. 10: average per-core voltage achieved by the hardware voltage
 * speculation system for each benchmark suite, against the 800 mV low
 * nominal.
 *
 * Paper shape to reproduce: an ~18% average reduction (13-23% across
 * cores, dominated by process variation) with very little variability
 * across the four suites — the system targets the weakest lines
 * directly instead of relying on the workload.
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {"--json"});
    setInformEnabled(false);
    const bool json = parseJson(argc, argv);
    if (!json)
        banner("Figure 10", "average core voltages under hardware "
                            "speculation, per suite");

    Chip chip = makeLowChip();
    auto setup = harness::armHardware(chip);
    const Millivolt nominal = chip.config().operatingPoint.nominalVdd;

    JsonWriter doc;
    doc.beginObject();
    doc.key("artifact").value("fig10");
    doc.key("nominalMv").value(double(nominal));
    doc.key("suites").beginArray();

    if (!json) {
        std::printf("%-14s", "suite");
        for (unsigned c = 0; c < chip.numCores(); ++c)
            std::printf("  core%-2u", c);
        std::printf("   mean-red%%\n");
    }

    RunningStats per_suite_reduction;
    for (Suite suite : evalSuites()) {
        // Restart from nominal for each suite.
        for (unsigned d = 0; d < chip.numDomains(); ++d) {
            chip.domain(d).regulator().request(nominal);
            chip.domain(d).regulator().advance(1.0);
        }
        harness::assignSuite(chip, suite, 10.0);

        Simulator sim(chip, 0.002);
        sim.attachControlSystem(setup.control.get());
        sim.enableTrace(1.0);
        sim.run(60.0);
        if (sim.anyCrashed())
            fatal("crash during speculation run — unsafe configuration");

        // Mean setpoint over the settled second half.
        const auto &samples = sim.trace().samples();
        if (!json)
            std::printf("%-14s", suiteName(suite));
        doc.beginObject();
        doc.key("suite").value(suiteName(suite));
        doc.key("coreVddMv").beginArray();
        RunningStats reduction;
        for (unsigned c = 0; c < chip.numCores(); ++c) {
            const unsigned d = chip.domainIndexOf(c);
            RunningStats v;
            for (std::size_t i = samples.size() / 2; i < samples.size();
                 ++i)
                v.add(samples[i].domainSetpoint[d]);
            if (!json)
                std::printf("  %-6.0f", v.mean());
            doc.value(v.mean());
            reduction.add(100.0 * (nominal - v.mean()) / nominal);
        }
        doc.endArray();
        doc.key("meanReductionPct").value(reduction.mean());
        doc.endObject();
        if (!json)
            std::printf("   %.1f%%\n", reduction.mean());
        per_suite_reduction.add(reduction.mean());
    }

    doc.endArray();
    doc.key("averageReductionPct").value(per_suite_reduction.mean());
    doc.endObject();

    if (json)
        doc.print();
    else
        std::printf("\naverage Vdd reduction across suites: %.1f%% "
                    "(paper: ~18%%, range 13-23%%)\n",
                    per_suite_reduction.mean());
    return 0;
}
