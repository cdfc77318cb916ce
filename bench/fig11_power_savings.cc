/**
 * @file
 * Fig. 11: total core-rail power under hardware speculation relative
 * to running at the reference (nominal) voltage, per benchmark suite.
 *
 * Paper shape to reproduce: ~33% power savings with little variation
 * across the four suites.
 */

#include "bench_util.hh"

using namespace vspec;
using namespace vspec_bench;

namespace
{

Watt
coreRailPower(Chip &chip, Seconds t)
{
    Watt total = 0.0;
    for (unsigned c = 0; c < chip.numCores(); ++c)
        total += chip.corePower(c, t);
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    requireKnownFlags(argc, argv, {"--json"});
    setInformEnabled(false);
    const bool json = parseJson(argc, argv);
    if (!json)
        banner("Figure 11", "relative power per suite under speculation");

    Chip chip = makeLowChip();
    auto setup = harness::armHardware(chip);
    const Millivolt nominal = chip.config().operatingPoint.nominalVdd;

    JsonWriter doc;
    doc.beginObject();
    doc.key("artifact").value("fig11");
    doc.key("suites").beginArray();

    if (!json)
        std::printf("%-14s %-16s %-16s %-12s\n", "suite", "nominal (W)",
                    "speculated (W)", "relative");

    RunningStats relative;
    for (Suite suite : evalSuites()) {
        for (unsigned d = 0; d < chip.numDomains(); ++d) {
            chip.domain(d).regulator().request(nominal);
            chip.domain(d).regulator().advance(1.0);
        }
        harness::assignSuite(chip, suite, 10.0);

        // Reference power at nominal (averaged over a short window).
        RunningStats ref;
        for (Seconds t = 0.0; t < 10.0; t += 0.5)
            ref.add(coreRailPower(chip, t));

        Simulator sim(chip, 0.002);
        sim.attachControlSystem(setup.control.get());
        sim.run(60.0);
        if (sim.anyCrashed())
            fatal("crash during speculation run");

        RunningStats spec;
        for (Seconds t = sim.now(); t < sim.now() + 10.0; t += 0.5)
            spec.add(coreRailPower(chip, t));

        const double ratio = spec.mean() / ref.mean();
        relative.add(ratio);
        doc.beginObject();
        doc.key("suite").value(suiteName(suite));
        doc.key("nominalWatts").value(ref.mean());
        doc.key("speculatedWatts").value(spec.mean());
        doc.key("relative").value(ratio);
        doc.endObject();
        if (!json)
            std::printf("%-14s %-16.2f %-16.2f %.3f\n", suiteName(suite),
                        ref.mean(), spec.mean(), ratio);
    }

    doc.endArray();
    doc.key("averageReductionPct").value(100.0 * (1.0 - relative.mean()));
    doc.endObject();

    if (json)
        doc.print();
    else
        std::printf("\naverage power reduction: %.1f%% (paper: ~33%%)\n",
                    100.0 * (1.0 - relative.mean()));
    return 0;
}
