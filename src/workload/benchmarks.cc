#include "workload/benchmarks.hh"

#include <cmath>

#include "common/logging.hh"

namespace vspec
{

BenchmarkWorkload::BenchmarkWorkload(BenchmarkProfile profile)
    : prof(std::move(profile))
{
    if (prof.activity < 0.0 || prof.activity > 1.0)
        fatal("benchmark '", prof.name, "': activity must be in [0, 1]");
    if (prof.phasePeriod <= 0.0)
        fatal("benchmark '", prof.name, "': phase period must be positive");
    phaseOffset = hash01(prof.name, 0x9999, 0, 0) * prof.phasePeriod;
}

WorkloadSample
BenchmarkWorkload::sampleAt(Seconds t) const
{
    WorkloadSample sample;

    // Slow program phases modulate activity and traffic around the
    // profile means. Deterministic per benchmark via a phase offset.
    const double phase = std::sin(2.0 * 3.14159265358979 *
                                  (t + phaseOffset) / prof.phasePeriod);
    const double mod = 1.0 + prof.phaseSwing * phase;

    sample.activity.meanActivity =
        std::min(1.0, std::max(0.0, prof.activity * mod));
    sample.ipc = prof.ipc * mod;
    sample.l2dAccessesPerSec = prof.l2dAccessesPerSec * mod;
    sample.l2iAccessesPerSec = prof.l2iAccessesPerSec * mod;
    return sample;
}

namespace benchmarks
{

namespace
{

BenchmarkProfile
make(const std::string &name, Suite suite, double activity, double ipc,
     double l2d_per_sec, double l2i_per_sec, double coverage,
     double phase_swing, Seconds phase_period)
{
    BenchmarkProfile p;
    p.name = name;
    p.suite = suite;
    p.activity = activity;
    p.ipc = ipc;
    p.l2dAccessesPerSec = l2d_per_sec;
    p.l2iAccessesPerSec = l2i_per_sec;
    p.coverage = coverage;
    p.phaseSwing = phase_swing;
    p.phasePeriod = phase_period;
    return p;
}

} // namespace

std::vector<BenchmarkProfile>
coreMark()
{
    // Small-footprint mobile kernels: high activity, tiny working sets.
    return {
        make("coremark.list", Suite::coreMark, 0.72, 1.5, 6.0e5, 1.0e5,
             0.35, 0.05, 10.0),
        make("coremark.matrix", Suite::coreMark, 0.80, 1.7, 9.0e5, 0.8e5,
             0.40, 0.05, 8.0),
        make("coremark.state", Suite::coreMark, 0.68, 1.4, 4.0e5, 1.4e5,
             0.30, 0.08, 12.0),
        make("coremark.crc", Suite::coreMark, 0.76, 1.6, 5.0e5, 0.6e5,
             0.25, 0.04, 9.0),
    };
}

std::vector<BenchmarkProfile>
specJbb2005()
{
    // Transactional Java server load, 8 warehouses: broad working set,
    // steady medium activity with GC-driven phases.
    return {
        make("specjbb.8wh", Suite::specJbb2005, 0.62, 1.1, 3.5e6, 1.2e6,
             0.85, 0.15, 15.0),
    };
}

std::vector<BenchmarkProfile>
specInt2000()
{
    return {
        make("gzip", Suite::specInt2000, 0.66, 1.3, 1.8e6, 2.0e5, 0.55,
             0.10, 18.0),
        make("vpr", Suite::specInt2000, 0.58, 1.0, 2.6e6, 3.0e5, 0.65,
             0.12, 22.0),
        make("gcc", Suite::specInt2000, 0.60, 1.0, 3.0e6, 1.5e6, 0.80,
             0.20, 14.0),
        make("mcf", Suite::specInt2000, 0.38, 0.4, 7.5e6, 1.5e5, 0.90,
             0.25, 25.0),
        make("crafty", Suite::specInt2000, 0.78, 1.6, 0.9e6, 5.0e5, 0.45,
             0.06, 16.0),
        make("parser", Suite::specInt2000, 0.55, 0.9, 2.2e6, 4.0e5, 0.60,
             0.10, 20.0),
        make("eon", Suite::specInt2000, 0.72, 1.5, 0.8e6, 6.0e5, 0.40,
             0.05, 12.0),
        make("perlbmk", Suite::specInt2000, 0.64, 1.2, 1.6e6, 9.0e5, 0.65,
             0.12, 17.0),
        make("gap", Suite::specInt2000, 0.61, 1.1, 2.4e6, 3.5e5, 0.60,
             0.10, 19.0),
        make("vortex", Suite::specInt2000, 0.59, 1.0, 2.8e6, 1.1e6, 0.75,
             0.14, 21.0),
        make("bzip2", Suite::specInt2000, 0.67, 1.3, 2.0e6, 1.8e5, 0.55,
             0.09, 15.0),
        make("twolf", Suite::specInt2000, 0.56, 0.9, 2.4e6, 2.5e5, 0.60,
             0.11, 23.0),
    };
}

std::vector<BenchmarkProfile>
specFp2000()
{
    return {
        make("swim", Suite::specFp2000, 0.52, 0.7, 6.5e6, 1.0e5, 0.92,
             0.18, 26.0),
        make("mgrid", Suite::specFp2000, 0.58, 0.9, 5.0e6, 1.0e5, 0.85,
             0.12, 24.0),
        make("applu", Suite::specFp2000, 0.56, 0.8, 5.5e6, 1.2e5, 0.88,
             0.15, 28.0),
        make("mesa", Suite::specFp2000, 0.70, 1.4, 1.2e6, 4.0e5, 0.50,
             0.06, 14.0),
        make("galgel", Suite::specFp2000, 0.63, 1.1, 3.2e6, 1.5e5, 0.70,
             0.10, 20.0),
        make("art", Suite::specFp2000, 0.45, 0.5, 7.0e6, 0.8e5, 0.90,
             0.22, 30.0),
        make("equake", Suite::specFp2000, 0.50, 0.7, 5.8e6, 1.5e5, 0.85,
             0.16, 27.0),
        make("facerec", Suite::specFp2000, 0.62, 1.1, 2.8e6, 2.0e5, 0.65,
             0.09, 18.0),
        make("ammp", Suite::specFp2000, 0.54, 0.8, 4.2e6, 1.8e5, 0.78,
             0.13, 25.0),
        make("lucas", Suite::specFp2000, 0.60, 1.0, 4.8e6, 0.9e5, 0.80,
             0.11, 22.0),
        make("fma3d", Suite::specFp2000, 0.65, 1.2, 3.0e6, 3.0e5, 0.70,
             0.10, 19.0),
        make("sixtrack", Suite::specFp2000, 0.74, 1.5, 1.5e6, 2.5e5, 0.55,
             0.05, 13.0),
    };
}

std::vector<BenchmarkProfile>
stressTest()
{
    // The HP server stress test: CPU-intensive FP/INT kernels plus
    // cache/memory-intensive kernels. High activity AND broad cache
    // coverage — the workload used to characterize voltage margins.
    return {
        make("stress.cpu-int", Suite::stress, 0.92, 1.8, 1.0e6, 2.0e5,
             0.50, 0.05, 6.0),
        make("stress.cpu-fp", Suite::stress, 0.95, 1.9, 1.2e6, 1.5e5,
             0.50, 0.05, 6.0),
        make("stress.cache", Suite::stress, 0.75, 1.0, 9.0e6, 2.5e6,
             0.98, 0.08, 7.0),
        make("stress.memory", Suite::stress, 0.70, 0.8, 8.0e6, 1.0e6,
             0.98, 0.10, 9.0),
    };
}

std::vector<BenchmarkProfile>
all()
{
    std::vector<BenchmarkProfile> profiles;
    for (auto source : {coreMark, specJbb2005, specInt2000, specFp2000,
                        stressTest}) {
        auto batch = source();
        profiles.insert(profiles.end(), batch.begin(), batch.end());
    }
    return profiles;
}

std::vector<BenchmarkProfile>
ofSuite(Suite suite)
{
    std::vector<BenchmarkProfile> result;
    for (const auto &profile : all()) {
        if (profile.suite == suite)
            result.push_back(profile);
    }
    return result;
}

BenchmarkProfile
lookup(const std::string &name)
{
    for (const auto &profile : all()) {
        if (profile.name == name)
            return profile;
    }
    fatal("unknown benchmark '", name, "'");
}

std::shared_ptr<Workload>
suiteSequence(Suite suite, Seconds per_benchmark)
{
    const auto profiles = ofSuite(suite);
    if (profiles.empty())
        fatal("suite '", suiteName(suite), "' has no benchmark profiles");

    std::vector<std::pair<std::shared_ptr<Workload>, Seconds>> phases;
    for (const auto &profile : profiles) {
        phases.emplace_back(std::make_shared<BenchmarkWorkload>(profile),
                            per_benchmark);
    }
    return std::make_shared<SequenceWorkload>(
        std::string(suiteName(suite)) + ".suite", std::move(phases));
}

} // namespace benchmarks

} // namespace vspec
