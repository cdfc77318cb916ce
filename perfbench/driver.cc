/**
 * @file
 * The repository benchmark driver: one workload per process.
 *
 *   perfbench --workload calibrate|speculate|selftest|fleet_scale
 *             --seed N --seconds S
 *             [--workers N] [--episodes N] [--trace SPANS_FILE]
 *
 * Every workload calls the library's public API on inputs generated
 * from --seed, repeats whole episodes until --seconds of host time have
 * passed (or exactly --episodes of them), checks the simulated outputs
 * and prints one JSON document on stdout: the build stamp, the digest
 * of the simulated statistics, the checks made and failed, and the
 * end-to-end metrics. With --trace, spans around the benchmark's calls
 * into each layer are recorded in memory, written to SPANS_FILE at the
 * end, and summarized into the per-layer metrics. perfbench/run.py is
 * the command that drives this binary; perfbench/README.md explains the
 * workloads and metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "common/simd.hh"
#include "fleet/shard.hh"
#include "span_trace.hh"

using namespace vspec;
using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::secondsSince;
using perfbench::SpanRecorder;

namespace
{

/**
 * Set-up is repeated this many times and setup_s is the median; the
 * speculate set-up (a full calibration) is long enough to need fewer.
 */
constexpr unsigned kSetupReps = 9;
constexpr unsigned kLongSetupReps = 3;

// ---------------------------------------------------------------- utils

/** FNV-1a over the bit patterns of the simulated statistics. */
class Digest
{
  public:
    Digest &add(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (value >> (8 * i)) & 0xFF;
            hash *= 0x100000001B3ULL;
        }
        return *this;
    }

    Digest &add(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        return add(bits);
    }

    Digest &add(const std::string &text)
    {
        for (unsigned char ch : text) {
            hash ^= ch;
            hash *= 0x100000001B3ULL;
        }
        return add(std::uint64_t(text.size()));
    }

    std::uint64_t value() const { return hash; }

    std::string hex() const
    {
        char buffer[17];
        std::snprintf(buffer, sizeof(buffer), "%016llx",
                      (unsigned long long)hash);
        return buffer;
    }

  private:
    std::uint64_t hash = 0xCBF29CE484222325ULL;
};

/** Checks made on the simulated outputs; each failure is one count. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> messages;

    void expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (messages.size() < 16)
            messages.push_back(what);
    }
};

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Nearest-rank percentile (p in (0, 100]). */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t rank =
        std::size_t(std::ceil(p / 100.0 * double(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / double(values.size());
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/**
 * Machine-speed reference. The shared hosts this benchmark runs on
 * change speed by up to ~30% over seconds (other tenants), which swamps
 * run-to-run comparisons of plain wall time. Every timed step is
 * therefore bracketed by two runs of this fixed compute-only kernel (an
 * L1-resident table, xorshift and exp; ~34 us) on the thread that runs
 * the step, and the step's steady_clock time is rescaled by the ratio of
 * the kernel's nominal to its measured duration. The kernel is benchmark
 * code, so no library change can move it; the raw times are reported
 * alongside (see perfbench/README.md).
 */
class SpeedReference
{
  public:
    SpeedReference()
    {
        for (std::size_t i = 0; i < table.size(); ++i)
            table[i] = i * 0x9E3779B97F4A7C15ULL;
        for (int i = 0; i < 3; ++i) // warm caches and branch predictors
            factor();
    }

    /** Nominal over measured duration of one kernel run (1 = nominal). */
    double factor()
    {
        const Clock::time_point start = Clock::now();
        double sum = 0.0;
        for (int i = 0; i < kIterations; ++i) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            const std::uint64_t v = table[state & 1023];
            sum += std::exp(-double(v & 1023) * 1e-3);
            table[state & 1023] += v;
        }
        if (!(sum > 0.0))
            std::abort(); // never: keeps the kernel from being elided
        return kNominalMs / (secondsSince(start) * 1e3);
    }

  private:
    static constexpr int kIterations = 5000;
    /** Kernel duration on an unloaded 2 GHz x86-64 host (ms). */
    static constexpr double kNominalMs = 0.034;
    std::array<std::uint64_t, 1024> table{};
    std::uint64_t state = 88172645463325252ULL;
};

/** Host time of one step: raw, and rescaled to the reference speed. */
struct StepTime
{
    double rawMs = 0.0;
    double ms = 0.0;
};

/** Speed factor of the calling thread. */
double
threadSpeed()
{
    thread_local SpeedReference reference;
    return reference.factor();
}

/**
 * Mean speed factor of the pool's workers, for steps that run on them:
 * one reference task per worker.
 */
double
poolSpeed(ExperimentPool &pool)
{
    const auto factors = pool.run(0, pool.numThreads(),
                                  [](ExperimentTaskContext &) {
                                      return threadSpeed();
                                  });
    double sum = 0.0;
    for (const auto &f : factors)
        sum += f.value.value_or(1.0);
    return sum / double(factors.size());
}

/**
 * Run @p fn as one timed step, rescaled by @p speed measured just before
 * and just after it.
 */
template <typename Fn, typename Speed = double (*)()>
StepTime
timeStep(Fn &&fn, Speed &&speed = threadSpeed)
{
    const double before = speed();
    const Clock::time_point start = Clock::now();
    fn();
    const double raw = secondsSince(start) * 1e3;
    const double after = speed();
    return {raw, raw * 0.5 * (before + after)};
}

/** Raw and rescaled step times of one run. */
struct StepTimes
{
    std::vector<double> ms;
    std::vector<double> rawMs;

    void add(const StepTime &t)
    {
        ms.push_back(t.ms);
        rawMs.push_back(t.rawMs);
    }

    std::size_t size() const { return ms.size(); }

    /** Rescaled over raw time, summed over the steps. */
    double speedFactor() const
    {
        double raw = 0.0, scaled = 0.0;
        for (std::size_t i = 0; i < ms.size(); ++i) {
            raw += rawMs[i];
            scaled += ms[i];
        }
        return raw > 0.0 ? scaled / raw : 1.0;
    }
};

// -------------------------------------------------------------- results

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** A reported percentile and the sample count behind it. */
struct PercentileInfo
{
    std::string name;
    double percentile = 50.0;
    std::size_t samples = 0;
};

/** What one workload run measured. */
struct Result
{
    std::string digest;
    std::uint64_t episodes = 0;
    double timedWallS = 0.0;
    /** Work units done in the timed phase, and their unit. */
    double work = 0.0;
    std::string workUnit;
    /**
     * Host time per timed step, with its tail percentile: p90 where a
     * run has thousands of steps (p95 and above still moved by 10-15%
     * between runs on the shared hosts, from stalls too short for the
     * speed reference to see).
     */
    StepTimes steps;
    double tailPercentile = 90.0;
    std::string stepName;
    double vddReductionPct = 0.0;
    /**
     * Work counts reported as rates over the same (rescaled) timed wall
     * time under the workload's own names ("dies_per_s", ...).
     */
    std::vector<std::pair<std::string, double>> rates;
    /** Further metrics under the workload's own names (detail line). */
    std::vector<Metric> named;
    /** Per-layer metrics (traced runs), in report order. */
    std::vector<Metric> layers;
    std::vector<PercentileInfo> layerPercentiles;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    unsigned workers = 0;
    /** Exactly this many episodes instead of --seconds (0 = timed). */
    std::uint64_t episodes = 0;
    std::string tracePath;
};

/**
 * Episode loop: whole episodes until --seconds have passed and at least
 * @p min_steps steps are done, or exactly --episodes of them.
 */
class EpisodeBudget
{
  public:
    explicit EpisodeBudget(const Options &opt)
        : seconds(opt.seconds), fixed(opt.episodes)
    {
    }

    bool more(std::uint64_t done, std::size_t steps,
              std::size_t min_steps) const
    {
        if (fixed > 0)
            return done < fixed;
        return steps < min_steps || secondsSince(start) < seconds;
    }

    double elapsed() const { return secondsSince(start); }

  private:
    double seconds;
    std::uint64_t fixed;
    Clock::time_point start = Clock::now();
};

/** Median duration (ms) of the spans called @p name. */
double
spanMedianMs(const SpanRecorder &rec, const char *name)
{
    return median(rec.durationsMs(name));
}

/** Mean per-call time of @p calls invocations of @p fn, in ns. */
double
timePerCallNs(std::size_t calls, const std::function<void(std::size_t)> &fn)
{
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < calls; ++i)
        fn(i);
    return secondsSince(start) * 1e9 / double(calls);
}

double
reductionPct(Millivolt nominal, Millivolt vdd)
{
    return 100.0 * (nominal - vdd) / nominal;
}

/** DomainController decision counters, summed over domains. */
struct ControllerCounts
{
    std::uint64_t down = 0;
    std::uint64_t up = 0;
    std::uint64_t emergencies = 0;
    std::uint64_t holds = 0;

    void add(const DomainController &c)
    {
        down += c.stepsDown();
        up += c.stepsUp();
        emergencies += c.emergencies();
        holds += c.holds();
    }

    void digestInto(Digest &d) const
    {
        d.add(down).add(up).add(emergencies).add(holds);
    }

    void appendMetrics(std::vector<Metric> &layers) const
    {
        layers.push_back({"core.ctrl_steps_down", double(down), "count"});
        layers.push_back({"core.ctrl_steps_up", double(up), "count"});
        layers.push_back(
            {"core.ctrl_emergencies", double(emergencies), "count"});
        layers.push_back({"core.ctrl_holds", double(holds), "count"});
    }
};

/** Designated lines and first-error levels, as calibration chose them. */
void
digestTargets(Digest &d, const std::vector<WeakLineTarget> &targets)
{
    for (const WeakLineTarget &t : targets)
        d.add(std::uint64_t(t.coreId))
            .add(t.cacheName)
            .add(t.set)
            .add(std::uint64_t(t.way))
            .add(t.firstErrorVdd);
}

/**
 * Per-domain Vdd reduction band of Fig. 10 (EXPERIMENTS.md: the paper
 * reports 13-23% across cores).
 */
constexpr double kBandLowPct = 13.0;
constexpr double kBandHighPct = 23.0;

// ------------------------------------------------------------ calibrate

/**
 * calibrate: build and arm a stream of distinct dies, one die per
 * ExperimentPool task, alternating the low and high operating points.
 */
namespace calibrate
{

constexpr std::size_t kDiesPerBatch = 8;
/**
 * A die task takes ~1.5 s of host time on 4 workers, so a 15 s run arms
 * about 40 dies: enough for ten samples beyond p75, the tail this
 * workload reports.
 */
constexpr std::size_t kMinDies = 40;
constexpr double kTailPercentile = 75.0;
/** Dies re-armed on one worker to check thread-count invariance
 *  (one low-point and one high-point die). */
constexpr std::size_t kVerifyDies = 2;

ChipConfig
dieConfig(std::uint64_t seed, std::size_t index)
{
    ChipConfig cfg;
    cfg.seed = mix64(seed, index);
    if (index % 2 == 1)
        cfg.operatingPoint = OperatingPoint::high();
    return cfg;
}

struct DieResult
{
    std::uint64_t digest = 0;
    StepTime time;
    bool armed = false;
    std::size_t domains = 0;
    /** Mean first-error Vdd reduction over the die's domains (%). */
    double firstErrorReductionPct = 0.0;
    /** Voltage levels swept over all domains (the calibration work). */
    double levels = 0.0;
    bool firstErrorsInRange = false;
    /** Traced probes (0 when untraced). */
    double calibrateLevels = 0.0;
    double sweepLines = 0.0;
};

DieResult
armDie(const ChipConfig &cfg, SpanRecorder &rec, std::int32_t parent,
       std::uint64_t probe_seed)
{
    ScopedSpan task(rec, "calibrate.die", parent);
    DieResult out;

    std::optional<Chip> chip;
    {
        ScopedSpan span(rec, "variation.chip_build");
        chip.emplace(cfg);
    }
    HardwareSpeculationSetup setup;
    {
        ScopedSpan span(rec, "platform.arm");
        setup = harness::armHardware(*chip);
    }

    const Millivolt nominal = cfg.operatingPoint.nominalVdd;
    const Calibrator::Config calibration;
    Digest digest;
    double reduction = 0.0;
    out.firstErrorsInRange = !setup.targets.empty();
    digestTargets(digest, setup.targets);
    for (const WeakLineTarget &t : setup.targets) {
        reduction += reductionPct(nominal, t.firstErrorVdd);
        out.levels += std::round((nominal - t.firstErrorVdd) /
                                 calibration.stepMv) +
                      1.0;
        out.firstErrorsInRange =
            out.firstErrorsInRange && t.firstErrorVdd <= nominal &&
            t.firstErrorVdd > nominal - calibration.maxDepthMv;
    }
    out.domains = setup.targets.size();
    out.armed = out.domains == chip->numDomains();
    out.firstErrorReductionPct =
        setup.targets.empty() ? 0.0
                              : reduction / double(setup.targets.size());
    out.digest = digest.value();

    if (rec.enabled() && !setup.targets.empty()) {
        // Layer probes on the armed die: one more domain calibration and
        // one sweep of each array kind at domain 0's first-error level.
        Rng rng(probe_seed);
        VoltageDomain &dom = chip->domain(0);
        const std::vector<Core *> cores(dom.cores().begin(),
                                        dom.cores().end());
        {
            ScopedSpan span(rec, "core.calibrate_domain");
            const auto target =
                Calibrator(calibration).calibrateDomain(cores, nominal, rng);
            if (target)
                out.calibrateLevels =
                    std::round((nominal - target->firstErrorVdd) /
                               calibration.stepMv) +
                    1.0;
        }
        const Millivolt level = setup.targets[0].firstErrorVdd;
        {
            ScopedSpan span(rec, "cache.data_sweep");
            out.sweepLines = double(
                sweep::dataSweep(cores[0]->l2dArray(), level,
                                 calibration.readsPerPattern, rng)
                    .linesTested);
        }
        {
            ScopedSpan span(rec, "cache.instr_sweep");
            sweep::instructionSweep(cores[0]->l2iArray(), level,
                                    calibration.readsPerPattern *
                                        sweep::dataPatterns.size(),
                                    rng);
        }
    }
    return out;
}

std::vector<DieResult>
armBatch(ExperimentPool &pool, std::uint64_t seed, std::size_t first,
         std::size_t count, SpanRecorder &rec, Checks *checks)
{
    ScopedSpan batch(rec, "calibrate.batch");
    const std::int32_t parent = batch.id();
    auto outcomes = pool.run(
        mix64(seed, first), count, [&](ExperimentTaskContext &ctx) {
            DieResult out;
            const StepTime time = timeStep([&] {
                out = armDie(dieConfig(seed, first + ctx.index), rec,
                             parent, ctx.seed);
            });
            out.time = time;
            return out;
        });
    std::vector<DieResult> results;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (checks)
            checks->expect(outcomes[i].ok(),
                           "die " + std::to_string(first + i) +
                               " threw: " + outcomes[i].error);
        results.push_back(outcomes[i].ok() ? *outcomes[i].value
                                           : DieResult{});
    }
    return results;
}

Result
run(const Options &opt, unsigned workers, SpanRecorder &rec,
    Checks &checks, StepTimes &setup)
{
    Result res;
    // Work is counted in domain-level sweeps, not dies: dies differ in how
    // deep their first error sits, and the level count removes that
    // seed-to-seed difference from work_per_s and the step times.
    res.workUnit = "domain voltage levels swept";
    res.stepName = "die task time per domain voltage level swept";
    res.tailPercentile = kTailPercentile;

    // Set-up: the worker pool plus one warm die build, so lazy
    // registries (codecs, LUTs) are filled before timing starts.
    std::unique_ptr<ExperimentPool> pool;
    {
        ScopedSpan span(rec, "setup");
        for (unsigned rep = 0; rep < kSetupReps; ++rep) {
            setup.add(timeStep([&] {
                pool = std::make_unique<ExperimentPool>(workers);
                Chip warm(dieConfig(opt.seed, 0));
            }));
        }
    }

    std::vector<DieResult> dies;
    double busy_ms = 0.0;
    {
        ScopedSpan span(rec, "timed");
        EpisodeBudget budget(opt);
        while (budget.more(res.episodes, dies.size(), kMinDies)) {
            auto batch =
                armBatch(*pool, opt.seed, dies.size(), kDiesPerBatch, rec,
                         &checks);
            dies.insert(dies.end(), batch.begin(), batch.end());
            ++res.episodes;
        }
        res.timedWallS = budget.elapsed();
    }

    std::vector<double> reductions;
    Digest digest;
    for (std::size_t i = 0; i < dies.size(); ++i) {
        const DieResult &d = dies[i];
        checks.expect(d.armed, "die " + std::to_string(i) +
                                   " armed " + std::to_string(d.domains) +
                                   " domains");
        checks.expect(d.firstErrorsInRange,
                      "die " + std::to_string(i) +
                          " first-error Vdd outside the sweep range");
        const double levels = std::max(1.0, d.levels);
        res.steps.add({d.time.rawMs / levels, d.time.ms / levels});
        busy_ms += d.time.rawMs;
        if (i < kMinDies)
            reductions.push_back(d.firstErrorReductionPct);
        if (i < kDiesPerBatch)
            digest.add(d.digest);
    }
    res.digest = digest.hex();
    res.rates = {{"dies_per_s", double(dies.size())}};
    for (const DieResult &d : dies)
        res.work += d.levels;
    res.vddReductionPct = mean(reductions);

    {
        // The same dies on one worker must arm identically.
        ScopedSpan span(rec, "verify");
        ExperimentPool single(1);
        SpanRecorder off(false);
        const auto again =
            armBatch(single, opt.seed, 0, kVerifyDies, off, nullptr);
        bool same = true;
        for (std::size_t i = 0; i < kVerifyDies; ++i)
            same = same && again[i].digest == dies[i].digest;
        checks.expect(same, "die digests differ between " +
                                std::to_string(workers) +
                                " workers and 1 worker");
    }

    if (rec.enabled()) {
        std::vector<double> levels, lines;
        for (const DieResult &d : dies) {
            levels.push_back(d.calibrateLevels);
            lines.push_back(d.sweepLines);
        }
        res.layers = {
            {"variation.chip_build_ms",
             spanMedianMs(rec, "variation.chip_build"), "ms"},
            {"platform.arm_ms", spanMedianMs(rec, "platform.arm"), "ms"},
            {"core.calibrate_domain_ms",
             spanMedianMs(rec, "core.calibrate_domain"), "ms"},
            {"core.calibrate_levels", median(levels), "count"},
            {"cache.data_sweep_ms", spanMedianMs(rec, "cache.data_sweep"),
             "ms"},
            {"cache.instr_sweep_ms",
             spanMedianMs(rec, "cache.instr_sweep"), "ms"},
            {"cache.sweep_lines", median(lines), "count"},
            {"platform.pool_busy_frac",
             busy_ms / (1e3 * double(workers) * res.timedWallS), "ratio"},
        };
    }
    return res;
}

} // namespace calibrate

// ------------------------------------------------------------ speculate

/**
 * speculate: the closed loop with hardware ECC monitors on one
 * calibrated low-point die, recovery and fault injection armed, over
 * the four evaluation suites and a voltage-virus stress phase.
 */
namespace speculate
{

constexpr Seconds kTick = 0.002;
constexpr std::uint64_t kTicksPerChunk = 500; // 1 simulated second
constexpr unsigned kSuiteSeconds = 30;
constexpr unsigned kVirusSeconds = 20;
/** Enough 1 s chunks for the tail percentiles to be resolved. */
constexpr std::size_t kMinChunks = 200;

FaultInjector::Config
faults()
{
    // Rates far above field rates so every episode sees each fault
    // class (the same shape as the fig_resilience campaign).
    FaultInjector::Config f;
    f.bitFlipsPerHour = 600.0;
    f.dueFlipsPerHour = 60.0;
    f.droopsPerHour = 240.0;
    f.droopMagnitudeMv = 25.0;
    f.droopDuration = 0.05;
    f.monitorDropoutsPerHour = 60.0;
    f.dropoutDuration = 1.0;
    f.stuckRegulatorsPerHour = 60.0;
    f.stuckDuration = 1.0;
    return f;
}

struct Armed
{
    std::unique_ptr<Chip> chip;
    HardwareSpeculationSetup setup;
    std::unique_ptr<RecoveryManager> recovery;
    /**
     * One injector for the whole run: a monitor dropout or stuck
     * regulator open when a phase ends must still be closed in the
     * next phase, not abandoned with a per-phase injector.
     */
    std::unique_ptr<FaultInjector> injector;
};

/**
 * The evaluation die of the paper benches (EXPERIMENTS.md measures its
 * Fig. 10 reductions), calibrated and armed. The workload seed then
 * reseeds the chip RNG, so every stream drawn after set-up (core
 * traffic, monitor probes, the fault schedule) comes from the seed.
 */
Armed
arm(std::uint64_t seed)
{
    Armed a;
    a.chip = std::make_unique<Chip>(vspec_bench::makeLowConfig());
    a.setup = harness::armHardware(*a.chip);
    a.chip->rng() = Rng(mix64(seed, 0x5BEC));
    RecoveryManager::Config rc;
    rc.checkpointInterval = 2.0;
    rc.recoveryLatency = 0.5;
    a.recovery = harness::armRecovery(*a.chip, rc);
    a.injector = harness::armFaultInjector(*a.chip, faults());
    return a;
}

/** What one phase (a suite, or the virus) of an episode produced. */
struct Phase
{
    /**
     * Median setpoint per domain over the settled second half. The
     * median, not the mean, so one injected DUE (rail reset to nominal,
     * then a ~3 s descent) does not move the settled value.
     */
    std::vector<double> domainSettledMv;
    std::uint64_t correctable = 0;
    double energyJ = 0.0;
    bool crashed = false;
};

/** Layer probes run between chunks of a traced run. */
struct Probes
{
    std::unique_ptr<Chip> chip;
    EccMonitor monitor;
    CacheArray *array = nullptr;
    std::uint64_t set = 0;
    unsigned way = 0;
    Rng rng{0};
    std::vector<double> burstUs;
    std::vector<double> lineProbNs;

    void run(SpanRecorder &rec, Millivolt v)
    {
        {
            ScopedSpan span(rec, "core.monitor_burst");
            const Clock::time_point start = Clock::now();
            monitor.runProbes(kTick, v, rng);
            burstUs.push_back(secondsSince(start) * 1e6);
        }
        ScopedSpan span(rec, "cache.line_prob");
        double pc = 0.0, pu = 0.0, sink = 0.0;
        lineProbNs.push_back(timePerCallNs(256, [&](std::size_t i) {
            array->lineEventProbabilities(set, way, v - 0.01 * double(i),
                                          pc, pu);
            sink += pc + pu;
        }));
        if (sink < 0.0)
            std::abort();
    }
};

Phase
runPhase(Armed &a, std::function<void()> assign, unsigned seconds,
         SpanRecorder &rec, StepTimes &chunks, Probes *probes)
{
    Chip &chip = *a.chip;
    const Millivolt nominal = chip.config().operatingPoint.nominalVdd;
    for (unsigned d = 0; d < chip.numDomains(); ++d) {
        chip.domain(d).regulator().request(nominal);
        chip.domain(d).regulator().advance(1.0);
    }
    assign();

    Simulator sim(chip, kTick);
    sim.attachControlSystem(a.setup.control.get());
    sim.attachRecoveryManager(a.recovery.get());
    sim.attachFaultInjector(a.injector.get());

    Phase phase;
    std::vector<std::vector<double>> settled(chip.numDomains());
    for (unsigned s = 0; s < seconds; ++s) {
        chunks.add(timeStep([&] {
            ScopedSpan span(rec, "platform.sim_chunk");
            sim.runTicks(kTicksPerChunk);
        }));
        if (2 * s >= seconds) { // settled second half
            for (unsigned d = 0; d < chip.numDomains(); ++d)
                settled[d].push_back(chip.domain(d).regulator().setpoint());
        }
        if (probes)
            probes->run(rec, chip.domain(0).regulator().setpoint());
    }
    for (const std::vector<double> &samples : settled)
        phase.domainSettledMv.push_back(median(samples));
    for (unsigned c = 0; c < chip.numCores(); ++c)
        phase.correctable += sim.coreCorrectableEvents(c);
    phase.energyJ = sim.chipEnergy().energy();
    phase.crashed = sim.anyCrashed();
    return phase;
}

Result
run(const Options &opt, SpanRecorder &rec, Checks &checks,
    StepTimes &setup)
{
    Result res;
    res.workUnit = "simulated seconds";
    res.stepName = "1 s Simulator::runTicks chunk";

    Armed a;
    {
        ScopedSpan span(rec, "setup");
        for (unsigned rep = 0; rep < kLongSetupReps; ++rep)
            setup.add(timeStep([&] { a = arm(opt.seed); }));
    }

    std::optional<Probes> probes;
    if (rec.enabled()) {
        ScopedSpan span(rec, "probe_setup");
        probes.emplace();
        probes->chip =
            std::make_unique<Chip>(vspec_bench::makeLowConfig());
        const WeakLineTarget &t = a.setup.targets.at(0);
        Core &core = probes->chip->core(t.coreId);
        probes->array = t.cacheName == core.l2iArray().geometry().name
                            ? &core.l2iArray()
                            : &core.l2dArray();
        probes->set = t.set;
        probes->way = t.way;
        probes->monitor.activate(*probes->array, t.set, t.way);
        probes->rng = Rng(mix64(opt.seed, 0x9B0BE));
    }

    Chip &chip = *a.chip;
    const Millivolt nominal = chip.config().operatingPoint.nominalVdd;
    Digest digest;
    digestTargets(digest, a.setup.targets);

    std::vector<double> episode0_reductions;
    std::uint64_t correctable0 = 0;
    double energy0 = 0.0;
    ControllerCounts ctrl0;
    std::uint64_t recoveries0 = 0;
    {
        ScopedSpan span(rec, "timed");
        EpisodeBudget budget(opt);
        while (budget.more(res.episodes, res.steps.size(), kMinChunks)) {
            ScopedSpan episode(rec, "speculate.episode");
            std::vector<Phase> phases;
            for (Suite suite : vspec_bench::evalSuites()) {
                phases.push_back(runPhase(
                    a, [&] { harness::assignSuite(chip, suite, 10.0); },
                    kSuiteSeconds, rec, res.steps,
                    probes ? &*probes : nullptr));
                for (unsigned d = 0; d < chip.numDomains(); ++d) {
                    const double red =
                        reductionPct(nominal, phases.back().domainSettledMv[d]);
                    checks.expect(red >= kBandLowPct && red <= kBandHighPct,
                                  std::string(suiteName(suite)) +
                                      " domain " + std::to_string(d) +
                                      " reduction " + std::to_string(red) +
                                      "% outside the Fig. 10 band");
                    if (res.episodes == 0)
                        episode0_reductions.push_back(red);
                }
            }
            // Voltage-virus stress: the resonant 8-NOP virus on every
            // odd core beside SPECfp on every even core.
            phases.push_back(runPhase(
                a,
                [&] {
                    for (unsigned c = 0; c < chip.numCores(); ++c) {
                        if (c % 2)
                            chip.core(c).setWorkload(
                                std::make_shared<VoltageVirusWorkload>(8));
                        else
                            chip.core(c).setWorkload(
                                benchmarks::suiteSequence(
                                    Suite::specFp2000, 10.0));
                    }
                },
                kVirusSeconds, rec, res.steps,
                probes ? &*probes : nullptr));

            for (const Phase &p : phases) {
                checks.expect(!p.crashed, "unrecovered crash latched");
                if (res.episodes == 0) {
                    for (double mv : p.domainSettledMv)
                        digest.add(mv);
                    digest.add(p.correctable).add(p.energyJ);
                    correctable0 += p.correctable;
                    energy0 += p.energyJ;
                }
            }
            checks.expect(a.recovery->abandonedCores() == 0,
                          "recovery abandoned a core");
            if (res.episodes == 0) {
                for (std::size_t d = 0; d < a.setup.control->numDomains();
                     ++d)
                    ctrl0.add(a.setup.control->domain(d));
                recoveries0 = a.recovery->recoveries();
                ctrl0.digestInto(digest);
                digest.add(recoveries0);
            }
            ++res.episodes;
        }
        res.timedWallS = budget.elapsed();
    }

    res.digest = digest.hex();
    res.work = double(res.steps.size());
    res.rates = {{"sim_s_per_s", res.work}};
    res.vddReductionPct = mean(episode0_reductions);

    if (rec.enabled()) {
        const auto chunks = rec.durationsMs("platform.sim_chunk");
        res.layers = {
            {"platform.sim_chunk_p50_ms", percentile(chunks, 50.0), "ms"},
            {"platform.sim_chunk_p95_ms", percentile(chunks, 95.0), "ms"},
            {"platform.sim_chunks", double(chunks.size()), "count"},
            {"platform.ticks", double(chunks.size() * kTicksPerChunk),
             "count"},
            {"core.monitor_burst_us", median(probes->burstUs), "us"},
            {"cache.line_prob_ns", median(probes->lineProbNs), "ns"},
            {"cache.workload_correctable", double(correctable0), "count"},
            {"resilience.recoveries", double(recoveries0), "count"},
            {"power.chip_energy_j", energy0, "J"},
        };
        ctrl0.appendMetrics(res.layers);
        res.layerPercentiles = {
            {"platform.sim_chunk_p50_ms", 50.0, chunks.size()},
            {"platform.sim_chunk_p95_ms", 95.0, chunks.size()},
        };
    }
    return res;
}

} // namespace speculate

// ------------------------------------------------------------- selftest

/**
 * selftest: the firmware self-test of Fig. 8 as the feedback source of
 * a DomainController on every voltage domain of one low-point die.
 */
namespace selftest
{

constexpr Seconds kTick = 0.005;
constexpr unsigned kTicksPerEpisode = 100; // 0.5 simulated seconds
/**
 * Each episode starts this far above the domain's weakest cell, where
 * the error rate sits just under the control band, so the episode
 * covers the descent into the band and the regulation inside it.
 */
constexpr Millivolt kStartAboveMv = 20.0;
constexpr std::size_t kMinTicks = 2 * kTicksPerEpisode;
/** vdd_reduction_pct averages the first two (always run) episodes. */
constexpr std::uint64_t kReportedEpisodes = 2;

struct Domain
{
    CacheHierarchy *side = nullptr;
    std::uint64_t set = 0;
    unsigned way = 0;
    Millivolt weakestVc = 0.0;
};

struct Armed
{
    std::unique_ptr<Chip> chip;
    std::vector<Domain> domains;
};

/**
 * The weakest L2 line of every domain of the evaluation die (no
 * calibration sweep); the workload seed drives the self-test streams.
 */
Armed
arm()
{
    Armed a;
    a.chip = std::make_unique<Chip>(vspec_bench::makeLowConfig());
    for (unsigned d = 0; d < a.chip->numDomains(); ++d) {
        Domain best;
        for (Core *core : a.chip->domain(d).cores()) {
            const std::pair<CacheHierarchy *, WeakLineInfo> sides[] = {
                {&core->iSide(), core->l2iArray().weakestLine()},
                {&core->dSide(), core->l2dArray().weakestLine()}};
            for (const auto &[side, line] : sides) {
                if (!best.side || line.weakestVc > best.weakestVc)
                    best = {side, line.set, line.way, line.weakestVc};
            }
        }
        a.domains.push_back(best);
    }
    return a;
}

/** Layer probes on a private copy of the die. */
struct Probes
{
    std::unique_ptr<Chip> chip;
    std::unique_ptr<TargetedLineTest> test;
    CacheHierarchy *side = nullptr;
    const EccCodec *codec = nullptr;
    Rng rng{0};
    std::vector<double> targetedUs;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Accesses = 0;
    std::vector<double> accessNs;
    std::vector<double> decodeNs;

    void run(SpanRecorder &rec, Millivolt v)
    {
        {
            ScopedSpan span(rec, "cache.targeted_test");
            const Clock::time_point start = Clock::now();
            const TargetedTestResult r = test->run(1, v, rng);
            targetedUs.push_back(secondsSince(start) * 1e6);
            l2Hits += r.l2Hits;
            l2Accesses += r.l2Hits + r.l2Misses;
        }
        {
            ScopedSpan span(rec, "cache.hierarchy_access");
            const auto &addrs = test->targetAddresses();
            accessNs.push_back(timePerCallNs(64, [&](std::size_t i) {
                side->access(addrs[i % addrs.size()], v, rng);
            }));
        }
        ScopedSpan span(rec, "ecc.decode");
        Codeword word = codec->encode(0x0123456789ABCDEFULL);
        word.flipBit(5);
        std::uint64_t sink = 0;
        decodeNs.push_back(timePerCallNs(256, [&](std::size_t) {
            sink += codec->decode(word).data;
        }));
        if (sink == 1)
            std::abort();
    }
};

Result
run(const Options &opt, SpanRecorder &rec, Checks &checks,
    StepTimes &setup)
{
    Result res;
    res.workUnit = "simulated seconds";
    res.stepName = "5 ms tick of every domain";

    Armed a;
    {
        ScopedSpan span(rec, "setup");
        for (unsigned rep = 0; rep < kSetupReps; ++rep)
            setup.add(timeStep([&] { a = arm(); }));
    }
    Chip &chip = *a.chip;
    const Millivolt nominal = chip.config().operatingPoint.nominalVdd;

    std::optional<Probes> probes;
    if (rec.enabled()) {
        ScopedSpan span(rec, "probe_setup");
        probes.emplace();
        probes->chip =
            std::make_unique<Chip>(vspec_bench::makeLowConfig());
        Core &core = probes->chip->core(0);
        probes->side = &core.dSide();
        const WeakLineInfo line = core.l2dArray().weakestLine();
        probes->test =
            std::make_unique<TargetedLineTest>(*probes->side, line.set);
        probes->codec = &core.l2dArray().codec();
        probes->rng = Rng(mix64(opt.seed, 0x5E1F));
    }

    Digest digest;
    for (const Domain &d : a.domains)
        digest.add(d.set).add(std::uint64_t(d.way)).add(d.weakestVc);

    std::vector<double> reductions;
    ControllerCounts ctrl0;
    std::vector<double> selftest_accesses;
    {
        ScopedSpan span(rec, "timed");
        EpisodeBudget budget(opt);
        while (budget.more(res.episodes, res.steps.size(), kMinTicks)) {
            ScopedSpan episode(rec, "selftest.episode");
            ControlPolicy policy;
            policy.maxVdd = nominal;
            std::vector<std::unique_ptr<FirmwareSelfTest>> tests;
            std::vector<std::unique_ptr<DomainController>> ctrls;
            std::vector<Rng> rngs;
            for (unsigned d = 0; d < chip.numDomains(); ++d) {
                const Domain &dom = a.domains[d];
                dom.side->invalidateAll();
                VoltageRegulator &reg = chip.domain(d).regulator();
                reg.request(std::min(nominal, dom.weakestVc + kStartAboveMv));
                reg.advance(1.0);
                tests.push_back(std::make_unique<FirmwareSelfTest>(
                    *dom.side, dom.set, dom.way));
                ctrls.push_back(std::make_unique<DomainController>(
                    reg, *tests.back(), policy));
                rngs.push_back(Rng(mix64(mix64(opt.seed, res.episodes), d)));
            }
            std::uint64_t accesses = 0;
            bool uncorrectable = false;
            std::vector<std::vector<double>> settled(chip.numDomains());
            // One 5 ms tick of every domain: self-test, control, rail.
            const auto tick_all = [&](unsigned t) {
                for (unsigned d = 0; d < chip.numDomains(); ++d) {
                    VoltageRegulator &reg = chip.domain(d).regulator();
                    ProbeStats stats;
                    {
                        ScopedSpan tick(rec, "core.selftest_tick");
                        stats = tests[d]->runTests(kTick, reg.output(),
                                                   rngs[d]);
                    }
                    if (rec.enabled())
                        selftest_accesses.push_back(double(stats.accesses));
                    accesses += stats.accesses;
                    uncorrectable =
                        uncorrectable || stats.uncorrectableEvents > 0;
                    ctrls[d]->tick(kTick);
                    reg.advance(kTick);
                    if (2 * t >= kTicksPerEpisode)
                        settled[d].push_back(reg.setpoint());
                }
            };
            for (unsigned t = 0; t < kTicksPerEpisode; ++t) {
                res.steps.add(timeStep([&] { tick_all(t); }));
                if (probes)
                    probes->run(rec, chip.domain(0).regulator().setpoint());
            }
            for (unsigned d = 0; d < chip.numDomains(); ++d) {
                // Median setpoint over the episode's second half.
                const Millivolt mv = median(settled[d]);
                const double red = reductionPct(nominal, mv);
                checks.expect(red >= kBandLowPct && red <= kBandHighPct,
                              "domain " + std::to_string(d) +
                                  " reduction " + std::to_string(red) +
                                  "% outside the Fig. 10 band");
                if (res.episodes < kReportedEpisodes)
                    reductions.push_back(red);
                if (res.episodes == 0) {
                    ControllerCounts domain;
                    domain.add(*ctrls[d]);
                    digest.add(mv);
                    domain.digestInto(digest);
                    ctrl0.add(*ctrls[d]);
                }
            }
            checks.expect(!uncorrectable,
                          "self-test saw an uncorrectable error");
            if (res.episodes == 0)
                digest.add(accesses);
            ++res.episodes;
        }
        res.timedWallS = budget.elapsed();
    }

    res.digest = digest.hex();
    res.work = double(res.steps.size()) * kTick;
    res.rates = {{"sim_s_per_s", res.work}};
    res.vddReductionPct = mean(reductions);

    if (rec.enabled()) {
        res.layers = {
            {"core.selftest_tick_ms",
             spanMedianMs(rec, "core.selftest_tick"), "ms"},
            {"core.selftest_accesses", mean(selftest_accesses), "count"},
            {"cache.targeted_test_us", median(probes->targetedUs), "us"},
            {"cache.l2_hit_frac",
             probes->l2Accesses ? double(probes->l2Hits) /
                                      double(probes->l2Accesses)
                                : 0.0,
             "ratio"},
            {"cache.hierarchy_access_ns", median(probes->accessNs), "ns"},
            {"ecc.decode_ns", median(probes->decodeNs), "ns"},
        };
        ctrl0.appendMetrics(res.layers);
    }
    return res;
}

} // namespace selftest

// ---------------------------------------------------------- fleet_scale

/**
 * fleet_scale: the sharded scale fleet under the fleet_capacity
 * --chips traffic shape with the margin-aware policy, correlated chaos,
 * the health FSM, retry/hedging and the periodic audit, advanced one
 * run(slice) call at a time.
 */
namespace fleet_scale
{

constexpr unsigned kChips = 65536;
constexpr Seconds kSlice = 0.1;
constexpr Seconds kHorizon = 30.0;
constexpr unsigned kSlicesPerEpisode = 300;
/** Slices re-run on one worker to check thread-count invariance. */
constexpr unsigned kVerifySlices = 100;
constexpr std::size_t kMinSlices = 200;
/** Traced runs read report() and audit() this often (in slices). */
constexpr unsigned kInspectEvery = 10;

ScaleFleetConfig
config(std::uint64_t seed)
{
    const double chips = double(kChips);
    ScaleFleetConfig cfg;
    cfg.numChips = kChips;
    cfg.seed = seed;
    cfg.policy = SchedulerPolicy::marginAware;
    cfg.slice = kSlice;
    cfg.horizon = kHorizon;

    // Traffic: the fleet_capacity --chips shape (diurnal swing, flash
    // crowds, a closed think-loop over a 20-users-per-chip population).
    cfg.traffic.baseArrivalsPerSecond = 1.85 * chips;
    cfg.traffic.users = std::uint64_t(kChips) * 20;
    cfg.traffic.hotSessionFraction = 0.1;
    cfg.traffic.hotSessions = kChips / 2;
    cfg.traffic.diurnalAmplitude = 0.25;
    cfg.traffic.diurnalPeriod = 20.0;
    cfg.traffic.flashesPerHour = 240.0;
    cfg.traffic.flashMagnitude = 1.5;
    cfg.traffic.flashDecayTau = 5.0;
    cfg.traffic.closedUsers = 0.3 * chips;
    cfg.traffic.thinkTime = 2.0;
    cfg.traffic.firstArrival = 5.0;
    // One fixed traffic trace (the fleet_capacity stream seed) replayed
    // against a fleet drawn from the seed: flash crowds alone move the
    // arrival volume of a 30 s episode by tens of percent, which would
    // swamp host-time comparisons between seeds.
    cfg.traffic.seed = 0xCAFE;

    // Retry and hedging budgets of the guarded fig_blast_radius fleet.
    JobClass interactive;
    interactive.name = "interactive";
    interactive.arrivalWeight = 3.0;
    interactive.meanServiceTime = 0.6;
    interactive.minServiceTime = 0.1;
    interactive.deadline = 3.0;
    interactive.latencyCritical = true;
    interactive.suite = Suite::coreMark;
    interactive.maxRetries = 2;
    interactive.retryBackoff = 0.2;
    interactive.hedge = true;
    JobClass batch;
    batch.name = "batch";
    batch.arrivalWeight = 1.0;
    batch.meanServiceTime = 2.5;
    batch.minServiceTime = 0.25;
    batch.deadline = 20.0;
    batch.suite = Suite::specFp2000;
    batch.maxRetries = 1;
    batch.retryBackoff = 0.4;
    cfg.traffic.classes = {interactive, batch};

    cfg.governor.fleetBudget = 9.5 * chips;
    cfg.governor.interval = 0.5;
    cfg.governor.minChipCap = 2.0;

    // Correlated chaos and the health lifecycle of fig_blast_radius.
    cfg.chaos.railGroupSize = 32;
    cfg.chaos.railDroopsPerHour = 20.0;
    cfg.chaos.railDroopMagnitudeMv = 45.0;
    cfg.chaos.railDroopDuration = 3.0;
    cfg.chaos.rackSize = 64;
    cfg.chaos.dueStormsPerHour = 24.0;
    cfg.chaos.dueStormRate = 2.5;
    cfg.chaos.dueStormDuration = 5.0;
    cfg.chaos.thermalZoneSize = 128;
    cfg.chaos.thermalEventsPerHour = 10.0;
    cfg.chaos.thermalMarginPenaltyMv = 25.0;
    cfg.chaos.thermalDuration = 6.0;
    cfg.health.enabled = true;
    cfg.health.windowTau = 3.0;
    cfg.health.degradeRate = 0.3;
    cfg.health.quarantineRate = 1.0;
    cfg.health.healthyRate = 0.1;
    cfg.health.quarantineHold = 1.0;
    cfg.health.selfTestDuration = 4.0;
    cfg.health.selfTestBoostMv = 50.0;
    cfg.health.probationDuration = 5.0;
    cfg.retryWatchdog = 2.0;
    cfg.hedgeLoserFraction = 0.25;
    cfg.auditEverySlices = 50;
    return cfg;
}

std::uint64_t
reportDigest(const FleetReport &r)
{
    Digest d;
    d.add(r.simulated)
        .add(r.submitted)
        .add(r.completed)
        .add(r.completedCritical)
        .add(r.requeued)
        .add(r.pendingAtEnd)
        .add(r.runningAtEnd)
        .add(r.slaViolations)
        .add(r.throughputPerSec)
        .add(r.meanLatency)
        .add(r.p50Latency)
        .add(r.p99Latency)
        .add(r.fleetEnergy)
        .add(r.energyPerJob)
        .add(r.meanFleetPower)
        .add(r.availability)
        .add(r.recoveries)
        .add(std::uint64_t(r.abandonedCores))
        .add(r.throttleEpisodes)
        .add(r.quarantines)
        .add(r.readmissions)
        .add(std::uint64_t(r.offlineChipsAtEnd))
        .add(r.drainedCoreSeconds)
        .add(r.retries)
        .add(r.hedgedJobs)
        .add(r.watchdogForced)
        .add(r.inRetryAtEnd);
    for (const FleetReport::DomainImpact &row : r.domainImpact)
        d.add(std::uint64_t(row.kind))
            .add(std::uint64_t(row.domain))
            .add(row.events)
            .add(row.dues)
            .add(row.quarantines)
            .add(row.slaMisses)
            .add(row.offlineCoreSeconds);
    return d.value();
}

Result
run(const Options &opt, unsigned workers, SpanRecorder &rec,
    Checks &checks, StepTimes &setup)
{
    Result res;
    res.workUnit = "chip-slices";
    res.stepName = "ShardedFleet::run(slice)";

    // Set-up: the pool and episode 0's fleet.
    std::unique_ptr<ExperimentPool> pool;
    std::unique_ptr<ShardedFleet> fleet;
    {
        ScopedSpan span(rec, "setup");
        for (unsigned rep = 0; rep < kSetupReps; ++rep) {
            setup.add(timeStep([&] {
                pool = std::make_unique<ExperimentPool>(workers);
                fleet = std::make_unique<ShardedFleet>(
                    config(mix64(opt.seed, 0)));
            }));
        }
    }

    std::optional<TrafficGenerator> probe_traffic;
    std::vector<TrafficArrival> arrivals;
    std::vector<double> traffic_us;

    std::uint64_t prefix_digest = 0;
    FleetReport report0;
    std::uint64_t violations0 = 0;
    double floor_reduction0 = 0.0;
    Digest digest;
    {
        ScopedSpan span(rec, "timed");
        EpisodeBudget budget(opt);
        while (budget.more(res.episodes, res.steps.size(), kMinSlices)) {
            ScopedSpan episode(rec, "fleet.episode");
            const std::uint64_t episode_seed = mix64(opt.seed, res.episodes);
            if (res.episodes > 0)
                fleet = std::make_unique<ShardedFleet>(config(episode_seed));
            if (rec.enabled())
                probe_traffic.emplace(config(episode_seed).traffic);
            for (unsigned s = 0; s < kSlicesPerEpisode; ++s) {
                res.steps.add(timeStep(
                    [&] {
                        ScopedSpan slice(rec, "fleet.slice");
                        fleet->run(kSlice, *pool);
                    },
                    // About half of a slice is serial (on this thread),
                    // half the parallel shard advance (on the workers).
                    [&] {
                        return 0.5 * (threadSpeed() + poolSpeed(*pool));
                    }));
                if (res.episodes == 0 && s + 1 == kVerifySlices)
                    prefix_digest = reportDigest(fleet->report());
                if (probe_traffic) {
                    ScopedSpan traffic(rec, "fleet.traffic_slice");
                    arrivals.clear();
                    const Clock::time_point start = Clock::now();
                    probe_traffic->generateSlice(s * kSlice,
                                                 (s + 1) * kSlice, 0.0,
                                                 arrivals);
                    traffic_us.push_back(secondsSince(start) * 1e6);
                }
                if (rec.enabled() && (s + 1) % kInspectEvery == 0) {
                    {
                        ScopedSpan r(rec, "fleet.report");
                        (void)fleet->report();
                    }
                    ScopedSpan a(rec, "fleet.audit");
                    fleet->audit();
                }
            }

            const FleetReport r = fleet->report();
            fleet->audit();
            const auto &violations = fleet->auditViolations();
            checks.expect(violations.empty(),
                          violations.empty() ? std::string()
                                             : "audit: " + violations[0]);
            const std::uint64_t pending = r.pendingAtEnd - r.inRetryAtEnd;
            checks.expect(r.submitted ==
                              r.completed + pending + r.inRetryAtEnd,
                          "job conservation: submitted " +
                              std::to_string(r.submitted) +
                              " != completed + pending + in-retry");
            checks.expect(r.completed > 0, "fleet completed no jobs");
            if (res.episodes == 0) {
                report0 = r;
                violations0 = violations.size();
                // The earned floor (deepest sustained rail) averages out
                // the chaos events that happen to be active at the end.
                const Millivolt nominal = fleet->config().chip.nominalVdd;
                double sum = 0.0;
                for (unsigned i = 0; i < kChips; ++i)
                    sum += reductionPct(nominal, fleet->earnedFloorMv(i));
                floor_reduction0 = sum / double(kChips);
                digest.add(reportDigest(r)).add(prefix_digest);
            }
            ++res.episodes;
        }
        res.timedWallS = budget.elapsed();
    }

    {
        // Episode 0's first slices on one worker must match exactly.
        ScopedSpan span(rec, "verify");
        ExperimentPool single(1);
        ShardedFleet again(config(mix64(opt.seed, 0)));
        for (unsigned s = 0; s < kVerifySlices; ++s)
            again.run(kSlice, single);
        checks.expect(reportDigest(again.report()) == prefix_digest,
                      "fleet report differs between " +
                          std::to_string(workers) +
                          " workers and 1 worker");
    }

    res.digest = digest.hex();
    res.work = double(res.steps.size()) * double(kChips);
    res.rates = {{"chip_slices_per_s", res.work}};
    res.vddReductionPct = floor_reduction0;
    res.named = {{"slice_p50_ms", percentile(res.steps.ms, 50.0), "ms"},
                 {"slice_p95_ms", percentile(res.steps.ms, 95.0), "ms"},
                 {"energy_per_job_j", report0.energyPerJob, "J"},
                 {"job_p99_s", report0.p99Latency, "sim_s"}};

    if (rec.enabled()) {
        res.layers = {
            {"fleet.traffic_slice_us", median(traffic_us), "us"},
            {"fleet.report_ms", spanMedianMs(rec, "fleet.report"), "ms"},
            {"fleet.audit_ms", spanMedianMs(rec, "fleet.audit"), "ms"},
            {"fleet.arrivals", double(report0.submitted), "count"},
            {"fleet.retries", double(report0.retries), "count"},
            {"fleet.hedged", double(report0.hedgedJobs), "count"},
            {"fleet.quarantines", double(report0.quarantines), "count"},
            {"fleet.audit_violations", double(violations0), "count"},
        };
    }
    return res;
}

} // namespace fleet_scale

// ----------------------------------------------------------------- main

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload "
                 "calibrate|speculate|selftest|fleet_scale --seed N "
                 "--seconds S [--workers N] [--episodes N] "
                 "[--trace SPANS_FILE]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage("bad value for " + flag + ": '" + text + "'");
    return value;
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = parseCount(flag, value);
        } else if (flag == "--seconds") {
            char *end = nullptr;
            opt.seconds = std::strtod(value, &end);
            if (end == value || *end != '\0' || !(opt.seconds > 0.0) ||
                opt.seconds > 3600.0)
                usage(std::string("bad value for --seconds: '") + value +
                      "'");
        } else if (flag == "--workers") {
            opt.workers = unsigned(parseCount(flag, value));
        } else if (flag == "--episodes") {
            opt.episodes = parseCount(flag, value);
        } else if (flag == "--trace") {
            opt.tracePath = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    return opt;
}

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point run_start = Clock::now();
    setInformEnabled(false);
    const Options opt = parseOptions(argc, argv);
    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    const unsigned workers =
        opt.workers > 0 ? opt.workers : std::min(4u, nproc);

    SpanRecorder rec(!opt.tracePath.empty());
    Checks checks;
    StepTimes setup;
    Result res;
    try {
        if (opt.workload == "calibrate")
            res = calibrate::run(opt, workers, rec, checks, setup);
        else if (opt.workload == "speculate")
            res = speculate::run(opt, rec, checks, setup);
        else if (opt.workload == "selftest")
            res = selftest::run(opt, rec, checks, setup);
        else if (opt.workload == "fleet_scale")
            res = fleet_scale::run(opt, workers, rec, checks, setup);
        else
            usage("unknown workload '" + opt.workload + "'");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }
    const double run_wall_s = secondsSince(run_start);

    const double samples = double(res.steps.size());
    checks.expect(samples - std::ceil(res.tailPercentile / 100.0 * samples) >=
                      10.0,
                  "tail percentile has fewer than 10 samples beyond it");

    vspec_bench::JsonWriter doc;
    doc.beginObject();
    doc.key("workload").value(opt.workload);
    doc.key("seed").value(opt.seed);
    doc.key("stamp").beginObject();
    doc.key("build_type").value(PERFBENCH_BUILD_TYPE);
    doc.key("simd_backend").value(simd::backendName());
    doc.key("compiler").value(compilerName());
    doc.key("nproc").value(nproc);
    doc.key("pool_workers").value(workers);
    doc.endObject();
    doc.key("digest").value(res.digest);
    doc.key("episodes").value(res.episodes);
    doc.key("work").value(res.work);
    doc.key("work_unit").value(res.workUnit);
    doc.key("step").value(res.stepName);
    doc.key("timed_wall_s").value(res.timedWallS);
    // The timed phase at the reference speed (see SpeedReference).
    doc.key("timed_s").value(res.timedWallS * res.steps.speedFactor());
    doc.key("run_wall_s").value(run_wall_s);
    doc.key("checks").beginObject();
    doc.key("attempted").value(checks.attempted);
    doc.key("failed").value(checks.failed);
    doc.key("messages").beginArray();
    for (const std::string &m : checks.messages)
        doc.value(m);
    doc.endArray();
    doc.endObject();

    doc.key("e2e").beginObject();
    const auto metric = [&](const char *name, double value,
                            const char *unit) {
        doc.key(name).beginObject();
        doc.key("value").value(value);
        doc.key("unit").value(unit);
        doc.endObject();
    };
    // Host times at the reference speed (see SpeedReference); the
    // timed phase's wall time is rescaled by its steps' mean factor.
    const double speed = res.steps.speedFactor();
    const double rate = res.work / (res.timedWallS * speed);
    metric("setup_s", median(setup.ms) * 1e-3, "s");
    metric("work_per_s", rate, "1/s");
    metric("step_p50_ms", percentile(res.steps.ms, 50.0), "ms");
    metric("step_tail_ms", percentile(res.steps.ms, res.tailPercentile),
           "ms");
    metric("peak_rss_mb", peakRssMb(), "MB");
    metric("vdd_reduction_pct", res.vddReductionPct, "%");
    doc.endObject();
    doc.key("raw").beginObject();
    metric("setup_s", median(setup.rawMs) * 1e-3, "s");
    metric("work_per_s", res.work / res.timedWallS, "1/s");
    metric("step_p50_ms", percentile(res.steps.rawMs, 50.0), "ms");
    metric("step_tail_ms", percentile(res.steps.rawMs, res.tailPercentile),
           "ms");
    metric("speed_factor", speed, "ratio");
    doc.endObject();
    doc.key("named").beginObject();
    for (const auto &[name, count] : res.rates)
        metric(name.c_str(), count / (res.timedWallS * speed), "1/s");
    for (const Metric &m : res.named)
        metric(m.name.c_str(), m.value, m.unit.c_str());
    doc.endObject();
    doc.key("percentiles").beginObject();
    std::vector<PercentileInfo> percentiles = {
        {"step_p50_ms", 50.0, res.steps.size()},
        {"step_tail_ms", res.tailPercentile, res.steps.size()}};
    if (rec.enabled())
        percentiles.insert(percentiles.end(), res.layerPercentiles.begin(),
                           res.layerPercentiles.end());
    for (const PercentileInfo &p : percentiles) {
        doc.key(p.name).beginObject();
        doc.key("percentile").value(p.percentile);
        doc.key("samples").value(std::uint64_t(p.samples));
        doc.endObject();
    }
    doc.endObject();

    if (rec.enabled()) {
        doc.key("layers").beginObject();
        for (const Metric &m : res.layers)
            metric(m.name.c_str(), m.value, m.unit.c_str());
        doc.endObject();
        doc.key("top_span_s").value(rec.topLevelSeconds());
        doc.key("self_ms").beginObject();
        for (const auto &[name, ms] : rec.selfMs())
            doc.key(name).value(ms);
        doc.endObject();
        if (!rec.writeJsonLines(opt.tracePath)) {
            std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                         opt.tracePath.c_str());
            return 1;
        }
    }
    doc.endObject();
    doc.print();
    for (const std::string &m : checks.messages)
        std::fprintf(stderr, "perfbench: check failed: %s\n", m.c_str());
    return checks.failed == 0 ? 0 : 1;
}
