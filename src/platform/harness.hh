/**
 * @file
 * Experiment harness: the reusable procedures behind the paper's
 * evaluation — arming the hardware speculation system (calibrate each
 * domain, activate the designated monitors, build the control system),
 * arming the software baseline, and the characterization sweeps used
 * by Figs. 1-4 and 13.
 */

#ifndef VSPEC_PLATFORM_HARNESS_HH
#define VSPEC_PLATFORM_HARNESS_HH

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "core/calibrator.hh"
#include "core/software_speculator.hh"
#include "core/voltage_controller.hh"
#include "platform/chip.hh"
#include "platform/experiment_pool.hh"
#include "platform/simulator.hh"
#include "resilience/fault_injector.hh"
#include "resilience/recovery_manager.hh"
#include "workload/benchmarks.hh"

namespace vspec
{

/** Designated monitor line of one memory speculation domain. */
struct MemDomainTarget
{
    unsigned domainIndex = 0;
    /** Domain name ("dram0", "hbm1", ...). */
    std::string name;
    unsigned bank = 0;
    std::uint64_t line = 0;
    /** Analytic first-error voltage of the designated line (mV). */
    Millivolt firstErrorVdd = 0.0;
};

/** Everything created when the hardware speculation system is armed. */
struct HardwareSpeculationSetup
{
    /** The designated weakest line of every voltage domain. */
    std::vector<WeakLineTarget> targets;
    /** The designated line of every memory domain (if any). */
    std::vector<MemDomainTarget> memTargets;
    /** Control system wired to those domains' monitors. */
    std::unique_ptr<VoltageControlSystem> control;
};

namespace harness
{

/**
 * Calibrate every core voltage domain of the chip (Section III-C),
 * activate one ECC monitor per domain pointed at the domain's weakest
 * line, and build the voltage control system. The per-domain policy is
 * @p base_policy with maxVdd set to the chip nominal.
 */
HardwareSpeculationSetup
armHardware(Chip &chip, ControlPolicy base_policy = ControlPolicy(),
            Calibrator::Config calibration = Calibrator::Config());

/**
 * Build one SoftwareSpeculator per domain (the firmware baseline);
 * attach them to a Simulator with attachSoftwareSpeculator().
 *
 * @param first_error_per_domain per-domain first-correctable-error
 *        voltages from offline characterization; each speculator's
 *        floor is set to that level (the prior work parks cores at
 *        safe levels found offline). Pass an empty vector to disable
 *        the floors (forced-sweep experiments).
 */
std::vector<std::unique_ptr<SoftwareSpeculator>>
armSoftware(Chip &chip,
            const std::vector<Millivolt> &first_error_per_domain = {},
            SoftwareSpeculator::Policy policy =
                SoftwareSpeculator::Policy());

/**
 * Build a RecoveryManager covering every core of the chip, each wired
 * to its domain's regulator; attach it to a Simulator with
 * attachRecoveryManager(). A non-positive config.safeVdd is replaced
 * with the chip's nominal operating voltage.
 */
std::unique_ptr<RecoveryManager>
armRecovery(Chip &chip,
            RecoveryManager::Config config = RecoveryManager::Config());

/**
 * Build a FaultInjector wired to every core's L2 arrays, every ECC
 * monitor, every domain regulator, and the shared PDN, drawing its
 * schedules from the chip RNG; attach it to a Simulator with
 * attachFaultInjector(). @p log, when non-null, receives the injected
 * machine-check events (pass the Simulator's eventLog()).
 */
std::unique_ptr<FaultInjector>
armFaultInjector(Chip &chip, const FaultInjector::Config &config,
                 EccEventLog *log = nullptr);

/** Assign a fresh copy of the suite's benchmark loop to every core. */
void assignSuite(Chip &chip, Suite suite, Seconds per_benchmark = 60.0);

/** Assign idle workloads to every core. */
void assignIdle(Chip &chip);

} // namespace harness

namespace experiments
{

/** Outcome of a margin characterization sweep on one core. */
struct MarginResult
{
    unsigned coreId = 0;
    /** Highest Vdd at which correctable errors appeared (mV). */
    Millivolt firstErrorVdd = 0.0;
    /** Lowest Vdd with no crash or data corruption (mV). */
    Millivolt minSafeVdd = 0.0;
    /** Correctable events observed during the hold at minSafeVdd. */
    std::uint64_t errorsAtMinSafe = 0;
};

/**
 * Characterize one core's voltage margins (the Section II study):
 * run @p workload on the core (siblings idle in firmware spin-loops),
 * lower the rail in stepMv steps holding each for hold_per_step, and
 * record where correctable errors start and where the core crashes.
 * Chip state (regulators, crash latches) is restored afterwards.
 */
MarginResult measureMargins(Chip &chip, unsigned core_id,
                            std::shared_ptr<Workload> workload,
                            Seconds hold_per_step = 10.0,
                            Millivolt step_mv = 5.0,
                            Seconds tick = 1e-2);

/**
 * The Fig. 13 experiment: probability of a single-bit error of the
 * core's weakest line as a function of supply voltage, measured with
 * the targeted self-test.
 */
std::vector<std::pair<Millivolt, double>>
errorProbabilityCurve(Chip &chip, unsigned core_id, Millivolt from_mv,
                      Millivolt to_mv, Millivolt step_mv,
                      std::uint64_t probes_per_point);

/** The core's weakest L2 line (instrumentation shortcut). */
std::pair<CacheArray *, WeakLineInfo> weakestL2Line(Core &core);

/*
 * Pooled characterization sweeps. Each variant submits one task per
 * independent configuration to an ExperimentPool; every task constructs
 * its own Chip/Simulator from @p cfg (one chip per task, no shared
 * mutable state) and draws task-local randomness from the context rng
 * seeded by mix64(cfg.seed, taskIndex). Results come back in task
 * order, so the merged output is bit-identical for any thread count.
 * A task that throws aborts the sweep with a fatal() naming the task.
 */

/**
 * Pooled margin characterization (the Fig. 1 study): one task per
 * core, each measuring that core's margins on a private chip.
 * @p make_workload is invoked once per task (concurrently) to build
 * the core-under-test workload.
 */
std::vector<MarginResult>
measureMarginsPooled(const ChipConfig &cfg,
                     const std::function<std::shared_ptr<Workload>()>
                         &make_workload,
                     Seconds hold_per_step, Millivolt step_mv,
                     Seconds tick, ExperimentPool &pool);

/** One point of a pooled error-rate-vs-depth sweep (the Fig. 3 shape). */
struct ErrorRatePoint
{
    Millivolt depthMv = 0.0;
    Millivolt vdd = 0.0;
    /** Correctable events over the window, per still-alive core. */
    RunningStats errorsPerCore;
    unsigned coresAlive = 0;
};

/**
 * Pooled error-rate sweep: one task per Vdd step. Unlike the serial
 * progressive sweep, every depth is an independent trial on a fresh
 * chip held at that voltage for @p window simulated seconds.
 */
std::vector<ErrorRatePoint>
errorRateVsDepthPooled(const ChipConfig &cfg, Suite suite,
                       Seconds per_benchmark, Millivolt max_depth_mv,
                       Millivolt step_mv, Seconds window, Seconds tick,
                       ExperimentPool &pool);

/** One point of a pooled Fig. 13 probe curve. */
struct ProbeCurvePoint
{
    unsigned coreId = 0;
    Millivolt vdd = 0.0;
    double probability = 0.0;
};

/**
 * The deterministic Fig. 13 probe grid: one (core, Vdd) task per
 * entry, core-major, each core's span anchored on its own weakest L2
 * line ([weakestVc - span_mv, weakestVc + span_mv] in step_mv steps,
 * descending). A scout chip is built serially from @p cfg; the grid is
 * a pure function of the configuration, so a checkpointed bench can
 * rebuild it on resume and carry on from a saved task index.
 */
std::vector<std::pair<unsigned, Millivolt>>
errorProbabilityGrid(const ChipConfig &cfg,
                     const std::vector<unsigned> &cores,
                     Millivolt span_mv, Millivolt step_mv);

/**
 * Run the pooled probe pass over @p grid for the task window
 * [first_task, last_task) (last_task is clamped to the grid size).
 * Task seeds are derived from the GLOBAL grid index, so splitting a
 * run at any boundary and resuming from a saved index reproduces the
 * uninterrupted points bit-for-bit.
 */
std::vector<ProbeCurvePoint> errorProbabilityPointsPooled(
    const ChipConfig &cfg,
    const std::vector<std::pair<unsigned, Millivolt>> &grid,
    std::size_t first_task, std::size_t last_task,
    std::uint64_t probes_per_point, ExperimentPool &pool);

} // namespace experiments

} // namespace vspec

#endif // VSPEC_PLATFORM_HARNESS_HH
