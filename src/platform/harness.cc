#include "platform/harness.hh"

#include <algorithm>

#include "common/logging.hh"
#include "ecc/bch.hh"

namespace vspec
{

namespace harness
{

HardwareSpeculationSetup
armHardware(Chip &chip, ControlPolicy base_policy,
            Calibrator::Config calibration)
{
    HardwareSpeculationSetup setup;
    setup.control = std::make_unique<VoltageControlSystem>();
    base_policy.maxVdd = chip.config().operatingPoint.nominalVdd;

    // Codec-aware speculation floors: translate the chip tier's
    // correction strength into a tolerated-correctable budget. A code
    // correcting t > 1 bits per word sustains a far higher correctable
    // rate at the same uncorrectable budget, so its control band —
    // and the emergency ceiling guarding it — scale up together,
    // letting the controller settle measurably deeper. The scale is
    // exactly 1.0 for the Hamming/Hsiao tiers, leaving the baseline
    // behavior bit-for-bit untouched.
    const double budget_scale = correctableBudgetScale(codecTraits(
        chip.config().eccScheme, itanium9560::l2Data().eccDataBits));
    ControlPolicy domain_policy = base_policy;
    double emergency_ceiling = -1.0;
    if (budget_scale != 1.0) {
        domain_policy.ceilingRate =
            std::min(0.5, base_policy.ceilingRate * budget_scale);
        domain_policy.floorRate =
            std::min(domain_policy.ceilingRate * 0.5,
                     base_policy.floorRate * budget_scale);
        emergency_ceiling =
            std::min(1.0, chip.config().monitor.emergencyCeiling *
                              budget_scale);
    }

    const Calibrator calibrator(calibration);
    Rng rng = chip.rng().fork(0xCA11B007ULL);

    for (unsigned d = 0; d < chip.numDomains(); ++d) {
        auto &dom = chip.domain(d);
        std::vector<Core *> cores(dom.cores().begin(), dom.cores().end());

        auto target = calibrator.calibrateDomain(
            cores, chip.config().operatingPoint.nominalVdd, rng);
        if (!target) {
            fatal("calibration found no weak line in domain ", d,
                  " within the sweep depth — variation model "
                  "misconfigured");
        }

        EccMonitor &monitor = chip.monitorFor(*target->array);
        monitor.activate(*target->array, target->set, target->way);
        if (emergency_ceiling > 0.0)
            monitor.setEmergencyCeiling(emergency_ceiling);

        setup.control->addDomain(dom.regulator(), monitor, domain_policy);
        setup.targets.push_back(*target);

        inform("domain ", d, ": monitoring ", target->cacheName,
               " line (set ", target->set, ", way ", target->way,
               ") of core ", target->coreId, ", first error at ",
               target->firstErrorVdd, " mV");
    }

    // Memory domains join the same control system: one controller per
    // mem rail, its monitor pointed at the array's analytically
    // weakest codeword line. The block codec's budget scale is large
    // (t=8 over 4201 bits), so the band clamps bind — the mem tiers
    // run at the deepest earned floors the policy allows.
    if (chip.numMemDomains() > 0) {
        const double mem_scale =
            correctableBudgetScale(bchLarge512().traits());
        for (unsigned m = 0; m < chip.numMemDomains(); ++m) {
            MemDomain &md = chip.memDomain(m);
            ControlPolicy mem_policy = base_policy;
            mem_policy.maxVdd = md.nominalMv();
            if (mem_scale != 1.0) {
                mem_policy.ceilingRate =
                    std::min(0.5, base_policy.ceilingRate * mem_scale);
                mem_policy.floorRate =
                    std::min(mem_policy.ceilingRate * 0.5,
                             base_policy.floorRate * mem_scale);
                md.monitor().setEmergencyCeiling(std::min(
                    1.0,
                    md.config().monitor.emergencyCeiling * mem_scale));
            }

            const MemArray::WeakLineRef weakest =
                md.array().weakestLine();
            md.monitor().activate(md.array(), weakest.bank,
                                  weakest.line);
            setup.control->addDomain(md.rail(), md.monitor(),
                                     mem_policy);

            MemDomainTarget target;
            target.domainIndex = m;
            target.name = md.name();
            target.bank = weakest.bank;
            target.line = weakest.line;
            target.firstErrorVdd = md.array().firstErrorVoltage();
            setup.memTargets.push_back(target);

            inform("mem domain ", md.name(), ": monitoring bank ",
                   weakest.bank, " line ", weakest.line,
                   ", first error at ", target.firstErrorVdd, " mV");
        }
    }
    return setup;
}

std::vector<std::unique_ptr<SoftwareSpeculator>>
armSoftware(Chip &chip,
            const std::vector<Millivolt> &first_error_per_domain,
            SoftwareSpeculator::Policy policy)
{
    policy.maxVdd = chip.config().operatingPoint.nominalVdd;
    std::vector<std::unique_ptr<SoftwareSpeculator>> specs;
    for (unsigned d = 0; d < chip.numDomains(); ++d) {
        SoftwareSpeculator::Policy domain_policy = policy;
        if (!first_error_per_domain.empty())
            domain_policy.floorVdd = first_error_per_domain.at(d);
        specs.push_back(std::make_unique<SoftwareSpeculator>(
            chip.domain(d).regulator(), domain_policy));
    }
    return specs;
}

std::unique_ptr<RecoveryManager>
armRecovery(Chip &chip, RecoveryManager::Config config)
{
    if (config.safeVdd <= 0.0)
        config.safeVdd = chip.config().operatingPoint.nominalVdd;
    auto manager = std::make_unique<RecoveryManager>(config);
    for (unsigned i = 0; i < chip.numCores(); ++i)
        manager->manage(chip.core(i), chip.domainOf(i).regulator());
    return manager;
}

std::unique_ptr<FaultInjector>
armFaultInjector(Chip &chip, const FaultInjector::Config &config,
                 EccEventLog *log)
{
    auto injector =
        std::make_unique<FaultInjector>(config, chip.rng());
    for (unsigned i = 0; i < chip.numCores(); ++i) {
        injector->addCore(chip.core(i));
        injector->addMonitor(chip.l2iMonitor(i));
        injector->addMonitor(chip.l2dMonitor(i));
    }
    for (unsigned d = 0; d < chip.numDomains(); ++d)
        injector->addRegulator(chip.domain(d).regulator());
    injector->setPdn(chip.pdn());
    if (log)
        injector->setEventLog(*log);
    return injector;
}

void
assignSuite(Chip &chip, Suite suite, Seconds per_benchmark)
{
    for (unsigned i = 0; i < chip.numCores(); ++i) {
        chip.core(i).setWorkload(
            benchmarks::suiteSequence(suite, per_benchmark),
            /*start_time=*/0.0);
    }
}

void
assignIdle(Chip &chip)
{
    for (unsigned i = 0; i < chip.numCores(); ++i)
        chip.core(i).setWorkload(std::make_shared<IdleWorkload>());
}

} // namespace harness

namespace experiments
{

std::pair<CacheArray *, WeakLineInfo>
weakestL2Line(Core &core)
{
    const WeakLineInfo l2i = core.l2iArray().weakestLine();
    const WeakLineInfo l2d = core.l2dArray().weakestLine();
    if (l2i.weakCellCount == 0 && l2d.weakCellCount == 0)
        fatal("core ", core.id(), " has no materialized weak L2 line");
    if (l2d.weakCellCount == 0 || l2i.weakestVc >= l2d.weakestVc)
        return {&core.l2iArray(), l2i};
    return {&core.l2dArray(), l2d};
}

MarginResult
measureMargins(Chip &chip, unsigned core_id,
               std::shared_ptr<Workload> workload, Seconds hold_per_step,
               Millivolt step_mv, Seconds tick)
{
    if (core_id >= chip.numCores())
        fatal("measureMargins: core ", core_id, " out of range");

    const Millivolt nominal = chip.config().operatingPoint.nominalVdd;

    // Siblings idle in firmware spin-loops so the core under test is
    // measured in isolation (Section IV-A.4).
    harness::assignIdle(chip);
    chip.core(core_id).setWorkload(std::move(workload));

    MarginResult result;
    result.coreId = core_id;

    VoltageDomain &dom = chip.domainOf(core_id);
    Simulator sim(chip, tick);

    Millivolt v = nominal;
    std::uint64_t prev_events = 0;
    Millivolt last_safe = nominal;
    std::uint64_t errors_at_last_safe = 0;

    while (v >= dom.regulator().params().minMv + step_mv) {
        dom.regulator().request(v);
        dom.regulator().advance(1.0);  // Settle instantly between steps.
        chip.core(core_id).clearCrash();

        sim.run(hold_per_step);

        const std::uint64_t events = sim.coreCorrectableEvents(core_id);
        const std::uint64_t delta = events - prev_events;
        prev_events = events;

        if (chip.core(core_id).crashed())
            break;

        last_safe = v;
        errors_at_last_safe = delta;
        if (delta > 0 && result.firstErrorVdd == 0.0)
            result.firstErrorVdd = v;

        v -= step_mv;
    }

    result.minSafeVdd = last_safe;
    result.errorsAtMinSafe = errors_at_last_safe;

    // Restore chip state.
    chip.core(core_id).clearCrash();
    dom.regulator().request(nominal);
    dom.regulator().advance(1.0);
    harness::assignIdle(chip);
    return result;
}

namespace
{

/** Unwrap pool outcomes in task order; fatal on any failed task. */
template <typename Result>
std::vector<Result>
unwrapOutcomes(std::vector<ExperimentOutcome<Result>> outcomes,
               const char *what)
{
    std::vector<Result> results;
    results.reserve(outcomes.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].ok()) {
            fatal(what, ": task ", i, " failed: ", outcomes[i].error);
        }
        results.push_back(std::move(*outcomes[i].value));
    }
    return results;
}

} // namespace

std::vector<MarginResult>
measureMarginsPooled(const ChipConfig &cfg,
                     const std::function<std::shared_ptr<Workload>()>
                         &make_workload,
                     Seconds hold_per_step, Millivolt step_mv,
                     Seconds tick, ExperimentPool &pool)
{
    auto outcomes = pool.run(
        cfg.seed, cfg.numCores, [&](ExperimentTaskContext &ctx) {
            Chip chip(cfg);
            return measureMargins(chip, unsigned(ctx.index),
                                  make_workload(), hold_per_step,
                                  step_mv, tick);
        });
    return unwrapOutcomes(std::move(outcomes), "measureMarginsPooled");
}

std::vector<ErrorRatePoint>
errorRateVsDepthPooled(const ChipConfig &cfg, Suite suite,
                       Seconds per_benchmark, Millivolt max_depth_mv,
                       Millivolt step_mv, Seconds window, Seconds tick,
                       ExperimentPool &pool)
{
    if (step_mv <= 0.0)
        fatal("errorRateVsDepthPooled requires a positive step");

    std::vector<Millivolt> depths;
    for (Millivolt depth = 0.0; depth <= max_depth_mv; depth += step_mv)
        depths.push_back(depth);

    auto outcomes = pool.run(
        cfg.seed, depths.size(), [&](ExperimentTaskContext &ctx) {
            Chip chip(cfg);
            const Millivolt nominal =
                chip.config().operatingPoint.nominalVdd;

            ErrorRatePoint point;
            point.depthMv = depths[ctx.index];
            point.vdd = nominal - point.depthMv;

            harness::assignSuite(chip, suite, per_benchmark);
            for (unsigned d = 0; d < chip.numDomains(); ++d) {
                chip.domain(d).regulator().request(point.vdd);
                chip.domain(d).regulator().advance(1.0);
            }

            Simulator sim(chip, tick);
            sim.run(window);

            for (unsigned c = 0; c < chip.numCores(); ++c) {
                if (chip.core(c).crashed())
                    continue;
                ++point.coresAlive;
                point.errorsPerCore.add(
                    double(sim.coreCorrectableEvents(c)));
            }
            return point;
        });
    return unwrapOutcomes(std::move(outcomes), "errorRateVsDepthPooled");
}

std::vector<std::pair<unsigned, Millivolt>>
errorProbabilityGrid(const ChipConfig &cfg,
                     const std::vector<unsigned> &cores,
                     Millivolt span_mv, Millivolt step_mv)
{
    if (step_mv <= 0.0 || span_mv < 0.0)
        fatal("errorProbabilityGrid requires positive step and span");

    // Scout pass: one serial chip build to anchor each core's grid on
    // its own weakest line.
    std::vector<std::pair<unsigned, Millivolt>> grid;
    Chip scout(cfg);
    for (unsigned core_id : cores) {
        const auto [array, line] = weakestL2Line(scout.core(core_id));
        (void)array;
        for (Millivolt v = line.weakestVc + span_mv;
             v >= line.weakestVc - span_mv; v -= step_mv) {
            grid.emplace_back(core_id, v);
        }
    }
    return grid;
}

std::vector<ProbeCurvePoint>
errorProbabilityPointsPooled(
    const ChipConfig &cfg,
    const std::vector<std::pair<unsigned, Millivolt>> &grid,
    std::size_t first_task, std::size_t last_task,
    std::uint64_t probes_per_point, ExperimentPool &pool)
{
    last_task = std::min(last_task, grid.size());
    if (first_task > last_task)
        fatal("errorProbabilityPointsPooled window starts past its "
              "end");

    // The pool derives each task's RNG from its global index, so a
    // resumed window reproduces the uninterrupted stream: tasks
    // outside [first_task, last_task) run as no-ops (their points are
    // already on disk, or belong to a later window) and are dropped
    // before returning.
    auto outcomes = pool.run(
        cfg.seed, grid.size(), [&](ExperimentTaskContext &ctx) {
            if (ctx.index < first_task || ctx.index >= last_task)
                return ProbeCurvePoint{};
            const auto [core_id, v] = grid[ctx.index];
            Chip chip(cfg);
            auto [array, line] = weakestL2Line(chip.core(core_id));
            const ProbeStats stats =
                array->probeLine(line.set, line.way, v,
                                 probes_per_point, ctx.rng);

            ProbeCurvePoint point;
            point.coreId = core_id;
            point.vdd = v;
            point.probability =
                std::min(1.0, double(stats.correctableEvents) /
                                  double(stats.accesses));
            return point;
        });
    std::vector<ProbeCurvePoint> points = unwrapOutcomes(
        std::move(outcomes), "errorProbabilityPointsPooled");
    points.erase(points.begin() + std::ptrdiff_t(last_task),
                 points.end());
    points.erase(points.begin(),
                 points.begin() + std::ptrdiff_t(first_task));
    return points;
}

std::vector<std::pair<Millivolt, double>>
errorProbabilityCurve(Chip &chip, unsigned core_id, Millivolt from_mv,
                      Millivolt to_mv, Millivolt step_mv,
                      std::uint64_t probes_per_point)
{
    if (step_mv <= 0.0 || from_mv < to_mv)
        fatal("errorProbabilityCurve expects a downward sweep");

    auto [array, line] = weakestL2Line(chip.core(core_id));
    Rng rng = chip.rng().fork(0xF16013ULL + core_id);

    std::vector<std::pair<Millivolt, double>> curve;
    for (Millivolt v = from_mv; v >= to_mv; v -= step_mv) {
        const ProbeStats stats =
            array->probeLine(line.set, line.way, v, probes_per_point,
                             rng);
        // Probability of at least one corrected bit per access.
        const double p =
            std::min(1.0, double(stats.correctableEvents) /
                              double(stats.accesses));
        curve.emplace_back(v, p);
    }
    return curve;
}

} // namespace experiments

} // namespace vspec
