#include "platform/simulator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "snapshot/state_io.hh"

namespace vspec
{

Simulator::Simulator(Chip &chip, Seconds tick)
    : chip_(&chip), tick_(tick),
      coreEnergy_(chip.numCores()),
      coreEvents(chip.numCores(), 0),
      traceProbeAccum(chip.numDomains()),
      memProbeAccum(chip.numMemDomains()),
      memEvents_(chip.numMemDomains(), 0),
      memEnergy_(chip.numMemDomains()),
      simRng(chip.rng().fork(0x51B7ULL))
{
    if (tick <= 0.0)
        fatal("Simulator tick must be positive");
    softwareSpecs.resize(chip.numDomains(), nullptr);
}

void
Simulator::attachControlSystem(VoltageControlSystem *system)
{
    controlSystem = system;
}

void
Simulator::attachSoftwareSpeculator(unsigned domain,
                                    SoftwareSpeculator *speculator)
{
    softwareSpecs.at(domain) = speculator;
}

void
Simulator::attachRecoveryManager(RecoveryManager *manager)
{
    recovery = manager;
}

void
Simulator::attachFaultInjector(FaultInjector *fault_injector)
{
    injector = fault_injector;
}

void
Simulator::enableTrace(Seconds interval)
{
    if (interval <= 0.0)
        fatal("trace interval must be positive");
    traceInterval = interval;
    sinceTraceSample = 0.0;
}

bool
Simulator::anyCrashed() const
{
    for (unsigned i = 0; i < chip_->numCores(); ++i) {
        if (chip_->core(i).crashed())
            return true;
    }
    return false;
}

void
Simulator::recordTraceSample()
{
    TraceSample sample;
    sample.time = currentTime;
    sample.domainSetpoint.reserve(chip_->numDomains());
    sample.domainEffective.reserve(chip_->numDomains());
    sample.domainErrorRate.reserve(chip_->numDomains());
    sample.domainErrors.reserve(chip_->numDomains());
    sample.corePower.reserve(chip_->numCores());

    for (unsigned d = 0; d < chip_->numDomains(); ++d) {
        const auto &dom = chip_->domain(d);
        sample.domainSetpoint.push_back(dom.regulator().setpoint());
        sample.domainEffective.push_back(
            dom.effectiveVoltage(chip_->pdn()));
        sample.domainErrorRate.push_back(traceProbeAccum[d].errorRate());
        sample.domainErrors.push_back(
            traceProbeAccum[d].correctableEvents);
        traceProbeAccum[d] = ProbeStats{};
    }

    for (unsigned c = 0; c < chip_->numCores(); ++c)
        sample.corePower.push_back(chip_->corePower(c, currentTime));
    sample.chipPower = chip_->totalPower(sample.corePower);

    sample.workloadErrors = traceWorkloadErrors;
    traceWorkloadErrors = 0;

    trace_.add(std::move(sample));
}

void
Simulator::step(Seconds dt)
{
    const Seconds t = currentTime;

    // 0. Fault injection, before the effective voltage is computed so
    // injected droop transients and machine checks bite this tick.
    std::vector<FaultInjector::CorrectableInjection> &injected =
        injectedScratch;
    injected.clear();
    if (injector)
        injector->tick(t, dt, injected);

    // 1. Sample every core's workload once; the samples set each
    // domain's rail activity and drive phase 3.
    coreSamples.resize(chip_->numCores());
    for (unsigned d = 0; d < chip_->numDomains(); ++d) {
        auto &dom = chip_->domain(d);
        ActivityProfile combined;
        for (Core *core : dom.cores()) {
            WorkloadSample &sample = coreSamples[core->id()];
            sample = core->workloadSampleAt(t);
            combined = combined.combinedWith(sample.activity);
        }
        dom.setActivity(combined);
    }

    // 2-3. Effective voltage and core advancement.
    std::vector<std::uint64_t> &domainEvents = domainEventsScratch;
    domainEvents.assign(chip_->numDomains(), 0);
    for (const auto &injection : injected) {
        coreEvents[injection.coreId] += injection.events;
        domainEvents[chip_->domainIndexOf(injection.coreId)] +=
            injection.events;
        traceWorkloadErrors += injection.events;
    }
    if (samplingMode_ == SamplingMode::chipBatched) {
        stepChipAggregate(dt, domainEvents);
    } else {
        for (unsigned d = 0; d < chip_->numDomains(); ++d) {
            auto &dom = chip_->domain(d);
            const Millivolt v_eff = dom.effectiveVoltage(chip_->pdn());

            for (Core *core : dom.cores()) {
                const CoreTickResult result = core->tick(
                    coreSamples[core->id()], t, dt, v_eff, simRng, &log);
                coreEvents[core->id()] += result.correctableEvents;
                domainEvents[d] += result.correctableEvents;
                traceWorkloadErrors += result.correctableEvents;
            }

            // 4. Monitor probe bursts for this domain's monitors.
            for (Core *core : dom.cores()) {
                for (EccMonitor *mon :
                     {&chip_->l2iMonitor(core->id()),
                      &chip_->l2dMonitor(core->id())}) {
                    if (!mon->active())
                        continue;
                    const ProbeStats stats =
                        mon->runProbes(dt, v_eff, simRng);
                    traceProbeAccum[d] += stats;
                }
            }
        }
    }

    // 4b. Memory domains: aggregate demand traffic, then the domain
    // monitor's probe burst — the mem analogue of phases 3-4. Both
    // draw from simRng inline, after every core draw, so a mem-less
    // chip's stream is untouched.
    for (unsigned m = 0; m < chip_->numMemDomains(); ++m) {
        MemDomain &md = chip_->memDomain(m);
        const MemDomain::TickResult traffic =
            md.tickTraffic(dt, simRng);
        memEvents_[m] += traffic.correctable;
        traceWorkloadErrors += traffic.correctable;
        if (md.monitor().active()) {
            memProbeAccum[m] += md.monitor().runProbes(
                dt, md.effectiveVoltage(), simRng);
        }
    }

    // 5. Recovery first — a core that crashed this tick is restored
    // before the controllers run, so the post-recovery backoff applies
    // within the same tick — then controllers and hooks.
    if (recovery) {
        recovery->advance(dt);
        for (const RecoveryEvent &event : recovery->recoverCrashed()) {
            if (event.abandoned)
                continue;
            const unsigned d = chip_->domainIndexOf(event.coreId);
            if (controlSystem) {
                DomainController *controller =
                    controlSystem->controllerFor(
                        chip_->domain(d).regulator());
                if (controller)
                    controller->notifyRecovery();
            }
            if (softwareSpecs[d])
                softwareSpecs[d]->notifyRecovery();
        }
    }
    // Memory DUEs are serviced locally (rail to nominal + re-fetch):
    // they back off the mem domain's own controller and never touch
    // the cores' recovery manager or their earned floors.
    for (unsigned m = 0; m < chip_->numMemDomains(); ++m) {
        MemDomain &md = chip_->memDomain(m);
        if (!md.duePending())
            continue;
        md.serviceDue();
        if (controlSystem) {
            DomainController *controller =
                controlSystem->controllerFor(md.rail());
            if (controller)
                controller->notifyRecovery();
        }
    }
    if (controlSystem)
        controlSystem->tick(dt);
    for (unsigned d = 0; d < chip_->numDomains(); ++d) {
        if (softwareSpecs[d])
            softwareSpecs[d]->tick(dt, domainEvents[d]);
    }
    for (auto &hook : hooks)
        hook(t, dt);

    // 6. Regulator slew, PDN transient clock, energy accounting,
    // telemetry. Each core's power is evaluated once, after the hooks
    // (which may have reassigned its workload), and the chip total is
    // summed from those values.
    chip_->pdn().advance(dt);
    corePowerScratch.resize(chip_->numCores());
    for (unsigned d = 0; d < chip_->numDomains(); ++d) {
        auto &dom = chip_->domain(d);
        dom.regulator().advance(dt);

        const double overhead =
            softwareSpecs[d]
                ? softwareSpecs[d]->consumeOverheadFraction(dt)
                : 0.0;
        for (Core *core : dom.cores()) {
            double core_overhead = overhead;
            if (recovery && recovery->manages(core->id())) {
                core_overhead +=
                    recovery->consumeStallFraction(core->id(), dt);
            }
            const Watt power = chip_->corePower(core->id(), t);
            corePowerScratch[core->id()] = power;
            coreEnergy_[core->id()].addSample(power, dt, core_overhead);
        }
    }
    for (unsigned m = 0; m < chip_->numMemDomains(); ++m) {
        MemDomain &md = chip_->memDomain(m);
        md.rail().advance(dt);
        memEnergy_[m].addSample(
            md.refreshPower() + md.checkCellPower(chip_->power()), dt,
            0.0, EnergyCategory::memRefresh);
        memEnergy_[m].addEnergy(md.accessStreamPower() * dt,
                                EnergyCategory::memAccess);
    }
    chipEnergy_.addSample(chip_->totalPower(corePowerScratch), dt);
    if (recovery)
        chipEnergy_.addEnergy(recovery->consumePendingEnergy());

    currentTime += dt;

    if (traceInterval > 0.0) {
        sinceTraceSample += dt;
        // Emit when the accumulator is within half a tick of the
        // interval: comparing accumulated doubles with >= lets rounding
        // error skip (or double-emit) samples on long runs. Carrying the
        // remainder instead of zeroing keeps the long-run sample rate at
        // exactly one per interval even when the tick does not divide
        // the interval.
        if (sinceTraceSample + 0.5 * dt >= traceInterval) {
            sinceTraceSample -= traceInterval;
            // Intervals shorter than one tick saturate at one sample
            // per tick; don't let the backlog grow without bound.
            sinceTraceSample = std::min(sinceTraceSample, traceInterval);
            recordTraceSample();
        }
    }
}

void
Simulator::apportionEvents(std::uint64_t total, double weight_sum)
{
    const std::size_t n = coreLambdaCorr.size();
    coreEventSplit.assign(n, 0);
    if (n == 0 || total == 0 || weight_sum <= 0.0)
        return;

    remainderScratch.clear();
    std::uint64_t assigned = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double quota =
            double(total) * (coreLambdaCorr[i] / weight_sum);
        const double fl = std::floor(quota);
        coreEventSplit[i] = std::uint64_t(fl);
        assigned += coreEventSplit[i];
        remainderScratch.emplace_back(quota - fl, std::uint32_t(i));
    }
    // Hand the leftover events (floors undershoot the total by fewer
    // than n) to the cores with the largest fractional remainders;
    // ties break on core id so the split is fully deterministic.
    std::sort(remainderScratch.begin(), remainderScratch.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    for (std::size_t k = 0; assigned < total; k = (k + 1) % n) {
        ++coreEventSplit[remainderScratch[k].second];
        ++assigned;
    }
}

void
Simulator::stepChipAggregate(Seconds dt,
                             std::vector<std::uint64_t> &domainEvents)
{
    // 3. Per-core rate accumulation (no draws): crashed cores and
    // logic-floor crashes are handled inside tickRates exactly as in
    // tick(). Each core's rates come from its own domain's voltage
    // bucket; a sum of independent Poisson processes is Poisson
    // whatever their rates, so domains need not share a bucket.
    domainVeffScratch.resize(chip_->numDomains());
    coreLambdaCorr.assign(chip_->numCores(), 0.0);
    coreLambdaUnc.assign(chip_->numCores(), 0.0);
    double chip_corr = 0.0, chip_unc = 0.0;
    for (unsigned d = 0; d < chip_->numDomains(); ++d) {
        const Millivolt v_eff =
            chip_->domain(d).effectiveVoltage(chip_->pdn());
        domainVeffScratch[d] = v_eff;
        for (Core *core : chip_->domain(d).cores()) {
            double lc = 0.0, lu = 0.0;
            core->tickRates(coreSamples[core->id()], dt, v_eff, lc, lu);
            coreLambdaCorr[core->id()] = lc;
            coreLambdaUnc[core->id()] = lu;
            chip_corr += lc;
            chip_unc += lu;
        }
    }

    // One superposed Poisson draw for the whole chip's correctable
    // events, apportioned back to cores by largest remainder. Per-line
    // event-log attribution is unavailable at this granularity, so
    // nothing is recorded in the event log.
    if (chip_corr > 0.0) {
        const std::uint64_t total = simRng.poisson(chip_corr);
        if (total > 0) {
            apportionEvents(total, chip_corr);
            for (unsigned c = 0; c < chip_->numCores(); ++c) {
                const std::uint64_t events = coreEventSplit[c];
                if (events == 0)
                    continue;
                coreEvents[c] += events;
                domainEvents[chip_->domainIndexOf(c)] += events;
                traceWorkloadErrors += events;
            }
        }
    }

    // One survival draw over the summed uncorrectable hazard; a hit
    // crashes one core picked with probability proportional to its own
    // hazard (thinning of the superposed process).
    if (chip_unc > 0.0 && simRng.bernoulli(-std::expm1(-chip_unc))) {
        double pick = simRng.uniform() * chip_unc;
        unsigned victim = 0;
        for (unsigned c = 0; c < chip_->numCores(); ++c) {
            if (coreLambdaUnc[c] <= 0.0)
                continue;
            victim = c;
            pick -= coreLambdaUnc[c];
            if (pick <= 0.0)
                break;
        }
        chip_->core(victim).injectCrash(CrashReason::uncorrectableError);
    }

    // 4. Monitor probe bursts, in the same per-domain order as the
    // exact path.
    for (unsigned d = 0; d < chip_->numDomains(); ++d) {
        const Millivolt v_eff = domainVeffScratch[d];
        for (Core *core : chip_->domain(d).cores()) {
            for (EccMonitor *mon : {&chip_->l2iMonitor(core->id()),
                                    &chip_->l2dMonitor(core->id())}) {
                if (!mon->active())
                    continue;
                traceProbeAccum[d] += mon->runProbes(dt, v_eff, simRng);
            }
        }
    }
}

void
Simulator::run(Seconds duration)
{
    runTicks(std::uint64_t(duration / tick_ + 0.5));

    // Flush a final partial sample when the run length is not an
    // integer multiple of the trace interval, so the tail of the run is
    // not silently dropped from the telemetry.
    if (traceInterval > 0.0 && sinceTraceSample > 0.5 * tick_) {
        sinceTraceSample = 0.0;
        recordTraceSample();
    }
}

void
Simulator::runTicks(std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        step(tick_);
}


void
Simulator::snapshot(StateWriter &w) const
{
    w.beginSection("sim");
    w.putDouble(currentTime);
    w.putDouble(tick_);
    w.putU8(std::uint8_t(samplingMode_));
    w.putDouble(traceInterval);
    w.putDouble(sinceTraceSample);
    w.putU64(traceWorkloadErrors);
    w.putU64(traceProbeAccum.size());
    for (const ProbeStats &s : traceProbeAccum) {
        w.putU64(s.accesses);
        w.putU64(s.correctableEvents);
        w.putU64(s.uncorrectableEvents);
    }
    w.putU64Vector(coreEvents);
    simRng.saveState(w);
    w.putBool(controlSystem != nullptr);
    w.putU64(softwareSpecs.size());
    for (const SoftwareSpeculator *spec : softwareSpecs)
        w.putBool(spec != nullptr);
    w.putBool(recovery != nullptr);
    w.putBool(injector != nullptr);
    w.putU64(memProbeAccum.size());
    for (const ProbeStats &s : memProbeAccum) {
        w.putU64(s.accesses);
        w.putU64(s.correctableEvents);
        w.putU64(s.uncorrectableEvents);
    }
    w.putU64Vector(memEvents_);
    w.endSection();

    w.beginSection("chip");
    chip_->saveState(w);
    w.endSection();

    w.beginSection("energy");
    w.putU64(coreEnergy_.size());
    for (const EnergyAccount &account : coreEnergy_)
        account.saveState(w);
    chipEnergy_.saveState(w);
    w.putU64(memEnergy_.size());
    for (const EnergyAccount &account : memEnergy_)
        account.saveState(w);
    w.endSection();

    w.beginSection("log");
    log.saveState(w);
    w.endSection();

    w.beginSection("trace");
    trace_.saveState(w);
    w.endSection();

    if (controlSystem) {
        w.beginSection("control");
        controlSystem->saveState(w);
        w.endSection();
    }
    bool any_spec = false;
    for (const SoftwareSpeculator *spec : softwareSpecs)
        any_spec = any_spec || spec != nullptr;
    if (any_spec) {
        w.beginSection("specs");
        for (const SoftwareSpeculator *spec : softwareSpecs) {
            if (spec)
                spec->saveState(w);
        }
        w.endSection();
    }
    if (recovery) {
        w.beginSection("recovery");
        recovery->saveState(w);
        w.endSection();
    }
    if (injector) {
        w.beginSection("injector");
        injector->saveState(w);
        w.endSection();
    }
}

void
Simulator::restore(StateReader &r)
{
    r.beginSection("sim");
    currentTime = r.getDouble();
    const Seconds snap_tick = r.getDouble();
    if (snap_tick != tick_)
        throw SnapshotError("tick size mismatch: snapshot has " +
                            std::to_string(snap_tick) +
                            ", simulator has " + std::to_string(tick_));
    setSamplingMode(samplingModeFromByte(r.getU8()));
    traceInterval = r.getDouble();
    sinceTraceSample = r.getDouble();
    traceWorkloadErrors = r.getU64();
    const std::uint64_t n_accum = r.getU64();
    if (n_accum != traceProbeAccum.size())
        throw SnapshotError("probe accumulator count mismatch");
    for (ProbeStats &s : traceProbeAccum) {
        s.accesses = r.getU64();
        s.correctableEvents = r.getU64();
        s.uncorrectableEvents = r.getU64();
    }
    const std::vector<std::uint64_t> events = r.getU64Vector();
    if (events.size() != coreEvents.size())
        throw SnapshotError("core event counter count mismatch");
    coreEvents = events;
    simRng.loadState(r);
    const bool has_control = r.getBool();
    const std::uint64_t n_spec_slots = r.getU64();
    if (n_spec_slots != softwareSpecs.size())
        throw SnapshotError("speculator slot count mismatch");
    std::vector<bool> spec_present(softwareSpecs.size());
    bool any_spec = false;
    for (std::size_t d = 0; d < softwareSpecs.size(); ++d) {
        spec_present[d] = r.getBool();
        any_spec = any_spec || spec_present[d];
        if (spec_present[d] != (softwareSpecs[d] != nullptr))
            throw SnapshotError(
                "software speculator attachment mismatch on domain " +
                std::to_string(d) +
                " (attach the same components before restore)");
    }
    const bool has_recovery = r.getBool();
    const bool has_injector = r.getBool();
    if (has_control != (controlSystem != nullptr))
        throw SnapshotError("control system attachment mismatch");
    if (has_recovery != (recovery != nullptr))
        throw SnapshotError("recovery manager attachment mismatch");
    if (has_injector != (injector != nullptr))
        throw SnapshotError("fault injector attachment mismatch");
    const std::uint64_t n_mem_accum = r.getU64();
    if (n_mem_accum != memProbeAccum.size())
        throw SnapshotError(
            "mem domain probe accumulator count mismatch: snapshot has " +
            std::to_string(n_mem_accum) + ", simulator has " +
            std::to_string(memProbeAccum.size()));
    for (ProbeStats &s : memProbeAccum) {
        s.accesses = r.getU64();
        s.correctableEvents = r.getU64();
        s.uncorrectableEvents = r.getU64();
    }
    const std::vector<std::uint64_t> mem_events = r.getU64Vector();
    if (mem_events.size() != memEvents_.size())
        throw SnapshotError("mem event counter count mismatch");
    memEvents_ = mem_events;
    r.endSection();

    r.beginSection("chip");
    chip_->loadState(r);
    r.endSection();

    r.beginSection("energy");
    const std::uint64_t n_accounts = r.getU64();
    if (n_accounts != coreEnergy_.size())
        throw SnapshotError("energy account count mismatch");
    for (EnergyAccount &account : coreEnergy_)
        account.loadState(r);
    chipEnergy_.loadState(r);
    const std::uint64_t n_mem_accounts = r.getU64();
    if (n_mem_accounts != memEnergy_.size())
        throw SnapshotError("mem energy account count mismatch");
    for (EnergyAccount &account : memEnergy_)
        account.loadState(r);
    r.endSection();

    r.beginSection("log");
    log.loadState(r);
    r.endSection();

    r.beginSection("trace");
    trace_.loadState(r);
    r.endSection();

    if (controlSystem) {
        r.beginSection("control");
        controlSystem->loadState(r);
        r.endSection();
    }
    if (any_spec) {
        r.beginSection("specs");
        for (SoftwareSpeculator *spec : softwareSpecs) {
            if (spec)
                spec->loadState(r);
        }
        r.endSection();
    }
    if (recovery) {
        r.beginSection("recovery");
        recovery->loadState(r);
        r.endSection();
    }
    if (injector) {
        r.beginSection("injector");
        injector->loadState(r);
        r.endSection();
    }
}

} // namespace vspec
