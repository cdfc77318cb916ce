#include "fleet/fleet.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "snapshot/state_io.hh"
#include "workload/benchmarks.hh"

namespace vspec
{

namespace
{

bool
faultsArmed(const FaultInjector::Config &faults)
{
    return faults.bitFlipsPerHour > 0.0 || faults.dueFlipsPerHour > 0.0 ||
           faults.droopsPerHour > 0.0 ||
           faults.monitorDropoutsPerHour > 0.0 ||
           faults.stuckRegulatorsPerHour > 0.0;
}

void
saveJob(StateWriter &w, const Job &job)
{
    w.putU64(job.id);
    w.putU64(job.classIndex);
    w.putDouble(job.arrival);
    w.putDouble(job.serviceTime);
    w.putDouble(job.deadline);
    w.putDouble(job.accruedEnergy);
}

Job
loadJob(StateReader &r)
{
    Job job;
    job.id = r.getU64();
    job.classIndex = unsigned(r.getU64());
    job.arrival = r.getDouble();
    job.serviceTime = r.getDouble();
    job.deadline = r.getDouble();
    job.accruedEnergy = r.getDouble();
    return job;
}

} // namespace

FleetNode::FleetNode(const FleetConfig &config, unsigned index)
    : cfg(&config), nodeIndex(index)
{
    ChipConfig chip_cfg = config.chip;
    chip_cfg.seed = mix64(config.seed, index);
    if (!config.nodeSchemes.empty())
        chip_cfg.eccScheme =
            config.nodeSchemes[index % config.nodeSchemes.size()];
    if (!config.nodeMemDomains.empty())
        chip_cfg.memDomains =
            config.nodeMemDomains[index % config.nodeMemDomains.size()];
    chip_ = std::make_unique<Chip>(chip_cfg);

    // Throughput cost of the node's protection tier: extra decode
    // cycles relative to the Hamming baseline stretch every job's
    // service time (Hsiao's shallower decode shrinks it slightly).
    {
        const unsigned data_bits = itanium9560::l2Data().eccDataBits;
        const double lat = codecTraits(chip_cfg.eccScheme, data_bits)
                               .decodeLatencyCycles;
        const double base_lat =
            codecTraits(EccScheme::hamming, data_bits)
                .decodeLatencyCycles;
        eccServiceFactor =
            1.0 + (lat - base_lat) * config.eccLatencyServiceWeight;
    }

    setup = harness::armHardware(*chip_);
    recoveryMgr = harness::armRecovery(*chip_, config.recovery);

    sim = std::make_unique<Simulator>(*chip_, config.tick);
    sim->setSamplingMode(config.sampling);
    sim->attachControlSystem(setup.control.get());
    sim->attachRecoveryManager(recoveryMgr.get());
    if (faultsArmed(config.faults)) {
        injector = harness::armFaultInjector(*chip_, config.faults,
                                             &sim->eventLog());
        sim->attachFaultInjector(injector.get());
    }

    harness::assignIdle(*chip_);
    slots.resize(chip_->numCores());
    if (config.exactLatencyValidation)
        shard.enableExactHistogram();
    powerMark = sim->chipEnergy().snapshot();
}

double
FleetNode::memServiceFactor() const
{
    const unsigned n = chip_->numMemDomains();
    if (n == 0)
        return 1.0;
    // Mean relative access-latency growth across the node's memory
    // domains at their live rail voltages: undervolted memory serves
    // every job a little slower (Voltron's latency-reliability trade).
    double ratio_sum = 0.0;
    for (unsigned m = 0; m < n; ++m) {
        const MemDomain &md = chip_->memDomain(m);
        ratio_sum += md.array().accessLatencyNs(md.effectiveVoltage()) /
                     md.array().accessLatencyNs(md.nominalMv());
    }
    const double mean_ratio = ratio_sum / double(n);
    return 1.0 + (mean_ratio - 1.0) * cfg->memLatencyServiceWeight;
}

Joule
FleetNode::memEnergy() const
{
    Joule total = 0.0;
    for (unsigned m = 0; m < chip_->numMemDomains(); ++m)
        total += sim->memEnergy(m).energy();
    return total;
}

std::uint64_t
FleetNode::memRecoveries() const
{
    std::uint64_t total = 0;
    for (unsigned m = 0; m < chip_->numMemDomains(); ++m)
        total += chip_->memDomain(m).recoveries();
    return total;
}

std::uint64_t
FleetNode::memCorrectableEvents() const
{
    std::uint64_t total = 0;
    for (unsigned m = 0; m < chip_->numMemDomains(); ++m)
        total += sim->memCorrectableEvents(m);
    return total;
}

unsigned
FleetNode::schedulableCores() const
{
    unsigned count = 0;
    for (unsigned c = 0; c < chip_->numCores(); ++c)
        count += recoveryMgr->isAbandoned(c) ? 0 : 1;
    return count;
}

unsigned
FleetNode::busyCores() const
{
    unsigned count = 0;
    for (const CoreSlot &slot : slots)
        count += slot.job ? 1 : 0;
    return count;
}

double
FleetNode::riskScore(unsigned core) const
{
    return slots.at(core).risk;
}

Millivolt
FleetNode::headroom(unsigned core) const
{
    const Millivolt nominal =
        chip_->config().operatingPoint.nominalVdd;
    return nominal - chip_->domainOf(core).regulator().setpoint();
}

void
FleetNode::placeJob(unsigned core, const Job &job)
{
    CoreSlot &slot = slots.at(core);
    if (slot.job)
        panic("FleetNode: core ", core, " of chip ", nodeIndex,
              " is already running job ", slot.job->id);
    if (recoveryMgr->isAbandoned(core))
        panic("FleetNode: placing on abandoned core ", core);
    slot.job = job;
    slot.remaining = job.serviceTime;
    if (eccServiceFactor != 1.0)
        slot.remaining *= eccServiceFactor;
    const double mem_factor = memServiceFactor();
    if (mem_factor != 1.0)
        slot.remaining *= mem_factor;
    slot.energyMark = sim->coreEnergy(core).energy();
    chip_->core(core).setWorkload(
        benchmarks::suiteSequence(classTableEntry(job).suite,
                                  cfg->jobPhaseSeconds),
        /*start_time=*/sim->now());
}

void
FleetNode::advance(Seconds slice)
{
    const Seconds start = sim->now();
    sim->run(slice);
    const Seconds now = sim->now();
    const double decay = std::exp(-slice / cfg->riskTau);
    std::uint64_t slice_recoveries = 0;

    for (unsigned c = 0; c < chip_->numCores(); ++c) {
        CoreSlot &slot = slots[c];

        // Telemetry deltas for the risk score and job stretching.
        const std::uint64_t errors = sim->coreCorrectableEvents(c);
        const std::uint64_t recoveries = recoveryMgr->recoveries(c);
        const Seconds lost = recoveryMgr->lostTime(c);
        const std::uint64_t err_delta = errors - slot.seenErrors;
        const std::uint64_t rec_delta = recoveries - slot.seenRecoveries;
        const Seconds lost_delta = lost - slot.seenLostTime;
        slot.seenErrors = errors;
        slot.seenRecoveries = recoveries;
        slot.seenLostTime = lost;

        slot.risk = slot.risk * decay +
                    cfg->riskPerError * double(err_delta) +
                    cfg->riskPerRecovery * double(rec_delta);
        if (rec_delta > 0)
            slot.lastRecoveryAt = now;
        slice_recoveries += rec_delta;

        if (!slot.job)
            continue;

        if (recoveryMgr->isAbandoned(c)) {
            // The core was retired mid-job: hand the job back to the
            // fleet for another chip (its arrival time, and therefore
            // its accumulating latency, is preserved, as is the energy
            // already burned on the dead core).
            slot.job->accruedEnergy +=
                sim->coreEnergy(c).energy() - slot.energyMark;
            requeued.push_back(*slot.job);
            slot.job.reset();
            slot.remaining = 0.0;
            continue;
        }

        // Rollbacks re-execute lost work: the job stretches by exactly
        // the time the recovery manager charged to this core.
        slot.remaining += lost_delta;
        slot.remaining -= slice;
        if (slot.remaining <= 0.0) {
            // The job finished partway through the slice.
            const Seconds completion =
                std::clamp(now + slot.remaining, start, now);
            slot.job->accruedEnergy +=
                sim->coreEnergy(c).energy() - slot.energyMark;
            shard.recordCompletion(*slot.job,
                                   classTableEntry(*slot.job),
                                   completion, slot.job->accruedEnergy);
            slot.job.reset();
            slot.remaining = 0.0;
            chip_->core(c).setWorkload(
                std::make_shared<IdleWorkload>(), now);
        }
    }

    if (cfg->health.enabled)
        advanceHealth(slice, slice_recoveries);
}

void
FleetNode::advanceHealth(Seconds slice, std::uint64_t slice_recoveries)
{
    const HealthConfig &hc = cfg->health;
    const ChipHealth state = health_;
    const HealthEdge edge =
        hc.step(health_, recoveryWindow_, healthTimer_, slice_recoveries,
                slice, std::exp(-slice / hc.windowTau));
    if (!healthSchedulable(state))
        offlineTime_ += double(chip_->numCores()) * slice;
    if (edge == HealthEdge::readmit)
        ++readmissions_;
    if (edge != HealthEdge::quarantine)
        return;

    // Drain: hand every resident job back through the existing requeue
    // path (arrival time and accrued energy preserved), so the fleet
    // re-places it on healthy capacity next slice.
    const Seconds now = sim->now();
    for (unsigned c = 0; c < chip_->numCores(); ++c) {
        CoreSlot &slot = slots[c];
        if (!slot.job)
            continue;
        slot.job->accruedEnergy +=
            sim->coreEnergy(c).energy() - slot.energyMark;
        drainedWork_ += slot.remaining;
        requeued.push_back(*slot.job);
        slot.job.reset();
        slot.remaining = 0.0;
        chip_->core(c).setWorkload(std::make_shared<IdleWorkload>(),
                                   now);
    }
    ++quarantines_;
}

std::vector<Job>
FleetNode::takeRequeued()
{
    std::vector<Job> jobs = std::move(requeued);
    requeued.clear();
    return jobs;
}

PowerCapGovernor::Measurement
FleetNode::drainIntervalPower()
{
    const Watt power = sim->chipEnergy().meanPowerSince(powerMark);
    const EnergyAccount::Snapshot now = sim->chipEnergy().snapshot();
    const Seconds covered = now.elapsed - powerMark.elapsed;
    powerMark = now;
    return {power, covered};
}

void
FleetNode::appendStatus(std::vector<CoreStatus> &out,
                        bool chip_throttled) const
{
    const unsigned schedulable = schedulableCores();
    const double load =
        schedulable == 0 ? 1.0 : double(busyCores()) / schedulable;
    const Seconds now = sim->now();
    const bool node_offline = offline();

    for (unsigned c = 0; c < chip_->numCores(); ++c) {
        CoreStatus status;
        status.ref = {nodeIndex, c};
        status.busy = bool(slots[c].job);
        status.abandoned = recoveryMgr->isAbandoned(c);
        status.throttled = chip_throttled;
        status.quarantined = node_offline;
        status.headroomMv = headroom(c);
        status.riskScore = slots[c].risk;
        status.recentRecovery =
            now - slots[c].lastRecoveryAt <= cfg->riskWindow;
        status.chipLoad = load;
        out.push_back(status);
    }
}

const JobClass &
FleetNode::classTableEntry(const Job &job) const
{
    return classTable->at(job.classIndex);
}

Fleet::Fleet(const FleetConfig &config)
    : cfg(config), queue(config.jobs),
      scheduler(makeScheduler(config.policy, config.reserveForCritical,
                              config.riskThreshold)),
      governor_(config.governor, config.numChips)
{
    if (cfg.numChips == 0)
        fatal("Fleet needs at least one chip");
    if (cfg.slice <= 0.0 || cfg.tick <= 0.0 || cfg.slice < cfg.tick)
        fatal("Fleet needs 0 < tick <= slice");
    cfg.health.validate();
    if (cfg.chaos.armed()) {
        chaos_ = std::make_unique<FleetFaultInjector>(
            cfg.chaos, cfg.seed, cfg.numChips);
        thermalHot_.assign(cfg.numChips, false);
        ledger_.cover(*chaos_, 0, cfg.numChips);
        seenRecoveries_.assign(cfg.numChips, 0);
        seenQuarantines_.assign(cfg.numChips, 0);
    }
}

Fleet::~Fleet() = default;

void
Fleet::buildNodes(ExperimentPool &pool)
{
    // Node construction includes the calibration sweep, the expensive
    // part of bring-up, so it runs on the pool too: one task per chip,
    // each sampling its die from mix64(seed, index).
    nodes.resize(cfg.numChips);
    auto outcomes = pool.run(
        cfg.seed, cfg.numChips, [&](ExperimentTaskContext &ctx) {
            nodes[ctx.index] = std::make_unique<FleetNode>(
                cfg, unsigned(ctx.index));
            return 0;
        });
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].ok())
            fatal("fleet chip ", i, " failed to build: ",
                  outcomes[i].error);
    }
    for (auto &node : nodes)
        node->setClassTable(queue.classes());
}

std::vector<CoreStatus>
Fleet::fleetStatus() const
{
    std::vector<CoreStatus> status;
    status.reserve(std::size_t(cfg.numChips) * cfg.chip.numCores);
    for (const auto &node : nodes)
        node->appendStatus(status, governor_.throttled(node->index()));
    return status;
}

void
Fleet::placePending()
{
    if (pending.empty())
        return;
    std::vector<CoreStatus> status = fleetStatus();

    std::deque<Job> unplaced;
    while (!pending.empty()) {
        Job job = pending.front();
        pending.pop_front();

        const JobClass &cls = queue.classes().at(job.classIndex);
        const auto choice = scheduler->place(job, cls, status);
        if (!choice) {
            // This job waits, but a later one may still fit (e.g. the
            // margin-aware reserve refuses batch work while critical
            // jobs can still land on the reserved cores).
            unplaced.push_back(job);
            continue;
        }

        nodes[choice->chip]->placeJob(choice->core, job);

        // Refresh the placed chip's rows so the next decision sees it.
        const double load =
            nodes[choice->chip]->schedulableCores() == 0
                ? 1.0
                : double(nodes[choice->chip]->busyCores()) /
                      nodes[choice->chip]->schedulableCores();
        for (CoreStatus &row : status) {
            if (row.ref.chip != choice->chip)
                continue;
            row.chipLoad = load;
            if (row.ref == *choice)
                row.busy = true;
        }
    }
    pending = std::move(unplaced);
}

void
Fleet::applyChaos()
{
    chaos_->beginSlice(cfg.slice);
    for (unsigned i = 0; i < cfg.numChips; ++i) {
        FleetNode &node = *nodes[i];

        // Shared-rail droop: fan the transient out to each member
        // chip's PDN. Re-injecting every active slice is idempotent
        // (injectTransient takes the max), and a slice-length duration
        // keeps the transient exactly as long as the domain event.
        const Millivolt droop = chaos_->railDroopMv(i);
        if (droop > 0.0)
            node.chip().pdn().injectTransient(droop, cfg.slice);

        // Thermal excursion: member mem arrays run hot for the event,
        // back to reference at expiry. Edge-triggered — setTemperature
        // invalidates the arrays' rate caches.
        const Celsius delta = chaos_->thermalDeltaC(i);
        const bool hot = delta > 0.0;
        if (hot != thermalHot_[i]) {
            for (unsigned m = 0; m < node.chip().numMemDomains(); ++m) {
                MemArray &arr = node.chip().memDomain(m).array();
                arr.setTemperature(arr.params().referenceTemp +
                                   (hot ? delta : 0.0));
            }
            thermalHot_[i] = hot;
        }
    }
}

void
Fleet::creditDomains()
{
    for (unsigned i = 0; i < cfg.numChips; ++i) {
        const FleetNode &node = *nodes[i];
        const std::uint64_t recoveries = node.recovery().recoveries();
        const std::uint64_t quarantines = node.quarantines();
        const std::uint64_t rec_delta = recoveries - seenRecoveries_[i];
        const std::uint64_t q_delta = quarantines - seenQuarantines_[i];
        seenRecoveries_[i] = recoveries;
        seenQuarantines_[i] = quarantines;
        const Seconds offline =
            node.offline()
                ? double(node.chip().numCores()) * cfg.slice
                : 0.0;
        ledger_.credit(*chaos_, i, rec_delta, q_delta, offline);
    }
}

void
Fleet::run(Seconds duration, ExperimentPool &pool)
{
    if (duration < 0.0)
        fatal("Fleet::run needs a non-negative duration");
    if (nodes.empty())
        buildNodes(pool);

    const std::uint64_t slices =
        std::uint64_t(duration / cfg.slice + 0.5);
    const std::uint64_t governor_slices = std::max<std::uint64_t>(
        1, std::uint64_t(cfg.governor.interval / cfg.slice + 0.5));

    for (std::uint64_t s = 0; s < slices; ++s) {
        // 0. Correlated events: advance the injector's clock and fan
        // the active events out to member chips (serial phase).
        if (chaos_)
            applyChaos();

        // 1. Arrivals up to the slice start, then jobs bumped off
        // abandoned cores (they are older, so they go first).
        std::vector<Job> arrivals = queue.drainArrivalsUpTo(now_);
        submitted += arrivals.size();
        for (auto &node : nodes) {
            for (Job &job : node->takeRequeued()) {
                ++requeueCount;
                pending.push_front(job);
            }
        }
        for (Job &job : arrivals)
            pending.push_back(job);

        // 2. Power-cap redistribution on the governor cadence. Slice 0
        // is skipped: no simulated time has elapsed, so a measurement
        // would seed the demand estimates with zeros.
        if (governor_.enabled() && sliceIndex > 0 &&
            sliceIndex % governor_slices == 0) {
            // Quarantined capacity is absent: its demand stops feeding
            // the EWMA and its cap share redistributes.
            if (cfg.health.enabled) {
                for (unsigned i = 0; i < cfg.numChips; ++i)
                    governor_.setAbsent(i, nodes[i]->offline());
            }
            std::vector<PowerCapGovernor::Measurement> power;
            power.reserve(nodes.size());
            for (auto &node : nodes)
                power.push_back(node->drainIntervalPower());
            governor_.update(power);
        }

        // 3. Placement (serial, deterministic).
        placePending();

        // 4. Parallel advance: one pool task per chip; nothing shared.
        auto outcomes = pool.run(
            mix64(cfg.seed, sliceIndex), nodes.size(),
            [&](ExperimentTaskContext &ctx) {
                nodes[ctx.index]->advance(cfg.slice);
                return 0;
            });
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (!outcomes[i].ok())
                fatal("fleet chip ", i, " failed during slice ",
                      sliceIndex, ": ", outcomes[i].error);
        }

        now_ += cfg.slice;
        ++sliceIndex;

        // 5. Blast-radius attribution from this slice's node deltas.
        if (chaos_)
            creditDomains();
    }
}

FleetReport
Fleet::report() const
{
    FleetReport rep;
    rep.simulated = now_;
    rep.submitted = submitted;
    rep.requeued = requeueCount;
    rep.pendingAtEnd = pending.size();
    rep.throttleEpisodes = governor_.throttleEpisodes();

    FleetMetrics merged;
    rep.availability = nodes.empty() ? 1.0 : 0.0;
    for (const auto &node : nodes) {
        merged.merge(node->metrics());
        rep.runningAtEnd += node->busyCores();
        rep.fleetEnergy += node->chipEnergy();
        // A node's availability loses both its recovery rollback time
        // and the core-time it sat quarantined or self-testing.
        double avail = node->recovery().availability(now_);
        if (now_ > 0.0 && node->offlineTime() > 0.0)
            avail -= node->offlineTime() /
                     (double(node->chip().numCores()) * now_);
        rep.availability += std::clamp(avail, 0.0, 1.0);
        rep.recoveries += node->recovery().recoveries();
        rep.abandonedCores += node->recovery().abandonedCores();
        rep.quarantines += node->quarantines();
        rep.readmissions += node->readmissions();
        rep.drainedCoreSeconds += node->drainedWork();
        if (node->offline())
            ++rep.offlineChipsAtEnd;
        if (const FaultInjector *inj = node->faultInjector()) {
            rep.injectedBitFlips += inj->stats().bitFlips;
            rep.injectedDues += inj->stats().dues;
        }
        rep.memEnergy += node->memEnergy();
        rep.memRecoveries += node->memRecoveries();
        rep.memCorrectable += node->memCorrectableEvents();
    }
    if (!nodes.empty())
        rep.availability /= double(nodes.size());

    rep.completed = merged.completed();
    rep.completedCritical = merged.completedCritical();
    rep.slaViolations = merged.slaViolations();
    for (const Job &job : pending) {
        if (job.deadline < now_)
            ++rep.slaViolations;
    }
    // Jobs bumped off abandoned cores in the final slice sit in their
    // node's requeue buffer until the next slice start; at report time
    // they are still in flight. Without this they would vanish from
    // the conservation identity (submitted == completed + pending +
    // running) and from the overdue count.
    for (const auto &node : nodes) {
        for (const Job &job : node->pendingRequeues()) {
            ++rep.pendingAtEnd;
            if (job.deadline < now_)
                ++rep.slaViolations;
        }
    }
    if (now_ > 0.0) {
        rep.throughputPerSec = double(rep.completed) / now_;
        rep.meanFleetPower = rep.fleetEnergy / now_;
    }
    if (rep.completed > 0) {
        rep.meanLatency = merged.latencyStats().mean();
        rep.p50Latency = merged.latencyQuantile(0.50);
        rep.p99Latency = merged.latencyQuantile(0.99);
        // Marginal attribution: the energy the jobs' cores drew while
        // the jobs were resident. Fleet idle draw is placement-
        // independent and would bury the scheduler's effect.
        rep.energyPerJob = merged.jobEnergy() / double(rep.completed);
    }

    // Blast-radius attribution rows; the cold path credits no SLA
    // misses to domains.
    if (chaos_)
        ledger_.appendRows(*chaos_, nullptr, rep.domainImpact);
    return rep;
}

void
DomainLedger::cover(const FleetFaultInjector &chaos, unsigned chip_lo,
                    unsigned chip_hi)
{
    for (unsigned kk = 0; kk < kNumFailureDomainKinds; ++kk) {
        const auto kind = FailureDomainKind(kk);
        Span &span = spans[kk];
        if (chaos.domainSize(kind) == 0)
            continue;
        span.base = chaos.domainOf(kind, chip_lo);
        const unsigned count =
            chaos.domainOf(kind, chip_hi - 1) - span.base + 1;
        span.dues.assign(count, 0);
        span.quarantines.assign(count, 0);
        span.offline.assign(count, 0.0);
    }
}

void
DomainLedger::credit(const FleetFaultInjector &chaos, unsigned chip,
                     std::uint64_t dues, std::uint64_t quarantines,
                     Seconds offline)
{
    chaos.forEachActiveDomain(
        chip, [&](FailureDomainKind kind, unsigned domain) {
            Span &span = spans[std::size_t(kind)];
            const unsigned d = domain - span.base;
            span.dues[d] += dues;
            span.quarantines[d] += quarantines;
            span.offline[d] += offline;
        });
}

void
DomainLedger::fold(const DomainLedger &part)
{
    for (unsigned kk = 0; kk < kNumFailureDomainKinds; ++kk) {
        Span &into = spans[kk];
        const Span &from = part.spans[kk];
        const unsigned at = from.base - into.base;
        for (std::size_t d = 0; d < from.dues.size(); ++d) {
            into.dues[at + d] += from.dues[d];
            into.quarantines[at + d] += from.quarantines[d];
            into.offline[at + d] += from.offline[d];
        }
    }
}

void
DomainLedger::appendRows(const FleetFaultInjector &chaos,
                         const Misses *misses,
                         std::vector<FleetReport::DomainImpact> &out) const
{
    for (unsigned kk = 0; kk < kNumFailureDomainKinds; ++kk) {
        const auto kind = FailureDomainKind(kk);
        const Span &span = spans[kk];
        const std::vector<std::uint64_t> &events = chaos.domainEvents(kind);
        for (std::size_t d = 0; d < span.dues.size(); ++d) {
            const unsigned domain = span.base + unsigned(d);
            const std::uint64_t missed =
                misses ? (*misses)[kk][domain] : 0;
            if (events[domain] == 0 && span.dues[d] == 0 &&
                span.quarantines[d] == 0 && missed == 0 &&
                span.offline[d] == 0.0)
                continue;
            FleetReport::DomainImpact row;
            row.kind = kind;
            row.domain = domain;
            row.events = events[domain];
            row.dues = span.dues[d];
            row.quarantines = span.quarantines[d];
            row.slaMisses = missed;
            row.offlineCoreSeconds = span.offline[d];
            out.push_back(row);
        }
    }
}

void
DomainLedger::saveState(StateWriter &w) const
{
    for (const Span &span : spans) {
        w.putU64Vector(span.dues);
        w.putU64Vector(span.quarantines);
        w.putDoubleVector(span.offline);
    }
}

void
DomainLedger::loadState(StateReader &r)
{
    const auto load = [](auto &into, auto loaded) {
        if (loaded.size() != into.size())
            throw SnapshotError("blast-radius domain count mismatch");
        into = std::move(loaded);
    };
    for (Span &span : spans) {
        load(span.dues, r.getU64Vector());
        load(span.quarantines, r.getU64Vector());
        load(span.offline, r.getDoubleVector());
    }
}

void
FleetNode::saveState(StateWriter &w) const
{
    w.beginSection("node");
    w.putU64(nodeIndex);
    w.putU64(slots.size());
    for (const CoreSlot &slot : slots) {
        w.putBool(bool(slot.job));
        if (slot.job)
            saveJob(w, *slot.job);
        w.putDouble(slot.remaining);
        w.putDouble(slot.energyMark);
        w.putDouble(slot.risk);
        w.putDouble(slot.lastRecoveryAt);
        w.putU64(slot.seenErrors);
        w.putU64(slot.seenRecoveries);
        w.putDouble(slot.seenLostTime);
    }
    w.putU64(requeued.size());
    for (const Job &job : requeued)
        saveJob(w, job);
    shard.saveState(w);
    w.putDouble(powerMark.energy);
    w.putDouble(powerMark.elapsed);

    // Format v4: the node's health FSM.
    w.putU64(std::uint64_t(health_));
    w.putDouble(recoveryWindow_);
    w.putDouble(healthTimer_);
    w.putU64(quarantines_);
    w.putU64(readmissions_);
    w.putDouble(offlineTime_);
    w.putDouble(drainedWork_);
    w.endSection();

    sim->snapshot(w);
}

void
FleetNode::loadState(StateReader &r)
{
    r.beginSection("node");
    const std::uint64_t idx = r.getU64();
    if (idx != nodeIndex)
        throw SnapshotError("node index mismatch: snapshot has " +
                            std::to_string(idx) + ", node is " +
                            std::to_string(nodeIndex));
    const std::uint64_t n_slots = r.getU64();
    if (n_slots != slots.size())
        throw SnapshotError("core slot count mismatch");
    for (unsigned c = 0; c < unsigned(slots.size()); ++c) {
        CoreSlot &slot = slots[c];
        slot.job.reset();
        if (r.getBool())
            slot.job = loadJob(r);
        slot.remaining = r.getDouble();
        slot.energyMark = r.getDouble();
        slot.risk = r.getDouble();
        slot.lastRecoveryAt = r.getDouble();
        slot.seenErrors = r.getU64();
        slot.seenRecoveries = r.getU64();
        slot.seenLostTime = r.getDouble();

        // Re-bind the resident job's workload before the simulator
        // overlay: the workload object is reconstruction state (a pure
        // function of the job class), and Core::loadState restores the
        // start time the original placement used.
        if (slot.job) {
            chip_->core(c).setWorkload(
                benchmarks::suiteSequence(
                    classTableEntry(*slot.job).suite,
                    cfg->jobPhaseSeconds),
                /*start_time=*/0.0);
        }
    }
    requeued.clear();
    const std::uint64_t n_requeued = r.getU64();
    for (std::uint64_t i = 0; i < n_requeued; ++i)
        requeued.push_back(loadJob(r));
    shard.loadState(r);
    powerMark.energy = r.getDouble();
    powerMark.elapsed = r.getDouble();

    const std::uint64_t health = r.getU64();
    if (health > std::uint64_t(ChipHealth::probation))
        throw SnapshotError("invalid chip health state in snapshot");
    health_ = ChipHealth(health);
    recoveryWindow_ = r.getDouble();
    healthTimer_ = r.getDouble();
    quarantines_ = r.getU64();
    readmissions_ = r.getU64();
    offlineTime_ = r.getDouble();
    drainedWork_ = r.getDouble();
    r.endSection();

    sim->restore(r);
}

void
Fleet::snapshot(StateWriter &w) const
{
    if (nodes.empty())
        panic("Fleet::snapshot before the nodes were built "
              "(run the fleet first)");
    w.beginSection("fleet");
    w.putDouble(now_);
    w.putU64(sliceIndex);
    w.putU64(submitted);
    w.putU64(requeueCount);
    queue.saveState(w);
    scheduler->saveState(w);
    governor_.saveState(w);
    w.putU64(nodes.size());
    w.putU64(pending.size());
    for (const Job &job : pending)
        saveJob(w, job);

    // Format v4: the correlated-event injector and the fleet-level
    // blast-radius attribution.
    saveFleetChaos(w, chaos_.get());
    if (chaos_) {
        std::vector<std::uint64_t> hot(thermalHot_.size());
        for (std::size_t i = 0; i < thermalHot_.size(); ++i)
            hot[i] = thermalHot_[i] ? 1 : 0;
        w.putU64Vector(hot);
        ledger_.saveState(w);
        w.putU64Vector(seenRecoveries_);
        w.putU64Vector(seenQuarantines_);
    }
    w.endSection();

    for (const auto &node : nodes)
        node->saveState(w);
}

void
Fleet::restore(StateReader &r, ExperimentPool &pool)
{
    if (nodes.empty())
        buildNodes(pool);

    r.beginSection("fleet");
    now_ = r.getDouble();
    sliceIndex = r.getU64();
    submitted = r.getU64();
    requeueCount = r.getU64();
    queue.loadState(r);
    scheduler->loadState(r);
    governor_.loadState(r);
    const std::uint64_t n_nodes = r.getU64();
    if (n_nodes != nodes.size())
        throw SnapshotError("fleet node count mismatch: snapshot has " +
                            std::to_string(n_nodes) + ", fleet has " +
                            std::to_string(nodes.size()));
    pending.clear();
    const std::uint64_t n_pending = r.getU64();
    for (std::uint64_t i = 0; i < n_pending; ++i)
        pending.push_back(loadJob(r));

    loadFleetChaos(r, chaos_.get());
    if (chaos_) {
        const std::vector<std::uint64_t> hot = r.getU64Vector();
        if (hot.size() != thermalHot_.size())
            throw SnapshotError("fleet thermal flag count mismatch");
        for (std::size_t i = 0; i < hot.size(); ++i)
            thermalHot_[i] = hot[i] != 0;
        ledger_.loadState(r);
        const std::vector<std::uint64_t> seen_r = r.getU64Vector();
        const std::vector<std::uint64_t> seen_q = r.getU64Vector();
        if (seen_r.size() != seenRecoveries_.size() ||
            seen_q.size() != seenQuarantines_.size())
            throw SnapshotError("fleet baseline counter mismatch");
        seenRecoveries_ = seen_r;
        seenQuarantines_ = seen_q;
    }
    r.endSection();

    for (auto &node : nodes)
        node->loadState(r);
}

} // namespace vspec
