#include "fleet/shard.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "snapshot/state_io.hh"

namespace vspec
{

namespace
{

/** Event-rate ceilings: a rail stuck below minSafe must produce a
 *  storm, not an overflowing Poisson mean. */
constexpr double maxCorrRate = 2000.0;
constexpr double maxDueRate = 5.0;

double
sq(double x)
{
    return x * x;
}

} // namespace

ShardedFleet::ShardedFleet(const ScaleFleetConfig &config)
    : cfg(config), coldConfig(config.cold), traffic_(config.traffic),
      governor_(config.governor, config.numChips)
{
    if (cfg.numChips == 0)
        fatal("ShardedFleet needs at least one chip");
    if (cfg.chipsPerShard == 0)
        fatal("ShardedFleet needs a positive shard size");
    if (cfg.slice <= 0.0 || cfg.horizon <= 0.0)
        fatal("ShardedFleet slice and horizon must be positive");
    if (cfg.placementCandidates == 0)
        fatal("ShardedFleet needs at least one placement candidate");
    if (cfg.placementCandidates > kMaxCandidates ||
        cfg.numChips > kChipMask)
        fatal("ShardedFleet supports at most ", kMaxCandidates,
              " placement candidates and ", kChipMask, " chips");
    if (cfg.riskTau <= 0.0)
        fatal("ShardedFleet risk tau must be positive");
    if (cfg.marginQuantMv <= 0.0)
        fatal("ShardedFleet margin quantization must be positive");
    const ScaleChipModel &m = cfg.chip;
    if (m.coresPerChip == 0)
        fatal("ScaleChipModel needs at least one core per chip");
    if (m.nominalVdd <= 0.0 || m.floorMv <= 0.0 ||
        m.floorMv >= m.nominalVdd)
        fatal("ScaleChipModel rail range is inverted");
    if (m.stepMv <= 0.0 || m.backoffMv <= 0.0 || m.corrScaleMv <= 0.0 ||
        m.dueScaleMv <= 0.0)
        fatal("ScaleChipModel voltage constants must be positive");
    if (m.corrRateAtMinSafe < 0.0 || m.dueRateAtMinSafe < 0.0 ||
        m.recoveryPenalty < 0.0)
        fatal("ScaleChipModel rates must be non-negative");
    cfg.health.validate();
    if (cfg.retryWatchdog <= 0.0)
        fatal("ShardedFleet retry watchdog must be positive");
    if (cfg.hedgeLoserFraction < 0.0 || cfg.hedgeLoserFraction > 1.0)
        fatal("ShardedFleet hedge loser fraction must be in [0, 1]");

    coldConfig.seed = cfg.seed;
    coldConfig.numChips = cfg.numChips;

    const unsigned n = cfg.numChips;
    sessionSalt_ = mix64(cfg.seed, 0xAFF1ULL);
    numCandidates_ = std::min(cfg.placementCandidates, n);
    // Placement slots for one arrival per chip per slice, reserved
    // once: each growth would free a large block into the heap.
    slots_.reserve(n);
    railMv_.assign(n, m.nominalVdd);
    minSafeMv_.assign(n, 0.0);
    earnedFloorMv_.assign(n, m.nominalVdd);
    backlog_.assign(n, 0.0);
    risk_.assign(n, 0.0);
    energyJ_.assign(n, 0.0);
    energyMark_.assign(n, 0.0);
    holdoff_.assign(n, 0);
    health_.assign(n, ChipHealth::healthy);
    dueWindow_.assign(n, 0.0);
    healthTimer_.assign(n, 0.0);

    if (cfg.chaos.armed())
        chaos_ = std::make_unique<FleetFaultInjector>(cfg.chaos,
                                                      cfg.seed, n);

    // Each chip's hidden minimum safe Vdd comes from its own
    // mix64(seed, chip) identity — the derivation the full-simulation
    // FleetNode uses for its variation sampling — so chip i's
    // population draw does not depend on the shard cut.
    for (unsigned i = 0; i < n; ++i) {
        Rng chip_rng(chipSeed(i));
        const double safe =
            chip_rng.gaussian(m.minSafeMeanMv, m.minSafeSigmaMv);
        minSafeMv_[i] =
            std::clamp(safe, m.floorMv * 0.5, m.nominalVdd - m.stepMv);
    }

    const unsigned num_shards = (n + cfg.chipsPerShard - 1) /
                                cfg.chipsPerShard;
    shards.resize(num_shards);
    for (unsigned s = 0; s < num_shards; ++s) {
        Shard &shard = shards[s];
        shard.lo = s * cfg.chipsPerShard;
        shard.hi = std::min(n, (s + 1) * cfg.chipsPerShard);
        shard.rng = Rng(mix64(mix64(cfg.seed, 0x5A4DULL), s));
        if (cfg.exactLatencyValidation)
            shard.metrics.enableExactHistogram();
        if (!chaos_)
            continue;
        shard.ledger.cover(*chaos_, shard.lo, shard.hi);
        for (unsigned kk = 0; kk < kNumFailureDomainKinds; ++kk) {
            const auto kind = FailureDomainKind(kk);
            if (chaos_->domainSize(kind) == 0)
                continue;
            shard.missBase[kk] = chaos_->domainOf(kind, shard.lo);
            shard.misses[kk].assign(chaos_->domainOf(kind, shard.hi - 1) -
                                        shard.missBase[kk] + 1,
                                    0);
        }
    }
    if (chaos_) {
        for (unsigned kk = 0; kk < kNumFailureDomainKinds; ++kk) {
            domainMisses_[kk].assign(
                chaos_->numDomains(FailureDomainKind(kk)), 0);
        }
    }
}

void
ShardedFleet::applyChipSlice(Shard &shard, unsigned i,
                             std::uint64_t corr, std::uint64_t dues,
                             Seconds slice, double risk_decay,
                             double inv_nominal, Seconds drain_capacity,
                             double window_decay)
{
    const ScaleChipModel &m = cfg.chip;
    const HealthConfig &hc = cfg.health;

    risk_[i] *= risk_decay;

    // The health FSM reads only its own state and this slice's DUEs;
    // everything below reacts to the edge it took.
    const ChipHealth state = health_[i];
    const HealthEdge edge =
        hc.enabled ? hc.step(health_[i], dueWindow_[i], healthTimer_[i],
                             dues, slice, window_decay)
                   : HealthEdge::none;

    if (!healthSchedulable(state)) {
        // Offline: drained of work, closed to placement. The drain
        // park rides at nominal; the firmware self-test runs every
        // core busy at nominal + boost. ECC events cause no recovery
        // (there is no workload to replay) — they only feed the
        // windowed rate that gates re-admission, so a storm that
        // outlasts the self-test keeps the chip inside.
        const bool testing = state == ChipHealth::selfTesting;
        const double util = testing ? 1.0 : 0.0;
        railMv_[i] = testing && edge != HealthEdge::readmit
                         ? m.nominalVdd + hc.selfTestBoostMv
                         : m.nominalVdd;
        if (edge == HealthEdge::readmit) {
            // Probationary earned-floor reset: re-admitted capacity
            // re-earns its depth from scratch.
            earnedFloorMv_[i] = m.nominalVdd;
            holdoff_[i] = m.holdSlices;
            risk_[i] = 0.0;
            ++shard.readmissions;
        }
        const Seconds offline_core_time =
            double(m.coresPerChip) * slice;
        shard.offlineTime += offline_core_time;
        if (chaos_)
            shard.ledger.credit(*chaos_, i, dues, 0, offline_core_time);
        const Watt power = double(m.coresPerChip) *
                           (m.idlePowerPerCore +
                            m.activePowerPerCore * util) *
                           sq(railMv_[i] * inv_nominal);
        energyJ_[i] += power * slice;
        return;
    }

    shard.corrEvents += corr;

    if (dues > 0) {
        // Crash + recovery: replay penalty on the queue, rail back
        // to nominal, speculation restarts from scratch.
        shard.dueRecoveries += dues;
        const Seconds loss = m.recoveryPenalty * double(dues);
        shard.recoveryLoss += loss;
        backlog_[i] += loss;
        railMv_[i] = m.nominalVdd;
        holdoff_[i] = m.holdSlices;
        risk_[i] += cfg.riskPerRecovery * double(dues);
    } else if (corr > m.toleratedCorrPerSlice) {
        ++shard.backoffs;
        railMv_[i] =
            std::min(m.nominalVdd, railMv_[i] + m.backoffMv);
        holdoff_[i] = m.holdSlices;
        risk_[i] += cfg.riskPerError * double(corr);
    } else if (holdoff_[i] > 0) {
        --holdoff_[i];
    } else {
        railMv_[i] = std::max(m.floorMv, railMv_[i] - m.stepMv);
    }
    earnedFloorMv_[i] = std::min(earnedFloorMv_[i], railMv_[i]);

    // Queue drain and the quadratic power dividend.
    const Seconds drained = std::min(backlog_[i], drain_capacity);
    backlog_[i] -= drained;
    const double util =
        drain_capacity > 0.0 ? drained / drain_capacity : 0.0;
    const Watt power = double(m.coresPerChip) *
                       (m.idlePowerPerCore +
                        m.activePowerPerCore * util) *
                       sq(railMv_[i] * inv_nominal);
    energyJ_[i] += power * slice;

    const bool quarantined = edge == HealthEdge::quarantine;
    if (quarantined) {
        // The watchdog declares the chip's queued work lost and
        // requeues it: the backlog drains into the shard's slice
        // buffer and the serial phase spreads it over healthy capacity
        // — the scale-path analogue of the cold fleet's abandonment
        // requeue. The rail parks at nominal.
        shard.sliceDrained += backlog_[i];
        shard.drainedWork += backlog_[i];
        if (backlog_[i] > 0.0)
            ++shard.drainEvents;
        backlog_[i] = 0.0;
        railMv_[i] = m.nominalVdd;
        holdoff_[i] = m.holdSlices;
        ++shard.quarantines;
    }
    if (chaos_ && (dues > 0 || quarantined))
        shard.ledger.credit(*chaos_, i, dues, quarantined, 0.0);
}

void
ShardedFleet::advanceShard(Shard &shard, Seconds slice)
{
    const ScaleChipModel &m = cfg.chip;
    const double risk_decay = std::exp(-slice / cfg.riskTau);
    const double inv_nominal = 1.0 / m.nominalVdd;
    const Seconds drain_capacity = double(m.coresPerChip) * slice;
    const double window_decay = std::exp(-slice / cfg.health.windowTau);

    for (unsigned i = shard.lo; i < shard.hi; ++i) {
        // ECC feedback: event rates are exponential in the margin the
        // rail keeps above the chip's hidden minimum safe Vdd. Both
        // draws always happen, so the shard RNG's position per chip
        // per slice is fixed regardless of outcomes. Correlated
        // events subtract margin (shared-rail droop, hot zone) and
        // add storm DUEs; the extra storm draw happens only while a
        // storm is active — the event schedule is serial-phase state,
        // identical for every worker-thread count, so the stream
        // position stays deterministic.
        const double margin = railMv_[i] - minSafeMv_[i] -
                              (chaos_ ? chaos_->marginPenaltyMv(i)
                                      : 0.0);
        const double corr_rate = std::min(
            m.corrRateAtMinSafe * std::exp(-margin / m.corrScaleMv),
            maxCorrRate);
        const std::uint64_t corr =
            shard.rng.poisson(corr_rate * slice);
        const double due_rate = std::min(
            m.dueRateAtMinSafe * std::exp(-margin / m.dueScaleMv),
            maxDueRate);
        std::uint64_t dues = shard.rng.poisson(due_rate * slice);
        if (chaos_) {
            const double storm = chaos_->dueStormRate(i);
            if (storm > 0.0)
                dues += shard.rng.poisson(storm * slice);
        }

        applyChipSlice(shard, i, corr, dues, slice, risk_decay,
                       inv_nominal, drain_capacity, window_decay);
    }
}

void
ShardedFleet::advanceShardBatched(Shard &shard, Seconds slice)
{
    const ScaleChipModel &m = cfg.chip;
    const double risk_decay = std::exp(-slice / cfg.riskTau);
    const double inv_nominal = 1.0 / m.nominalVdd;
    const Seconds drain_capacity = double(m.coresPerChip) * slice;
    const double window_decay = std::exp(-slice / cfg.health.windowTau);
    const unsigned n = shard.hi - shard.lo;
    if (n == 0)
        return;

    // Phase A: counting-sort the shard's chips by quantized margin
    // bucket (round-half-up, matching the probability-LUT convention).
    // The effective margin includes any correlated-event penalty, so a
    // rail group in droop pools into its own (stormier) buckets.
    auto &bucket = shard.bucketScratch;
    bucket.resize(n);
    std::int64_t bmin = 0, bmax = 0;
    for (unsigned k = 0; k < n; ++k) {
        const unsigned i = shard.lo + k;
        const double margin = railMv_[i] - minSafeMv_[i] -
                              (chaos_ ? chaos_->marginPenaltyMv(i)
                                      : 0.0);
        const std::int64_t b =
            std::int64_t(std::floor(margin / cfg.marginQuantMv + 0.5));
        bucket[k] = b;
        if (k == 0 || b < bmin)
            bmin = b;
        if (k == 0 || b > bmax)
            bmax = b;
    }
    const std::size_t nb = std::size_t(bmax - bmin) + 1;
    auto &hist = shard.histScratch;
    hist.assign(nb + 1, 0);
    for (unsigned k = 0; k < n; ++k)
        ++hist[std::size_t(bucket[k] - bmin) + 1];
    for (std::size_t b = 1; b <= nb; ++b)
        hist[b] += hist[b - 1];
    auto &order = shard.orderScratch;
    order.resize(n);
    {
        // hist[b] walks from each bucket's start offset to its end;
        // chips land in ascending chip order within a bucket.
        auto cursor = hist;
        for (unsigned k = 0; k < n; ++k)
            order[cursor[std::size_t(bucket[k] - bmin)]++] = k;
    }

    // Phase B: one pooled Poisson per event class per occupied bucket,
    // thinned to uniform member chips (all members share the bucket-
    // center rate, so thinning is exact given the quantization). A
    // bucket in storm — pooled mean far above its population — falls
    // back to per-chip draws so the thinning loop stays bounded.
    auto &corr_cnt = shard.corrScratch;
    auto &due_cnt = shard.dueScratch;
    corr_cnt.assign(n, 0);
    due_cnt.assign(n, 0);
    constexpr double perChipStormMean = 4.0;
    for (std::size_t b = 0; b < nb; ++b) {
        const std::uint32_t begin = hist[b];
        const std::uint32_t end = hist[b + 1];
        if (begin == end)
            continue;
        const std::uint32_t count = end - begin;
        const double margin_c =
            double(std::int64_t(b) + bmin) * cfg.marginQuantMv;
        const double corr_rate = std::min(
            m.corrRateAtMinSafe * std::exp(-margin_c / m.corrScaleMv),
            maxCorrRate);
        const double due_rate = std::min(
            m.dueRateAtMinSafe * std::exp(-margin_c / m.dueScaleMv),
            maxDueRate);

        if (corr_rate * slice > perChipStormMean) {
            for (std::uint32_t k = begin; k < end; ++k) {
                corr_cnt[order[k]] += std::uint32_t(
                    shard.rng.poisson(corr_rate * slice));
            }
        } else {
            const std::uint64_t total =
                shard.rng.poisson(corr_rate * slice * double(count));
            for (std::uint64_t e = 0; e < total; ++e)
                ++corr_cnt[order[begin + shard.rng.uniformInt(count)]];
        }
        const std::uint64_t dues =
            shard.rng.poisson(due_rate * slice * double(count));
        for (std::uint64_t e = 0; e < dues; ++e)
            ++due_cnt[order[begin + shard.rng.uniformInt(count)]];
    }

    // Phase C: the unchanged per-chip state machine, in chip order.
    // Storm DUEs are additive per chip (racks cut across margin
    // buckets), so their draws happen here, per member chip, after
    // the pooled phase — in chip order, deterministically.
    for (unsigned k = 0; k < n; ++k) {
        const unsigned i = shard.lo + k;
        std::uint64_t dues = due_cnt[k];
        if (chaos_) {
            const double storm = chaos_->dueStormRate(i);
            if (storm > 0.0)
                dues += shard.rng.poisson(storm * slice);
        }
        applyChipSlice(shard, i, corr_cnt[k], dues, slice, risk_decay,
                       inv_nominal, drain_capacity, window_decay);
    }
}

std::uint64_t
ShardedFleet::candidates(const TrafficArrival &arrival,
                         PlacementSlot &slot) const
{
    // The session's home chip is candidate 0; alternates are further
    // hashes of the same session key, so a session's candidate set is
    // stable across the whole run (cache/session affinity).
    const std::uint64_t key = mix64(sessionSalt_, arrival.session);
    const bool risk_aware = cfg.policy == SchedulerPolicy::riskAware;
    for (unsigned k = 0; k < numCandidates_; ++k) {
        const unsigned c = candidateChip(key, k);
        if (chipOffline(c)) {
            // Quarantined capacity is absent, not "busy".
            slot.candidates[k] = kNoCandidate;
            continue;
        }
        const bool blocked = governor_.throttled(c) ||
                             (risk_aware && risk_[c] > cfg.riskThreshold);
        slot.candidates[k] = c | (blocked ? kBlocked : 0u);
    }
    return key;
}

void
ShardedFleet::findCandidates(ExperimentPool &pool)
{
    // Fixed chunks, never derived from the worker count; each arrival's
    // slots are a pure function of frozen state, so any split fills the
    // buffer identically.
    constexpr std::size_t chunk = 4096;
    const std::size_t n = arrivalBuf.size();
    slots_.resize(n);
    slots_.reserve(n + retryQueue_.size());
    const auto fill = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t j = lo; j < hi; ++j)
            candidates(arrivalBuf[j], slots_[j]);
    };
    if (n <= chunk) {
        fill(0, n);
        return;
    }
    const auto outcomes = pool.run(
        mix64(cfg.seed, sliceIndex_), (n + chunk - 1) / chunk,
        [&](ExperimentTaskContext &ctx) {
            fill(ctx.index * chunk, std::min(n, (ctx.index + 1) * chunk));
            return 0;
        });
    for (const auto &outcome : outcomes) {
        if (!outcome.ok())
            fatal("placement candidate pass failed: ", outcome.error);
    }
}

ShardedFleet::PlacementChoice
ShardedFleet::choosePlacement(const PlacementSlot &slot,
                              const JobClass &cls) const
{
    const ScaleChipModel &m = cfg.chip;
    PlacementChoice out;
    bool have_best = false;
    double best_score = 0.0;
    double second_score = 0.0;
    unsigned fallback = 0;
    double fallback_score = 0.0;
    bool have_fallback = false;

    for (unsigned k = 0; k < numCandidates_; ++k) {
        const std::uint32_t word = slot.candidates[k];
        if (word == kNoCandidate)
            continue;
        const unsigned c = word & kChipMask;

        double score = 0.0;
        switch (cfg.policy) {
          case SchedulerPolicy::roundRobin:
            // Pure affinity: first admissible candidate wins.
            score = -double(k);
            break;
          case SchedulerPolicy::leastLoaded:
          case SchedulerPolicy::riskAware:
            score = -backlog_[c];
            break;
          case SchedulerPolicy::marginAware:
            // Critical jobs chase the deepest earned rail (cheapest
            // joules per request); batch balances load.
            score = cls.latencyCritical ? (m.nominalVdd - railMv_[c])
                                        : -backlog_[c];
            break;
        }

        if (!have_fallback || score > fallback_score) {
            fallback = c;
            fallback_score = score;
            have_fallback = true;
        }
        if (word & kBlocked)
            continue;
        if (!have_best || score > best_score) {
            if (have_best && out.best != c) {
                out.second = out.best;
                second_score = best_score;
                out.haveSecond = true;
            }
            out.best = c;
            best_score = score;
            have_best = true;
        } else if (c != out.best &&
                   (!out.haveSecond || score > second_score)) {
            out.second = c;
            second_score = score;
            out.haveSecond = true;
        }
        if (cfg.policy == SchedulerPolicy::roundRobin && have_best &&
            (!cls.hedge || out.haveSecond))
            break; // home chip admissible: stop probing
    }
    if (have_best || have_fallback) {
        out.found = true;
        if (!have_best)
            out.best = fallback;
    }
    return out;
}

ShardedFleet::PlacementChoice
ShardedFleet::forcePlacement(std::uint64_t key) const
{
    PlacementChoice out;
    const unsigned n = cfg.numChips;
    const unsigned home = candidateChip(key, 0);
    for (unsigned j = 0; j < n; ++j) {
        const unsigned c = (home + j) % n;
        if (!chipOffline(c)) {
            out.found = true;
            out.best = c;
            break;
        }
    }
    return out;
}

ShardedFleet::PlaceOutcome
ShardedFleet::placeOne(const TrafficArrival &arrival, const JobClass &cls,
                       const PlacementChoice &choice, std::uint32_t slot,
                       unsigned attempt, Seconds effective_start,
                       bool force, Seconds &latency_sum,
                       std::uint64_t &placed)
{
    const ScaleChipModel &m = cfg.chip;
    if (!choice.found)
        return PlaceOutcome::noCapacity;
    unsigned c = choice.best;
    if (chipOffline(c))
        ++placementsOnQuarantined_; // invariant counter: never fires

    const Seconds start = std::max(effective_start, arrival.arrival);
    Seconds wait = backlog_[c] / double(m.coresPerChip);

    // Deadline-aware retry: a placement already predicted to miss its
    // deadline defers under the class's retry budget (exponential
    // backoff) instead of queueing work we know will blow the SLA.
    if (!force && cls.maxRetries > 0 && attempt < cls.maxRetries &&
        start + wait + arrival.serviceTime > arrival.deadline)
        return PlaceOutcome::retry;

    // Queue-drain latency model: the job waits behind the chip's
    // current backlog, then holds one core for its service time.
    // Same-slice arrivals to the same chip stack up, because the
    // placement itself grows the backlog.
    Joule job_energy;
    if (cls.hedge && choice.haveSecond && choice.second != c) {
        // Hedged duplicate: both candidates start the request, the
        // first completion wins and takes the full service; the loser
        // is cancelled after hedgeLoserFraction of it, but its backlog
        // occupancy and joules still count.
        const unsigned c2 = choice.second;
        const Seconds wait2 = backlog_[c2] / double(m.coresPerChip);
        const unsigned winner = wait2 < wait ? c2 : c;
        const unsigned loser = winner == c ? c2 : c;
        wait = std::min(wait, wait2);
        backlog_[winner] += arrival.serviceTime;
        backlog_[loser] +=
            arrival.serviceTime * cfg.hedgeLoserFraction;
        job_energy = arrival.serviceTime * m.activePowerPerCore *
                         sq(railMv_[winner] / m.nominalVdd) +
                     arrival.serviceTime * cfg.hedgeLoserFraction *
                         m.activePowerPerCore *
                         sq(railMv_[loser] / m.nominalVdd);
        c = winner;
        ++hedgedJobs_;
    } else {
        backlog_[c] += arrival.serviceTime;
        // Marginal energy attribution at the chip's current operating
        // point: the deeper the earned rail, the cheaper the joules.
        job_energy = arrival.serviceTime * m.activePowerPerCore *
                     sq(railMv_[c] / m.nominalVdd);
    }

    const Seconds job_latency =
        (start - arrival.arrival) + wait + arrival.serviceTime;
    const Seconds completion = arrival.arrival + job_latency;

    latency_sum += job_latency;
    ++placed;

    // The serving chip's shard task records the completion and charges
    // a miss to every failure domain with an active event over the
    // chip (blast-radius attribution); log only what it will read.
    const bool completed = completion <= cfg.horizon;
    const bool late = completion > arrival.deadline;
    if (completed || (late && chaos_)) {
        slots_[slot].record = {completion - arrival.arrival,
                               c | (completed ? kCompleted : 0u) |
                                   (late ? kLate : 0u) |
                                   (cls.latencyCritical ? kCritical : 0u),
                               kEndOfLog};
        Shard &shard = shards[shardOf(c)];
        if (completed)
            shard.metrics.addJobEnergy(job_energy);
        if (shard.logTail == kEndOfLog)
            shard.logHead = slot;
        else
            slots_[shard.logTail].record.next = slot;
        shard.logTail = slot;
    }
    if (!completed) {
        ++pendingAtEnd_;
        if (arrival.deadline < cfg.horizon)
            ++pendingViolations_;
    }
    return PlaceOutcome::placed;
}

void
ShardedFleet::processRetries(Seconds &latency_sum,
                             std::uint64_t &placed)
{
    if (retryQueue_.empty())
        return;
    std::deque<RetryEntry> keep;
    while (!retryQueue_.empty()) {
        RetryEntry entry = retryQueue_.front();
        retryQueue_.pop_front();
        if (entry.readyAt > now_) {
            keep.push_back(entry);
            continue;
        }
        const JobClass &cls =
            traffic_.classes().at(entry.arrival.classIndex);
        const bool force =
            now_ - entry.arrival.arrival >= cfg.retryWatchdog;
        const std::uint32_t slot = std::uint32_t(slots_.size());
        slots_.emplace_back();
        const std::uint64_t key = candidates(entry.arrival, slots_[slot]);
        PlacementChoice choice = choosePlacement(slots_[slot], cls);
        // Every candidate is offline. The watchdog's force-place breaks
        // session affinity; a regular retry defers again instead
        // (never onto quarantine).
        if (!choice.found && force)
            choice = forcePlacement(key);
        const PlaceOutcome outcome =
            placeOne(entry.arrival, cls, choice, slot, entry.attempt,
                     now_, force, latency_sum, placed);
        if (outcome == PlaceOutcome::placed) {
            if (force)
                ++watchdogForced_;
        } else if (outcome == PlaceOutcome::retry) {
            ++retries_;
            ++entry.attempt;
            entry.readyAt =
                now_ + cls.retryBackoff *
                           double(std::uint64_t(1) << entry.attempt);
            keep.push_back(entry);
        } else {
            // No capacity anywhere: try again next slice without
            // consuming a retry attempt.
            entry.readyAt = now_ + cfg.slice;
            keep.push_back(entry);
        }
    }
    retryQueue_ = std::move(keep);
}

void
ShardedFleet::placeArrivals()
{
    Seconds latency_sum = 0.0;
    std::uint64_t placed = 0;

    // Deferred entries first: they are older than this slice's
    // arrivals and the watchdog may owe them a forced placement.
    processRetries(latency_sum, placed);

    // Every arrival's candidates are known before the commit starts, so
    // the backlog and rail lines it scores are fetched a few arrivals
    // ahead (measured faster than letting the loop miss on them).
    constexpr std::uint32_t prefetch_ahead = 8;
    const std::uint32_t n = std::uint32_t(arrivalBuf.size());
    for (std::uint32_t j = 0; j < n; ++j) {
        if (j + prefetch_ahead < n) {
            const PlacementSlot &ahead = slots_[j + prefetch_ahead];
            for (unsigned k = 0; k < numCandidates_; ++k) {
                const std::uint32_t word = ahead.candidates[k];
                if (word == kNoCandidate)
                    continue;
                __builtin_prefetch(&backlog_[word & kChipMask]);
                __builtin_prefetch(&railMv_[word & kChipMask]);
            }
        }
        const TrafficArrival &arrival = arrivalBuf[j];
        const JobClass &cls =
            traffic_.classes().at(arrival.classIndex);
        ++submitted_;
        const PlaceOutcome outcome =
            placeOne(arrival, cls, choosePlacement(slots_[j], cls), j, 0,
                     arrival.arrival, false, latency_sum, placed);
        if (outcome == PlaceOutcome::retry) {
            ++retries_;
            retryQueue_.push_back(
                {arrival, 1, now_ + cls.retryBackoff});
        } else if (outcome == PlaceOutcome::noCapacity) {
            retryQueue_.push_back({arrival, 0, now_ + cfg.slice});
        }
    }

    if (placed > 0) {
        const Seconds mean = latency_sum / double(placed);
        if (!latencySeeded_) {
            latencyEwma_ = mean;
            latencySeeded_ = true;
        } else {
            latencyEwma_ = cfg.latencyFeedbackAlpha * mean +
                           (1.0 - cfg.latencyFeedbackAlpha) *
                               latencyEwma_;
        }
    }
}

void
ShardedFleet::recordCompletions(Shard &shard)
{
    // Commit order per shard keeps the order-sensitive Welford update
    // bit-identical to recording at commit time. The chaos event
    // picture is frozen for the slice.
    for (std::uint32_t j = shard.logHead; j != kEndOfLog;) {
        const CompletionRecord &rec = slots_[j].record;
        const bool late = (rec.chipFlags & kLate) != 0;
        if (rec.chipFlags & kCompleted)
            shard.metrics.recordCompletion(
                rec.latency, late, (rec.chipFlags & kCritical) != 0);
        if (late && chaos_) {
            chaos_->forEachActiveDomain(
                rec.chipFlags & kChipMask,
                [&](FailureDomainKind kind, unsigned domain) {
                    const std::size_t kk = std::size_t(kind);
                    ++shard.misses[kk][domain - shard.missBase[kk]];
                    shard.missed = true;
                });
        }
        j = rec.next;
    }
    shard.logHead = shard.logTail = kEndOfLog;
}

void
ShardedFleet::runShardSlice(Shard &shard, Seconds governor_span)
{
    recordCompletions(shard);
    if (cfg.sampling == SamplingMode::chipBatched)
        advanceShardBatched(shard, cfg.slice);
    else
        advanceShard(shard, cfg.slice);

    // The per-chip bookkeeping of the serial phase that follows, over
    // this shard's span only (health and energy are final for the
    // slice). Quarantined capacity is absent, not merely idle: the
    // governor stops tracking its demand and redistributes its cap
    // share.
    const bool mark_absent = cfg.health.enabled && governor_.enabled();
    shard.online = 0;
    for (unsigned i = shard.lo; i < shard.hi; ++i) {
        const bool offline = chipOffline(i);
        if (mark_absent)
            governor_.setAbsent(i, offline);
        shard.online += offline ? 0 : 1;
    }
    if (governor_span > 0.0) {
        for (unsigned i = shard.lo; i < shard.hi; ++i) {
            const Joule delta = energyJ_[i] - energyMark_[i];
            measureBuf[i] = delta / governor_span;
            energyMark_[i] = energyJ_[i];
        }
    }
}

void
ShardedFleet::foldMisses()
{
    for (Shard &shard : shards) {
        if (!shard.missed)
            continue;
        for (unsigned kk = 0; kk < kNumFailureDomainKinds; ++kk) {
            std::vector<std::uint64_t> &from = shard.misses[kk];
            for (std::size_t d = 0; d < from.size(); ++d) {
                domainMisses_[kk][shard.missBase[kk] + d] += from[d];
                from[d] = 0;
            }
        }
        shard.missed = false;
    }
}

void
ShardedFleet::foldDrained()
{
    // Serial phase: collect the work each shard drained out of chips
    // entering quarantine this slice, then respread it evenly over the
    // fleet's remaining online chips (the scale-path analogue of the
    // cold path's requeue). If the whole fleet is offline the backlog
    // is held until capacity returns.
    unsigned online = 0;
    for (Shard &shard : shards) {
        requeueBacklog_ += shard.sliceDrained;
        shard.sliceDrained = 0.0;
        online += shard.online;
    }
    if (requeueBacklog_ <= 0.0 || online == 0)
        return;
    const Seconds share = requeueBacklog_ / double(online);
    for (unsigned i = 0; i < cfg.numChips; ++i) {
        if (!chipOffline(i))
            backlog_[i] += share;
    }
    requeueBacklog_ = 0.0;
}

void
ShardedFleet::audit()
{
    const auto violate = [&](const std::string &what) {
        if (auditViolations_.size() < 32)
            auditViolations_.push_back(what);
    };

    if (placementsOnQuarantined_ > 0)
        violate("jobs placed onto quarantined chips: " +
                std::to_string(placementsOnQuarantined_));

    // Conservation: every submitted job is either completed, pending
    // past the horizon, or parked in the retry queue.
    const std::uint64_t accounted = mergedMetrics().completed() +
                                    pendingAtEnd_ +
                                    retryQueue_.size();
    if (submitted_ != accounted)
        violate("job conservation: submitted " +
                std::to_string(submitted_) + " != accounted " +
                std::to_string(accounted));

    const ScaleChipModel &m = cfg.chip;
    const Millivolt rail_hi =
        m.nominalVdd + cfg.health.selfTestBoostMv + 1e-9;
    for (unsigned i = 0; i < cfg.numChips; ++i) {
        if (health_[i] > ChipHealth::probation) {
            violate("chip " + std::to_string(i) +
                    " has an invalid health state");
            break;
        }
        if (railMv_[i] < m.floorMv - 1e-9 || railMv_[i] > rail_hi) {
            violate("chip " + std::to_string(i) + " rail " +
                    std::to_string(railMv_[i]) + " mV out of range");
            break;
        }
        if (backlog_[i] < 0.0) {
            violate("chip " + std::to_string(i) +
                    " has negative backlog");
            break;
        }
        if (dueWindow_[i] < 0.0) {
            violate("chip " + std::to_string(i) +
                    " has a negative DUE-rate window");
            break;
        }
        if (energyMark_[i] > energyJ_[i] + 1e-9) {
            violate("chip " + std::to_string(i) +
                    " governor energy mark ahead of the integral");
            break;
        }
        if (chipOffline(i) && backlog_[i] != 0.0) {
            violate("offline chip " + std::to_string(i) +
                    " still holds backlog");
            break;
        }
    }
}

void
ShardedFleet::run(Seconds duration, ExperimentPool &pool)
{
    const double slices_exact = duration / cfg.slice;
    const std::uint64_t slices =
        std::uint64_t(std::llround(slices_exact));
    if (std::abs(slices_exact - double(slices)) > 1e-6)
        fatal("ShardedFleet::run duration ", duration,
              " is not a whole number of ", cfg.slice, " s slices");

    if (governor_.enabled() && measureBuf.size() != cfg.numChips)
        measureBuf.assign(cfg.numChips, 0.0);
    for (std::uint64_t s = 0; s < slices; ++s) {
        // Serial phase 0: advance the correlated-event clock so every
        // later phase sees a consistent, already-settled event picture.
        if (chaos_)
            chaos_->beginSlice(cfg.slice);

        // Serial phase 1: traffic, fed by last slice's latency EWMA.
        arrivalBuf.clear();
        traffic_.generateSlice(now_, now_ + cfg.slice,
                               latencySeeded_ ? latencyEwma_ : 0.0,
                               arrivalBuf);

        // Placement: a parallel candidate pass over the frozen health,
        // throttle and risk state, then the serial commit (scoring and
        // the backlog updates that later arrivals read).
        findCandidates(pool);
        placeArrivals();

        // The governor measures at the end of this slice when a whole
        // interval has passed. span equals now_ - governorMark_ after
        // the now_ update below, bit for bit, and is positive.
        const Seconds span = now_ + cfg.slice - governorMark_;
        const bool measure = governor_.enabled() &&
                             span + 1e-9 >= governor_.config().interval;

        // Parallel phase: one pool task per shard; each task touches
        // only its shard struct and its [lo, hi) spans of the hot
        // arrays, the governor flags and measureBuf. The batch seed is
        // consumed by the pool's per-task context, not by the shards
        // (their RNGs are construction state), so any value keeps
        // determinism; derive it anyway.
        const auto outcomes = pool.run(
            mix64(cfg.seed, sliceIndex_), shards.size(),
            [&](ExperimentTaskContext &ctx) {
                runShardSlice(shards[ctx.index], measure ? span : 0.0);
                return 0;
            });
        for (const auto &outcome : outcomes) {
            if (!outcome.ok())
                fatal("shard advance failed: ", outcome.error);
        }

        now_ += cfg.slice;
        ++sliceIndex_;

        // Serial phase 2: fold the shards' misses, requeue drained
        // work, then let the governor redistribute over the surviving
        // capacity.
        foldMisses();
        foldDrained();
        if (measure) {
            governor_.update(measureBuf, span);
            governorMark_ = now_;
        }
        if (cfg.auditEverySlices > 0 &&
            sliceIndex_ % cfg.auditEverySlices == 0)
            audit();
    }
}

FleetMetrics
ShardedFleet::mergedMetrics() const
{
    FleetMetrics merged;
    for (const Shard &shard : shards)
        merged.merge(shard.metrics);
    return merged;
}

FleetReport
ShardedFleet::report() const
{
    FleetReport rep;
    rep.simulated = now_;
    rep.submitted = submitted_;
    rep.requeued = 0;
    rep.pendingAtEnd = pendingAtEnd_ + retryQueue_.size();
    rep.runningAtEnd = 0;
    rep.inRetryAtEnd = retryQueue_.size();
    rep.retries = retries_;
    rep.hedgedJobs = hedgedJobs_;
    rep.watchdogForced = watchdogForced_;

    const FleetMetrics merged = mergedMetrics();
    rep.completed = merged.completed();
    rep.completedCritical = merged.completedCritical();
    rep.slaViolations = merged.slaViolations() + pendingViolations_;
    for (const RetryEntry &entry : retryQueue_) {
        if (entry.arrival.deadline < now_)
            ++rep.slaViolations;
    }
    if (now_ > 0.0)
        rep.throughputPerSec = double(rep.completed) / now_;
    rep.meanLatency = merged.latencyStats().mean();
    rep.p50Latency = merged.latencyQuantile(0.50);
    rep.p99Latency = merged.latencyQuantile(0.99);
    if (rep.completed > 0)
        rep.energyPerJob = merged.jobEnergy() / double(rep.completed);

    Joule fleet_energy = 0.0;
    for (double e : energyJ_)
        fleet_energy += e;
    rep.fleetEnergy = fleet_energy;
    if (now_ > 0.0)
        rep.meanFleetPower = fleet_energy / now_;

    Seconds lost = 0.0;
    Seconds offline = 0.0;
    for (const Shard &shard : shards) {
        rep.recoveries += shard.dueRecoveries;
        lost += shard.recoveryLoss;
        rep.quarantines += shard.quarantines;
        rep.readmissions += shard.readmissions;
        rep.drainedCoreSeconds += shard.drainedWork;
        offline += shard.offlineTime;
    }
    if (now_ > 0.0) {
        const Seconds fleet_core_time =
            double(cfg.numChips) * double(cfg.chip.coresPerChip) * now_;
        rep.availability = std::clamp(
            1.0 - (lost + offline) / fleet_core_time, 0.0, 1.0);
    }
    for (unsigned i = 0; i < cfg.numChips; ++i) {
        if (chipOffline(i))
            ++rep.offlineChipsAtEnd;
    }
    rep.abandonedCores = 0;
    rep.throttleEpisodes = governor_.throttleEpisodes();

    // Blast-radius attribution: fold the shard ledgers onto fleet-wide
    // domain ids in shard order, then emit one row per domain that saw
    // any action.
    if (chaos_) {
        DomainLedger fleet;
        fleet.cover(*chaos_, 0, cfg.numChips);
        for (const Shard &shard : shards)
            fleet.fold(shard.ledger);
        fleet.appendRows(*chaos_, &domainMisses_, rep.domainImpact);
    }
    return rep;
}

std::unique_ptr<FleetNode>
ShardedFleet::materializeNode(unsigned chip) const
{
    if (chip >= cfg.numChips)
        fatal("materializeNode: chip ", chip, " out of range");
    return std::make_unique<FleetNode>(coldConfig, chip);
}

void
ShardedFleet::snapshot(StateWriter &w) const
{
    w.beginSection("scale_fleet");
    w.putU64(cfg.numChips);
    w.putU64(cfg.chipsPerShard);
    w.putDouble(cfg.slice);
    w.putDouble(cfg.horizon);
    w.putU64(cfg.seed);
    w.putDouble(now_);
    w.putU64(sliceIndex_);
    w.putU64(submitted_);
    w.putU64(pendingAtEnd_);
    w.putU64(pendingViolations_);
    w.putDouble(governorMark_);
    w.putDouble(latencyEwma_);
    w.putBool(latencySeeded_);
    traffic_.saveState(w);
    governor_.saveState(w);

    // Format v4: the robustness layer. Retry/hedge queue state, the
    // correlated-event injector, and the fleet-level blast-radius
    // counters live here; per-chip health state rides in the shard
    // sections below.
    w.putDouble(requeueBacklog_);
    w.putU64(retries_);
    w.putU64(hedgedJobs_);
    w.putU64(watchdogForced_);
    w.putU64(placementsOnQuarantined_);
    w.putU64(retryQueue_.size());
    for (const RetryEntry &entry : retryQueue_) {
        w.putU64(entry.arrival.id);
        w.putU64(entry.arrival.session);
        w.putU64(entry.arrival.classIndex);
        w.putDouble(entry.arrival.arrival);
        w.putDouble(entry.arrival.serviceTime);
        w.putDouble(entry.arrival.deadline);
        w.putU64(entry.attempt);
        w.putDouble(entry.readyAt);
    }
    saveFleetChaos(w, chaos_.get());
    if (chaos_) {
        for (const std::vector<std::uint64_t> &misses : domainMisses_)
            w.putU64Vector(misses);
    }
    w.endSection();

    // One self-contained flat section per shard (the container format
    // does not nest sections), so shards serialize independently.
    for (const Shard &shard : shards) {
        w.beginSection("shard");
        w.putU64(shard.lo);
        w.putU64(shard.hi);
        shard.rng.saveState(w);
        shard.metrics.saveState(w);
        w.putU64(shard.corrEvents);
        w.putU64(shard.dueRecoveries);
        w.putU64(shard.backoffs);
        w.putDouble(shard.recoveryLoss);

        const auto span = [&](const std::vector<double> &v) {
            w.putDoubleVector(std::vector<double>(v.begin() + shard.lo,
                                                  v.begin() + shard.hi));
        };
        span(railMv_);
        span(minSafeMv_);
        span(earnedFloorMv_);
        span(backlog_);
        span(risk_);
        span(energyJ_);
        span(energyMark_);
        std::vector<std::uint64_t> hold(shard.hi - shard.lo);
        for (unsigned i = shard.lo; i < shard.hi; ++i)
            hold[i - shard.lo] = holdoff_[i];
        w.putU64Vector(hold);

        // Format v4: per-chip health FSM spans and the shard's
        // robustness counters.
        std::vector<std::uint64_t> health(shard.hi - shard.lo);
        for (unsigned i = shard.lo; i < shard.hi; ++i)
            health[i - shard.lo] = std::uint64_t(health_[i]);
        w.putU64Vector(health);
        span(dueWindow_);
        span(healthTimer_);
        w.putU64(shard.quarantines);
        w.putU64(shard.readmissions);
        w.putU64(shard.drainEvents);
        w.putDouble(shard.drainedWork);
        w.putDouble(shard.offlineTime);
        w.putDouble(shard.sliceDrained);
        shard.ledger.saveState(w);
        w.endSection();
    }
}

void
ShardedFleet::restore(StateReader &r)
{
    r.beginSection("scale_fleet");
    if (r.getU64() != cfg.numChips || r.getU64() != cfg.chipsPerShard)
        throw SnapshotError("scale fleet geometry mismatch (snapshot "
                            "was taken with a different chip count or "
                            "shard size)");
    if (r.getDouble() != cfg.slice || r.getDouble() != cfg.horizon)
        throw SnapshotError("scale fleet slice/horizon mismatch");
    if (r.getU64() != cfg.seed)
        throw SnapshotError("scale fleet seed mismatch");
    now_ = r.getDouble();
    sliceIndex_ = r.getU64();
    submitted_ = r.getU64();
    pendingAtEnd_ = r.getU64();
    pendingViolations_ = r.getU64();
    governorMark_ = r.getDouble();
    latencyEwma_ = r.getDouble();
    latencySeeded_ = r.getBool();
    traffic_.loadState(r);
    governor_.loadState(r);

    requeueBacklog_ = r.getDouble();
    retries_ = r.getU64();
    hedgedJobs_ = r.getU64();
    watchdogForced_ = r.getU64();
    placementsOnQuarantined_ = r.getU64();
    const std::uint64_t retry_depth = r.getU64();
    retryQueue_.clear();
    for (std::uint64_t i = 0; i < retry_depth; ++i) {
        RetryEntry entry;
        entry.arrival.id = r.getU64();
        entry.arrival.session = r.getU64();
        entry.arrival.classIndex = unsigned(r.getU64());
        entry.arrival.arrival = r.getDouble();
        entry.arrival.serviceTime = r.getDouble();
        entry.arrival.deadline = r.getDouble();
        entry.attempt = unsigned(r.getU64());
        entry.readyAt = r.getDouble();
        retryQueue_.push_back(entry);
    }
    loadFleetChaos(r, chaos_.get());
    if (chaos_) {
        for (std::vector<std::uint64_t> &misses : domainMisses_) {
            std::vector<std::uint64_t> loaded = r.getU64Vector();
            if (loaded.size() != misses.size())
                throw SnapshotError("blast-radius domain count mismatch");
            misses = std::move(loaded);
        }
    }
    r.endSection();

    for (Shard &shard : shards) {
        r.beginSection("shard");
        const std::uint64_t lo = r.getU64();
        const std::uint64_t hi = r.getU64();
        if (lo != shard.lo || hi != shard.hi)
            throw SnapshotError("shard span mismatch at chips [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + ")");
        shard.rng.loadState(r);
        shard.metrics.loadState(r);
        shard.corrEvents = r.getU64();
        shard.dueRecoveries = r.getU64();
        shard.backoffs = r.getU64();
        shard.recoveryLoss = r.getDouble();

        const auto span = [&](std::vector<double> &v) {
            const std::vector<double> vals = r.getDoubleVector();
            if (vals.size() != shard.hi - shard.lo)
                throw SnapshotError("shard array span size mismatch");
            std::copy(vals.begin(), vals.end(), v.begin() + shard.lo);
        };
        span(railMv_);
        span(minSafeMv_);
        span(earnedFloorMv_);
        span(backlog_);
        span(risk_);
        span(energyJ_);
        span(energyMark_);
        const std::vector<std::uint64_t> hold = r.getU64Vector();
        if (hold.size() != shard.hi - shard.lo)
            throw SnapshotError("shard holdoff span size mismatch");
        for (unsigned i = shard.lo; i < shard.hi; ++i)
            holdoff_[i] = std::uint32_t(hold[i - shard.lo]);

        const std::vector<std::uint64_t> health = r.getU64Vector();
        if (health.size() != shard.hi - shard.lo)
            throw SnapshotError("shard health span size mismatch");
        for (unsigned i = shard.lo; i < shard.hi; ++i) {
            if (health[i - shard.lo] >
                std::uint64_t(ChipHealth::probation))
                throw SnapshotError("invalid chip health state in "
                                    "snapshot");
            health_[i] = ChipHealth(health[i - shard.lo]);
        }
        span(dueWindow_);
        span(healthTimer_);
        shard.quarantines = r.getU64();
        shard.readmissions = r.getU64();
        shard.drainEvents = r.getU64();
        shard.drainedWork = r.getDouble();
        shard.offlineTime = r.getDouble();
        shard.sliceDrained = r.getDouble();
        shard.ledger.loadState(r);
        r.endSection();
    }
}

} // namespace vspec
