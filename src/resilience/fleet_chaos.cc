#include "resilience/fleet_chaos.hh"

#include <algorithm>

#include "common/logging.hh"
#include "snapshot/state_io.hh"

namespace vspec
{

const char *
failureDomainKindName(FailureDomainKind kind)
{
    switch (kind) {
      case FailureDomainKind::railGroup:
        return "rail-group";
      case FailureDomainKind::rack:
        return "rack";
      case FailureDomainKind::thermalZone:
        return "thermal-zone";
    }
    panic("unknown failure-domain kind");
}

const char *
chipHealthName(ChipHealth health)
{
    switch (health) {
      case ChipHealth::healthy:
        return "healthy";
      case ChipHealth::degraded:
        return "degraded";
      case ChipHealth::quarantined:
        return "quarantined";
      case ChipHealth::selfTesting:
        return "self-testing";
      case ChipHealth::probation:
        return "probation";
    }
    panic("unknown chip health state");
}

bool
FleetChaosConfig::armed() const
{
    return (railGroupSize > 0 && railDroopsPerHour > 0.0) ||
           (rackSize > 0 && dueStormsPerHour > 0.0) ||
           (thermalZoneSize > 0 && thermalEventsPerHour > 0.0);
}

FleetFaultInjector::FleetFaultInjector(const FleetChaosConfig &config,
                                       std::uint64_t fleet_seed,
                                       unsigned num_chips)
    : cfg(config)
{
    if (num_chips == 0)
        fatal("FleetFaultInjector needs at least one chip");
    if (cfg.railDroopsPerHour < 0.0 || cfg.dueStormsPerHour < 0.0 ||
        cfg.thermalEventsPerHour < 0.0)
        fatal("FleetFaultInjector event rates must be non-negative");
    if (cfg.railDroopDuration <= 0.0 || cfg.dueStormDuration <= 0.0 ||
        cfg.thermalDuration <= 0.0)
        fatal("FleetFaultInjector event durations must be positive");
    if (cfg.railDroopMagnitudeMv < 0.0 || cfg.dueStormRate < 0.0 ||
        cfg.thermalMarginPenaltyMv < 0.0)
        fatal("FleetFaultInjector event magnitudes must be "
              "non-negative");

    const auto arm = [&](FailureDomainKind kind, unsigned size,
                         double per_hour, Seconds duration) {
        KindState &k = kinds[std::size_t(kind)];
        k.size = size;
        k.onsetRate = per_hour / 3600.0;
        k.duration = duration;
        // One stream per kind, forked off the fleet seed: the schedule
        // of rack storms does not move when the rail-droop rate (or
        // any other knob that changes draw counts elsewhere) changes.
        k.rng = Rng(mix64(mix64(fleet_seed, cfg.streamSalt),
                          0xD0E0ULL + std::uint64_t(kind)));
        if (k.live()) {
            const unsigned domains = (num_chips + size - 1) / size;
            k.remaining.assign(domains, 0.0);
            k.events.assign(domains, 0);
        }
    };
    arm(FailureDomainKind::railGroup, cfg.railGroupSize,
        cfg.railDroopsPerHour, cfg.railDroopDuration);
    arm(FailureDomainKind::rack, cfg.rackSize, cfg.dueStormsPerHour,
        cfg.dueStormDuration);
    arm(FailureDomainKind::thermalZone, cfg.thermalZoneSize,
        cfg.thermalEventsPerHour, cfg.thermalDuration);
}

unsigned
FleetFaultInjector::domainSize(FailureDomainKind kind) const
{
    const KindState &k = kindState(kind);
    return k.live() ? k.size : 0;
}

unsigned
FleetFaultInjector::numDomains(FailureDomainKind kind) const
{
    return unsigned(kindState(kind).remaining.size());
}

unsigned
FleetFaultInjector::domainOf(FailureDomainKind kind,
                             unsigned chip) const
{
    const KindState &k = kindState(kind);
    if (!k.live())
        return 0;
    return chip / k.size;
}

void
FleetFaultInjector::beginSlice(Seconds slice_width)
{
    if (slice_width <= 0.0)
        fatal("FleetFaultInjector slice width must be positive");
    for (KindState &k : kinds) {
        if (!k.live())
            continue;
        // Expire first (events active through the previous slice run
        // out before this slice's onsets land), then draw exactly one
        // Poisson per domain — the stream position is a function of
        // the slice count alone, never of the event history.
        for (double &rem : k.remaining)
            rem = std::max(0.0, rem - pendingDecay);
        const double mean = k.onsetRate * slice_width;
        for (std::size_t d = 0; d < k.remaining.size(); ++d) {
            const std::uint64_t onsets = k.rng.poisson(mean);
            if (onsets > 0) {
                k.started += onsets;
                k.events[d] += onsets;
                k.remaining[d] = std::max(k.remaining[d], k.duration);
            }
        }
    }
    pendingDecay = slice_width;
}

Millivolt
FleetFaultInjector::railDroopMv(unsigned chip) const
{
    return eventActive(FailureDomainKind::railGroup, chip)
               ? cfg.railDroopMagnitudeMv
               : 0.0;
}

Celsius
FleetFaultInjector::thermalDeltaC(unsigned chip) const
{
    return eventActive(FailureDomainKind::thermalZone, chip)
               ? cfg.thermalDeltaC
               : 0.0;
}

Millivolt
FleetFaultInjector::marginPenaltyMv(unsigned chip) const
{
    Millivolt penalty = railDroopMv(chip);
    if (eventActive(FailureDomainKind::thermalZone, chip))
        penalty += cfg.thermalMarginPenaltyMv;
    return penalty;
}

double
FleetFaultInjector::dueStormRate(unsigned chip) const
{
    return eventActive(FailureDomainKind::rack, chip) ? cfg.dueStormRate
                                                      : 0.0;
}

std::uint64_t
FleetFaultInjector::eventsStarted(FailureDomainKind kind) const
{
    return kindState(kind).started;
}

const std::vector<std::uint64_t> &
FleetFaultInjector::domainEvents(FailureDomainKind kind) const
{
    return kindState(kind).events;
}

void
FleetFaultInjector::saveState(StateWriter &w) const
{
    w.putDouble(pendingDecay);
    for (const KindState &k : kinds) {
        w.putBool(k.live());
        if (!k.live())
            continue;
        k.rng.saveState(w);
        w.putDoubleVector(k.remaining);
        w.putU64Vector(k.events);
        w.putU64(k.started);
    }
}

void
FleetFaultInjector::loadState(StateReader &r)
{
    pendingDecay = r.getDouble();
    for (KindState &k : kinds) {
        const bool live = r.getBool();
        if (live != k.live())
            throw SnapshotError(
                "fleet chaos kind armament mismatch (snapshot was "
                "taken with a different chaos configuration)");
        if (!live)
            continue;
        k.rng.loadState(r);
        const std::vector<double> remaining = r.getDoubleVector();
        const std::vector<std::uint64_t> events = r.getU64Vector();
        if (remaining.size() != k.remaining.size() ||
            events.size() != k.events.size())
            throw SnapshotError("fleet chaos domain count mismatch");
        k.remaining = remaining;
        k.events = events;
        k.started = r.getU64();
    }
}

void
saveFleetChaos(StateWriter &w, const FleetFaultInjector *chaos)
{
    w.putBool(chaos != nullptr);
    if (chaos)
        chaos->saveState(w);
}

void
loadFleetChaos(StateReader &r, FleetFaultInjector *chaos)
{
    if (r.getBool() != (chaos != nullptr))
        throw SnapshotError(
            "fleet chaos armament mismatch (snapshot was taken with a "
            "different correlated-event configuration)");
    if (chaos)
        chaos->loadState(r);
}

void
HealthConfig::validate() const
{
    if (!enabled)
        return;
    if (windowTau <= 0.0)
        fatal("HealthConfig window tau must be positive");
    if (quarantineHold <= 0.0 || selfTestDuration <= 0.0 ||
        probationDuration <= 0.0)
        fatal("HealthConfig state durations must be positive");
    if (healthyRate > degradeRate || degradeRate > quarantineRate)
        fatal("HealthConfig thresholds must satisfy healthyRate "
              "<= degradeRate <= quarantineRate");
    if (selfTestBoostMv < 0.0)
        fatal("HealthConfig self-test boost must be non-negative");
}

HealthEdge
HealthConfig::step(ChipHealth &state, double &window, Seconds &timer,
                   std::uint64_t events, Seconds slice,
                   double window_decay) const
{
    window = window * window_decay +
             (1.0 - window_decay) * (double(events) / slice);

    const auto quarantine = [&] {
        state = ChipHealth::quarantined;
        timer = quarantineHold;
        return HealthEdge::quarantine;
    };
    switch (state) {
      case ChipHealth::quarantined:
        timer -= slice;
        if (timer <= 0.0) {
            state = ChipHealth::selfTesting;
            timer = selfTestDuration;
            return HealthEdge::selfTest;
        }
        return HealthEdge::none;
      case ChipHealth::selfTesting:
        timer -= slice;
        if (timer > 0.0)
            return HealthEdge::none;
        if (window >= degradeRate) {
            // Still noisy: run the self-test again.
            timer = selfTestDuration;
            return HealthEdge::retest;
        }
        state = ChipHealth::probation;
        timer = probationDuration;
        return HealthEdge::readmit;
      case ChipHealth::probation:
        // One event on probation sends the chip straight back inside.
        if (events > 0)
            return quarantine();
        timer -= slice;
        if (timer <= 0.0) {
            state = ChipHealth::healthy;
            return HealthEdge::recovered;
        }
        return HealthEdge::none;
      case ChipHealth::healthy:
      case ChipHealth::degraded:
        if (window >= quarantineRate)
            return quarantine();
        if (state == ChipHealth::degraded) {
            // Hysteresis: back to healthy only strictly below
            // healthyRate.
            if (window < healthyRate) {
                state = ChipHealth::healthy;
                return HealthEdge::healthy;
            }
            return HealthEdge::none;
        }
        if (window >= degradeRate) {
            state = ChipHealth::degraded;
            return HealthEdge::degraded;
        }
        return HealthEdge::none;
    }
    panic("unknown chip health state");
}

} // namespace vspec
