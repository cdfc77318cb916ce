/**
 * @file
 * Correlated fleet-scale fault injection over declared failure domains.
 *
 * The per-chip FaultInjector models faults as independent per-chip
 * Poisson processes. At datacenter scale that is the wrong null
 * hypothesis: the availability events that matter are *correlated* —
 * a droop on a shared PDN rail hits every chip fed by that rail at
 * once, a failed CRAC unit heats a whole thermal zone, and a marginal
 * firmware rollout turns an entire rack into a DUE storm. The
 * FleetFaultInjector groups the fleet's chips into declared failure
 * domains of three kinds (rail group, rack, thermal zone — each a
 * contiguous block of chip indices, matching how racks are cabled) and
 * schedules correlated events per domain:
 *
 *   - rail-group droop: a shared-rail transient that subtracts
 *     magnitude mV from every member chip's effective margin for the
 *     event duration (the cold path fans it out to each member chip's
 *     PdnModel::injectTransient);
 *   - rack DUE storm: an additive detected-uncorrectable rate on every
 *     member chip for the duration — the aggregate signature of a bad
 *     batch, a cosmic shower, or a rolled-out marginal setting;
 *   - thermal excursion: the zone runs delta degrees hot (the cold
 *     path drives setTemperature on member mem domains; the scale
 *     path maps the excursion to a margin penalty, hot cells being
 *     weak cells).
 *
 * Determinism contract: event schedules are drawn from one private RNG
 * per domain kind, forked off mix64(fleet seed, kind tag), with
 * exactly one Poisson draw per domain per slice regardless of
 * outcomes — so the stream position is a pure function of the slice
 * count and a campaign is byte-identical for every worker-thread
 * count. beginSlice runs in the fleet's serial phase; the effect
 * queries (marginPenaltyMv, dueStormRate, thermalDeltaC) are read-only
 * and safe from concurrent shard tasks.
 *
 * The chip-health lifecycle both fleets run also lives here:
 * HealthConfig::step is the one FSM, fed recoveries by the cold Fleet
 * and DUEs by the hot ShardedFleet.
 */

#ifndef VSPEC_RESILIENCE_FLEET_CHAOS_HH
#define VSPEC_RESILIENCE_FLEET_CHAOS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"

namespace vspec
{

class StateWriter;
class StateReader;

/** The declared failure-domain kinds, in serialization order. */
enum class FailureDomainKind : std::uint8_t
{
    railGroup = 0,
    rack = 1,
    thermalZone = 2,
};

constexpr unsigned kNumFailureDomainKinds = 3;

const char *failureDomainKindName(FailureDomainKind kind);

/** Correlated-event configuration; all kinds default to disabled. */
struct FleetChaosConfig
{
    /** Chips per shared-rail group; 0 disables rail-droop events. */
    unsigned railGroupSize = 0;
    /** Droop onsets per rail group per hour. */
    double railDroopsPerHour = 0.0;
    /** Margin each member chip loses while the droop is active. */
    Millivolt railDroopMagnitudeMv = 60.0;
    Seconds railDroopDuration = 2.0;

    /** Chips per rack; 0 disables DUE-storm events. */
    unsigned rackSize = 0;
    /** Storm onsets per rack per hour. */
    double dueStormsPerHour = 0.0;
    /** Additive DUE rate on each member chip during a storm (1/s). */
    double dueStormRate = 1.0;
    Seconds dueStormDuration = 3.0;

    /** Chips per thermal zone; 0 disables thermal excursions. */
    unsigned thermalZoneSize = 0;
    /** Excursion onsets per zone per hour. */
    double thermalEventsPerHour = 0.0;
    /** Degrees above reference while the excursion is active. */
    Celsius thermalDeltaC = 25.0;
    /** Scale-path margin penalty of a hot zone (mV). */
    Millivolt thermalMarginPenaltyMv = 20.0;
    Seconds thermalDuration = 5.0;

    /** Salted into the per-kind RNG streams alongside the fleet seed. */
    std::uint64_t streamSalt = 0xC0A5ULL;

    /** True when any event kind is live (size > 0 and rate > 0). */
    bool armed() const;
};

class FleetFaultInjector
{
  public:
    FleetFaultInjector(const FleetChaosConfig &config,
                       std::uint64_t fleet_seed, unsigned num_chips);

    /** Chips per domain of @p kind; 0 when the kind is disabled. */
    unsigned domainSize(FailureDomainKind kind) const;
    /** Domains of @p kind (0 when disabled). */
    unsigned numDomains(FailureDomainKind kind) const;
    /** The domain of @p kind that owns @p chip. */
    unsigned domainOf(FailureDomainKind kind, unsigned chip) const;

    /**
     * Advance the event clock by one fleet slice: expire events that
     * ran out during the previous slice, then draw this slice's onsets
     * (one Poisson per domain per kind, always). Serial-phase only.
     */
    void beginSlice(Seconds slice_width);

    /** Active rail-group droop on @p chip's rail (0 when quiet). */
    Millivolt railDroopMv(unsigned chip) const;
    /** Active thermal excursion over @p chip's zone (0 when cool). */
    Celsius thermalDeltaC(unsigned chip) const;
    /** Combined scale-path margin penalty: droop + thermal (mV). */
    Millivolt marginPenaltyMv(unsigned chip) const;
    /** Additive DUE rate from an active rack storm (1/s). */
    double dueStormRate(unsigned chip) const;
    /** True when a @p kind event is active over @p chip's domain. */
    bool eventActive(FailureDomainKind kind, unsigned chip) const
    {
        const KindState &k = kindState(kind);
        return k.live() && k.remaining[chip / k.size] > 0.0;
    }
    /**
     * Call @p fn(kind, domain) for every kind whose event is active
     * over @p chip, in kind order — the one blast-radius crediting
     * loop both fleets attribute through.
     */
    template <typename Fn>
    void forEachActiveDomain(unsigned chip, Fn &&fn) const
    {
        for (unsigned kk = 0; kk < kNumFailureDomainKinds; ++kk) {
            const auto kind = FailureDomainKind(kk);
            if (eventActive(kind, chip))
                fn(kind, chip / kinds[kk].size);
        }
    }

    /** Events started so far for @p kind. */
    std::uint64_t eventsStarted(FailureDomainKind kind) const;
    /** Per-domain onset counts for @p kind (empty when disabled). */
    const std::vector<std::uint64_t> &
    domainEvents(FailureDomainKind kind) const;

    /** Serialize the per-kind RNGs, remaining-durations and counters. */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    struct KindState
    {
        unsigned size = 0;
        /** Onset rate per domain (1/s); 0 disables. */
        double onsetRate = 0.0;
        Seconds duration = 0.0;
        Rng rng;
        /** Seconds each domain's event has left; <= 0 when idle. */
        std::vector<double> remaining;
        std::vector<std::uint64_t> events;
        std::uint64_t started = 0;

        KindState() : rng(0) {}
        bool live() const { return size > 0 && onsetRate > 0.0; }
    };

    FleetChaosConfig cfg;
    /** Width of the previous slice, pending expiry at the next
     *  beginSlice (so events drawn this slice stay active through it). */
    Seconds pendingDecay = 0.0;
    std::array<KindState, kNumFailureDomainKinds> kinds;

    const KindState &kindState(FailureDomainKind kind) const
    {
        return kinds[std::size_t(kind)];
    }
};

/**
 * Snapshot framing both fleets share: an armed flag, then the
 * injector's state when @p chaos is non-null.
 */
void saveFleetChaos(StateWriter &w, const FleetFaultInjector *chaos);
/**
 * Read what saveFleetChaos wrote into @p chaos (null when inert);
 * throws SnapshotError when the snapshot was taken under a different
 * armament.
 */
void loadFleetChaos(StateReader &r, FleetFaultInjector *chaos);

/** Per-chip health FSM states, in escalation order. */
enum class ChipHealth : std::uint8_t
{
    healthy = 0,
    degraded = 1,
    quarantined = 2,
    selfTesting = 3,
    probation = 4,
};

const char *chipHealthName(ChipHealth health);

/** The transition one HealthConfig::step took. */
enum class HealthEdge : std::uint8_t
{
    none,
    /** healthy -> degraded: the window reached degradeRate. */
    degraded,
    /** degraded -> healthy: the window fell below healthyRate. */
    healthy,
    /** -> quarantined: the window reached quarantineRate, or an event
     *  struck a chip on probation. */
    quarantine,
    /** quarantined -> self-testing: the hold expired. */
    selfTest,
    /** self-testing again: the window was still >= degradeRate. */
    retest,
    /** self-testing -> probation: the chip passed its self-test. */
    readmit,
    /** probation -> healthy: probation expired without an event. */
    recovered,
};

/**
 * Chip-health lifecycle thresholds shared by the cold Fleet (windowed
 * recovery rate) and the hot ShardedFleet (windowed DUE rate). The FSM
 * is healthy -> degraded -> quarantined -> self-testing -> probation ->
 * healthy, with hysteresis between degradeRate and healthyRate so a
 * chip riding the threshold does not flap.
 */
struct HealthConfig
{
    bool enabled = false;
    /** Decay time constant of the windowed event-rate EWMA (s). */
    Seconds windowTau = 5.0;
    /** Enter degraded at or above this windowed rate (events/s). */
    double degradeRate = 0.05;
    /** Enter quarantine at or above this windowed rate (events/s). */
    double quarantineRate = 0.2;
    /** Hysteresis: degraded drops back to healthy below this. */
    double healthyRate = 0.02;
    /** Drain/park window after quarantine entry, before the firmware
     *  self-test begins (s). */
    Seconds quarantineHold = 0.5;
    /** Firmware self-test length at elevated Vdd (s). */
    Seconds selfTestDuration = 2.0;
    /** Self-test rail elevation above nominal (mV, scale path). */
    Millivolt selfTestBoostMv = 50.0;
    /** Probationary window after re-admission (s). */
    Seconds probationDuration = 5.0;

    /** Abort (fatal) on inverted thresholds or non-positive times;
     *  a disabled config is not checked. */
    void validate() const;

    /**
     * One slice of the health FSM for one chip, the single copy both
     * fleets run. Folds this slice's @p events into the windowed
     * @p window (EWMA with the precomputed @p window_decay =
     * exp(-slice / windowTau)), then moves @p state and its phase
     * @p timer. The caller owns everything an edge does to the chip
     * (draining work, parking the rail, counters).
     */
    HealthEdge step(ChipHealth &state, double &window, Seconds &timer,
                    std::uint64_t events, Seconds slice,
                    double window_decay) const;
};

/** Quarantined and self-testing chips take no placements. */
inline bool
healthSchedulable(ChipHealth health)
{
    return health != ChipHealth::quarantined &&
           health != ChipHealth::selfTesting;
}

} // namespace vspec

#endif // VSPEC_RESILIENCE_FLEET_CHAOS_HH
