/**
 * @file
 * Fleet-wide power-cap governor.
 *
 * A datacenter row has one provisioned power budget shared by every
 * chip in it. The governor redistributes that budget as per-chip caps
 * from measured demand: every interval it reads each chip's mean power
 * over the interval (from the chip's EnergyAccount telemetry), tracks a
 * demand EWMA, and reassigns caps — every chip keeps a minimum floor,
 * and the budget above the floors is split proportionally to demand, so
 * busy chips get headroom that idle chips are not using.
 *
 * Enforcement is by admission control, not by yanking rails: a chip
 * whose measured power exceeds its cap is *throttled* — the scheduler
 * stops placing new jobs on it — until its power falls back below
 * resumeFraction of the cap (hysteresis, so a chip riding its cap does
 * not flap in and out of the placement pool). Rail voltages stay under
 * the ECC control loop's authority; the paper's safety argument is not
 * renegotiated by the fleet layer.
 */

#ifndef VSPEC_FLEET_POWER_GOVERNOR_HH
#define VSPEC_FLEET_POWER_GOVERNOR_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"

namespace vspec
{

class StateWriter;
class StateReader;

class PowerCapGovernor
{
  public:
    struct Config
    {
        /** Fleet-wide power budget (W); 0 disables capping. */
        Watt fleetBudget = 0.0;
        /** Cap redistribution cadence (s). */
        Seconds interval = 0.5;
        /** No chip's cap falls below this floor (W). */
        Watt minChipCap = 2.0;
        /** EWMA weight of the newest power measurement, in (0, 1]. */
        double demandAlpha = 0.5;
        /** Un-throttle below this fraction of the cap, in (0, 1]. */
        double resumeFraction = 0.9;
    };

    /**
     * One interval's telemetry for one chip: mean power over the
     * measured span, and how much accounted time the span actually
     * covered. A chip admitted mid-interval (or measured right after a
     * snapshot restore) reports elapsed < the governor interval.
     */
    struct Measurement
    {
        Watt power = 0.0;
        Seconds elapsed = 0.0;
    };

    PowerCapGovernor(const Config &config, unsigned num_chips);

    bool enabled() const { return cfg.fleetBudget > 0.0; }
    unsigned numChips() const { return unsigned(caps.size()); }

    /**
     * Feed one interval's mean power per chip (one entry per chip, in
     * chip order); updates the demand EWMAs, redistributes the caps and
     * refreshes the throttle flags. A disabled governor ignores the
     * measurements and throttles nothing.
     *
     * Cold-start contract: a chip's demand EWMA is seeded from its
     * first *full*-interval measurement (elapsed >= fullIntervalFraction
     * of the configured interval). A partial-interval mean — a node
     * admitted mid-slice, a fleet measured right after restore — is
     * statistically noisy and systematically light on chips that were
     * idle for part of the span; seeding the EWMA with it over-throttles
     * the chip for several intervals. Until seeded, a chip's demand is
     * imputed as the mean demand of the seeded chips (equal share when
     * none are), and its throttle flag is never raised on a partial
     * measurement.
     */
    void update(const std::vector<Measurement> &chip_power);

    /**
     * Mean power per chip with every chip measured over the same
     * @p elapsed span: update() on {chip_power[i], elapsed}.
     */
    void update(const std::vector<Watt> &chip_power, Seconds elapsed);

    /**
     * Convenience overload for full-interval telemetry: every
     * measurement is treated as covering a complete interval (the
     * pre-admission-control behaviour, unchanged).
     */
    void update(const std::vector<Watt> &chip_power);

    /**
     * Declare a chip's capacity absent (quarantined or self-testing):
     * its cap drops to zero at the next redistribution, its floor is
     * released into the shared budget, its demand EWMA freezes (the
     * self-test draw is not demand), and its throttle flag clears.
     * Re-marking present lets the chip compete again from its frozen
     * EWMA. Takes effect at the next update().
     */
    void setAbsent(unsigned chip, bool absent)
    {
        absent_.at(chip) = absent;
    }

    /** Current cap of one chip (W); infinite when disabled. */
    Watt cap(unsigned chip) const;
    /**
     * True if the chip is closed to new placements. Unchecked: @p chip
     * must be below numChips() (the flag vectors are sized at
     * construction and size-checked in loadState).
     */
    bool throttled(unsigned chip) const { return throttled_[chip] != 0; }
    unsigned throttledChips() const;
    /** Times any chip transitioned into the throttled state. */
    std::uint64_t throttleEpisodes() const { return episodes; }
    /** Demand estimate the last redistribution used (W). */
    Watt demand(unsigned chip) const;

    /** True once the chip's EWMA was seeded from a full interval. */
    bool demandSeeded(unsigned chip) const;

    const Config &config() const { return cfg; }

    /** Serialize demand EWMAs, caps, throttle flags and episodes. */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

    /** A measurement covering at least this fraction of the governor
     *  interval counts as a full interval (tick-grid slack). */
    static constexpr double fullIntervalFraction = 0.95;

  private:
    Config cfg;
    std::vector<Watt> demandEwma;
    std::vector<Watt> caps;
    /**
     * Per-chip flags, one byte each (not std::vector<bool>), so shard
     * tasks may write the absent flags of disjoint chip spans
     * concurrently: packed bits would put neighbouring spans into one
     * shared word whenever a span is not a multiple of 64 chips.
     */
    std::vector<char> throttled_;
    std::vector<char> seededChips;
    /** Quarantined/self-testing chips: capacity the budget ignores. */
    std::vector<char> absent_;
    std::uint64_t episodes = 0;

    void redistribute();
    /** update() over @p count chips; @p at(i) is chip i's Measurement. */
    template <typename MeasurementAt>
    void updateWith(std::size_t count, MeasurementAt at);
};

} // namespace vspec

#endif // VSPEC_FLEET_POWER_GOVERNOR_HH
