#include "fleet/power_governor.hh"

#include <limits>

#include "common/logging.hh"
#include "snapshot/state_io.hh"

namespace vspec
{

PowerCapGovernor::PowerCapGovernor(const Config &config,
                                   unsigned num_chips)
    : cfg(config), demandEwma(num_chips, 0.0), caps(num_chips, 0.0),
      throttled_(num_chips, 0), seededChips(num_chips, 0),
      absent_(num_chips, 0)
{
    if (num_chips == 0)
        fatal("PowerCapGovernor needs at least one chip");
    if (cfg.fleetBudget < 0.0 || cfg.minChipCap < 0.0)
        fatal("PowerCapGovernor budget and floor must be non-negative");
    if (cfg.interval <= 0.0)
        fatal("PowerCapGovernor interval must be positive");
    if (cfg.demandAlpha <= 0.0 || cfg.demandAlpha > 1.0 ||
        cfg.resumeFraction <= 0.0 || cfg.resumeFraction > 1.0) {
        fatal("PowerCapGovernor alpha and resume fraction must be in "
              "(0, 1]");
    }
}

template <typename MeasurementAt>
void
PowerCapGovernor::updateWith(std::size_t count, MeasurementAt at)
{
    if (count != caps.size())
        panic("PowerCapGovernor: ", count, " measurements for ",
              caps.size(), " chips");
    if (!enabled())
        return;

    for (std::size_t i = 0; i < count; ++i) {
        if (absent_[i])
            continue; // self-test draw is not demand; EWMA freezes
        const Measurement m = at(i);
        const bool full_interval =
            m.elapsed >= fullIntervalFraction * cfg.interval;
        if (seededChips[i]) {
            demandEwma[i] = cfg.demandAlpha * m.power +
                            (1.0 - cfg.demandAlpha) * demandEwma[i];
        } else if (full_interval) {
            // Seed from the first full interval. A partial-interval
            // mean (node admitted mid-slice, fleet measured right
            // after restore) is biased low on chips idle for part of
            // the span and would over-throttle them for several
            // intervals; until a full interval lands, redistribute()
            // imputes a neutral demand instead.
            demandEwma[i] = m.power;
            seededChips[i] = 1;
        }
    }

    redistribute();

    for (std::size_t i = 0; i < count; ++i) {
        if (absent_[i]) {
            // Absent capacity takes no placements anyway; a stale
            // throttle flag would only delay its re-admission.
            throttled_[i] = 0;
            continue;
        }
        const Measurement m = at(i);
        const bool full_interval =
            m.elapsed >= fullIntervalFraction * cfg.interval;
        if (!throttled_[i] && seededChips[i] && full_interval &&
            m.power > caps[i]) {
            throttled_[i] = 1;
            ++episodes;
        } else if (throttled_[i] &&
                   m.power <= cfg.resumeFraction * caps[i]) {
            throttled_[i] = 0;
        }
    }
}

void
PowerCapGovernor::update(const std::vector<Measurement> &chip_power)
{
    updateWith(chip_power.size(),
               [&](std::size_t i) { return chip_power[i]; });
}

void
PowerCapGovernor::update(const std::vector<Watt> &chip_power,
                         Seconds elapsed)
{
    updateWith(chip_power.size(), [&](std::size_t i) {
        return Measurement{chip_power[i], elapsed};
    });
}

void
PowerCapGovernor::update(const std::vector<Watt> &chip_power)
{
    update(chip_power, cfg.interval);
}

void
PowerCapGovernor::redistribute()
{
    const std::size_t n = caps.size();
    // Absent (quarantined/self-testing) capacity is simply not there:
    // its cap is zero and its floor folds back into the shared budget.
    std::size_t present = 0;
    for (std::size_t i = 0; i < n; ++i)
        present += absent_[i] ? 0 : 1;
    if (present == 0) {
        for (auto &cap : caps)
            cap = 0.0;
        return;
    }
    const Watt floors = cfg.minChipCap * double(present);
    if (cfg.fleetBudget <= floors) {
        // Budget below the floors: split it evenly; the floor promise
        // is unkeepable.
        for (std::size_t i = 0; i < n; ++i)
            caps[i] = absent_[i] ? 0.0
                                 : cfg.fleetBudget / double(present);
        return;
    }

    // Unseeded chips have no trustworthy demand estimate yet; impute
    // the mean demand of the seeded chips (equal share when none are)
    // so a cold chip competes from a neutral position instead of being
    // pinned to the floor cap.
    Watt seeded_demand = 0.0;
    std::size_t seeded_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (seededChips[i] && !absent_[i]) {
            seeded_demand += demandEwma[i];
            ++seeded_count;
        }
    }
    const Watt imputed =
        seeded_count > 0 ? seeded_demand / double(seeded_count) : 0.0;

    Watt total_demand = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!absent_[i])
            total_demand += seededChips[i] ? demandEwma[i] : imputed;
    }

    const Watt spare = cfg.fleetBudget - floors;
    for (std::size_t i = 0; i < n; ++i) {
        if (absent_[i]) {
            caps[i] = 0.0;
            continue;
        }
        const Watt demand_i = seededChips[i] ? demandEwma[i] : imputed;
        const double share = total_demand > 0.0
                                 ? demand_i / total_demand
                                 : 1.0 / double(present);
        caps[i] = cfg.minChipCap + spare * share;
    }
}

Watt
PowerCapGovernor::cap(unsigned chip) const
{
    if (!enabled())
        return std::numeric_limits<Watt>::infinity();
    return caps.at(chip);
}

bool
PowerCapGovernor::demandSeeded(unsigned chip) const
{
    return seededChips.at(chip) != 0;
}

unsigned
PowerCapGovernor::throttledChips() const
{
    unsigned count = 0;
    for (char t : throttled_)
        count += t ? 1 : 0;
    return count;
}

Watt
PowerCapGovernor::demand(unsigned chip) const
{
    return demandEwma.at(chip);
}

void
PowerCapGovernor::saveState(StateWriter &w) const
{
    w.putDoubleVector(demandEwma);
    w.putDoubleVector(caps);
    // Flags are written as 0/1 u64 vectors (snapshot format v4).
    const auto put_flags = [&](const std::vector<char> &flags) {
        w.putU64Vector(
            std::vector<std::uint64_t>(flags.begin(), flags.end()));
    };
    put_flags(throttled_);
    put_flags(seededChips);
    put_flags(absent_);
    w.putU64(episodes);
}

void
PowerCapGovernor::loadState(StateReader &r)
{
    const std::vector<double> ewma = r.getDoubleVector();
    const std::vector<double> snap_caps = r.getDoubleVector();
    const std::vector<std::uint64_t> flags = r.getU64Vector();
    const std::vector<std::uint64_t> seeded_flags = r.getU64Vector();
    const std::vector<std::uint64_t> absent_flags = r.getU64Vector();
    if (ewma.size() != demandEwma.size() ||
        snap_caps.size() != caps.size() ||
        flags.size() != throttled_.size() ||
        seeded_flags.size() != seededChips.size() ||
        absent_flags.size() != absent_.size())
        throw SnapshotError(
            "governor chip count mismatch: snapshot has " +
            std::to_string(ewma.size()) + ", governor has " +
            std::to_string(demandEwma.size()));
    demandEwma = ewma;
    caps = snap_caps;
    const auto get_flags = [](const std::vector<std::uint64_t> &from,
                              std::vector<char> &into) {
        for (std::size_t i = 0; i < from.size(); ++i)
            into[i] = from[i] != 0;
    };
    get_flags(flags, throttled_);
    get_flags(seeded_flags, seededChips);
    get_flags(absent_flags, absent_);
    episodes = r.getU64();
}

} // namespace vspec
