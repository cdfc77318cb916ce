#include "core/ecc_monitor.hh"

#include <cmath>

#include "common/logging.hh"
#include "snapshot/state_io.hh"

namespace vspec
{

EccMonitor::EccMonitor() : EccMonitor(Config()) {}

EccMonitor::EccMonitor(Config config)
    : CountingFeedbackSource(config.emergencyCeiling,
                             config.emergencyMinSamples),
      cfg(config)
{
    if (cfg.probesPerSecond <= 0.0)
        fatal("EccMonitor probe rate must be positive");
}

void
EccMonitor::activate(CacheArray &array, std::uint64_t set, unsigned way)
{
    if (active())
        deactivate();
    targetArray = &array;
    set_ = set;
    way_ = way;
    array.deconfigureLine(set, way);
    for (std::size_t i = 0; i < sweep::dataPatterns.size(); ++i)
        patternCodewords[i] = array.codec().encode(sweep::dataPatterns[i]);
    array.fillLine(set, way, patternCodewords[0]);
    resetCounters();
    probeCarry = 0.0;
    patternIndex = 0;
}

void
EccMonitor::deactivate()
{
    if (!active())
        return;
    targetArray->reconfigureLine(set_, way_);
    targetArray = nullptr;
}

const std::string &
EccMonitor::targetCacheName() const
{
    if (!active())
        panic("EccMonitor::targetCacheName on an inactive monitor");
    return targetArray->geometry().name;
}

ProbeStats
EccMonitor::runProbes(Seconds dt, Millivolt v_eff, Rng &rng)
{
    ProbeStats stats;
    if (!active() || dt <= 0.0)
        return stats;

    const double budget = cfg.probesPerSecond * dt + probeCarry;
    const std::uint64_t n = std::uint64_t(budget);
    probeCarry = budget - double(n);
    if (n == 0)
        return stats;

    // Cycle through the march test patterns on rewrite.
    patternIndex = (patternIndex + 1) % sweep::dataPatterns.size();
    targetArray->fillLine(set_, way_, patternCodewords[patternIndex]);

    stats = targetArray->probeLine(set_, way_, v_eff, n, rng);
    accumulate(stats);
    return stats;
}

void
EccMonitor::saveState(StateWriter &w) const
{
    saveCounters(w);
    w.putBool(active());
    w.putU64(set_);
    w.putU64(way_);
    w.putDouble(probeCarry);
    w.putU64(patternIndex);
}

void
EccMonitor::loadState(StateReader &r)
{
    loadCounters(r);
    const bool was_active = r.getBool();
    const std::uint64_t snap_set = r.getU64();
    const unsigned snap_way = unsigned(r.getU64());
    if (was_active) {
        if (!active())
            throw SnapshotError(
                "monitor active in snapshot but not armed at restore "
                "(reconstruct the chip before loading state)");
        if (snap_set != set_ || snap_way != way_)
            throw SnapshotError(
                "monitor designated line mismatch: snapshot set " +
                std::to_string(snap_set) + " way " +
                std::to_string(snap_way) + ", armed set " +
                std::to_string(set_) + " way " + std::to_string(way_));
    } else {
        // Snapshot taken mid-dropout: detach without reconfiguring the
        // line (the deconfiguration flags come from the CacheArray
        // snapshot, and the injector's restored dropout window will
        // re-activate the monitor on schedule).
        targetArray = nullptr;
        set_ = snap_set;
        way_ = snap_way;
    }
    probeCarry = r.getDouble();
    patternIndex = unsigned(r.getU64());
}

} // namespace vspec
