/**
 * @file
 * The hardware ECC monitor (Section III-A) — the paper's key mechanism.
 *
 * An ECC monitor is a lightweight hardware unit built into every cache
 * controller. When activated it continuously probes one designated
 * (deconfigured) cache line: it writes a test bit pattern, reads the
 * line back, and counts both accesses and correctable-error reports
 * from the existing SECDED logic. The ratio of the two counters is the
 * line's correctable error rate — the signal the voltage control
 * system regulates. Probes are issued during idle cache cycles, so the
 * runtime overhead is negligible (unlike the firmware baseline).
 *
 * Each monitor also implements the emergency path: if the error rate
 * since the last counter reset exceeds an emergency ceiling, an
 * interrupt is flagged so the voltage controller can apply a large
 * corrective step without waiting for the next control interval.
 */

#ifndef VSPEC_CORE_ECC_MONITOR_HH
#define VSPEC_CORE_ECC_MONITOR_HH

#include <array>
#include <cstdint>
#include <string>

#include "cache/cache_array.hh"
#include "cache/sweep.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "core/feedback_source.hh"

namespace vspec
{

class EccMonitor : public CountingFeedbackSource
{
  public:
    struct Config
    {
        /** Probe rate sustained from idle cache cycles (per second). */
        double probesPerSecond = 50000.0;
        /** Error rate that triggers the emergency interrupt. */
        double emergencyCeiling = 0.08;
        /** Minimum accesses before the emergency check can fire. */
        std::uint64_t emergencyMinSamples = 200;
    };

    EccMonitor();
    explicit EccMonitor(Config config);

    /**
     * Point the monitor at a line and start probing. The line is
     * deconfigured so it never holds program data.
     */
    void activate(CacheArray &array, std::uint64_t set, unsigned way);

    /** Stop probing and return the line to service. */
    void deactivate();

    bool active() const { return targetArray != nullptr; }

    /** Target coordinates (valid only while active). */
    const std::string &targetCacheName() const;
    std::uint64_t targetSet() const { return set_; }
    unsigned targetWay() const { return way_; }
    /** The probed array, or nullptr while inactive. */
    CacheArray *target() const { return targetArray; }

    /**
     * Issue the probes for one tick of wall-clock time dt at effective
     * supply v_eff. Returns the stats of this burst and accumulates
     * them into the running counters.
     */
    ProbeStats runProbes(Seconds dt, Millivolt v_eff, Rng &rng);

    /*
     * Counters, read-and-reset (including the uncorrectable latch) and
     * the emergency interrupt line come from CountingFeedbackSource.
     */

    const Config &config() const { return cfg; }

    /**
     * Rescale the emergency interrupt threshold. The harness calls
     * this for stronger codec tiers, whose tolerated-correctable band
     * sits above the default ceiling — an unscaled emergency path
     * would keep firing +emergencyStepMv interrupts against the floor
     * the codec earned.
     */
    void setEmergencyCeiling(double ceiling)
    {
        cfg.emergencyCeiling = ceiling;
        CountingFeedbackSource::setEmergencyCeiling(ceiling);
    }

    /**
     * Serialize counters, probe carry, pattern cursor and the
     * activation flag. loadState overlays fields directly — it never
     * runs activate()'s side effects (line deconfiguration, pattern
     * write, counter reset), because the store content and
     * deconfiguration flags are restored with the owning CacheArray.
     * Restoring an *active* snapshot requires the monitor to already
     * be armed on the same line (the reconstruct-then-overlay
     * contract, DESIGN.md §11); an inactive snapshot simply detaches
     * the monitor, e.g. mid-dropout.
     */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    Config cfg;
    CacheArray *targetArray = nullptr;
    std::uint64_t set_ = 0;
    unsigned way_ = 0;

    /** Fractional probe budget carried between ticks. */
    double probeCarry = 0.0;
    unsigned patternIndex = 0;
    /** sweep::dataPatterns encoded by the target's codec at activate. */
    std::array<Codeword, sweep::dataPatterns.size()> patternCodewords;
};

} // namespace vspec

#endif // VSPEC_CORE_ECC_MONITOR_HH
