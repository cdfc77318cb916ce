/**
 * @file
 * Boot-time calibration (Section III-C).
 *
 * Calibration identifies the weakest cache line of each voltage domain:
 * the line that raises correctable errors at the highest supply
 * voltage. Starting from the domain nominal, the supply is lowered in
 * regulator steps; at each level a full cache sweep runs over every
 * core in the domain — the march-pattern data sweep on the L2D and the
 * replicated-instruction-template sweep (Fig. 6) on the L2I. The sweep
 * stops at the first level that reports correctable errors; the
 * (cache, set, way) with the most errors is designated, its ECC
 * monitor is activated (deconfiguring the line), and the voltage
 * control system is pointed at that monitor.
 *
 * Recalibration (Section III-D) repeats the procedure periodically so
 * the system tracks aging-induced changes in the error distribution.
 */

#ifndef VSPEC_CORE_CALIBRATOR_HH
#define VSPEC_CORE_CALIBRATOR_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "cpu/core_model.hh"
#include "pdn/regulator.hh"

namespace vspec
{

/** Identification of a designated weak line. */
struct WeakLineTarget
{
    /** Owning core. */
    unsigned coreId = 0;
    /** Which array ("L2I" or "L2D"). */
    std::string cacheName;
    CacheArray *array = nullptr;
    std::uint64_t set = 0;
    unsigned way = 0;
    /** Supply at which the sweep first saw this line err (mV). */
    Millivolt firstErrorVdd = 0.0;
};

class Calibrator
{
  public:
    struct Config
    {
        /** Sweep step (mV). */
        Millivolt stepMv = 5.0;
        /** Reads per line per march pattern at each voltage level. */
        std::uint64_t readsPerPattern = 2500;
        /** Give up after sweeping this far below the start (mV). */
        Millivolt maxDepthMv = 350.0;
    };

    Calibrator();
    explicit Calibrator(Config config);

    /**
     * Calibrate one voltage domain: sweep the L2 arrays of every core
     * sharing the rail, from start_vdd downward, until the first
     * correctable error. Returns the designated target, or nullopt if
     * nothing erred within maxDepthMv (a misconfigured model).
     *
     * The domain's regulator is left at start_vdd afterwards.
     */
    std::optional<WeakLineTarget>
    calibrateDomain(const std::vector<Core *> &domain_cores,
                    Millivolt start_vdd, Rng &rng) const;

    const Config &config() const { return cfg; }

  private:
    Config cfg;
};

} // namespace vspec

#endif // VSPEC_CORE_CALIBRATOR_HH
