/**
 * @file
 * One off-chip memory speculation domain: a MemArray behind its own
 * voltage rail, with a hardware ECC monitor probing a designated line
 * and an aggregate traffic model generating workload-visible events.
 *
 * The domain is the unit the voltage control system steers — the
 * harness arms one DomainController per MemDomain exactly as it does
 * per core-pair rail, with the block codec's correctableBudgetScale
 * deepening the earned floors. Recovery is intentionally independent
 * of the SRAM RecoveryManager: a DRAM/HBM uncorrectable is serviced
 * by railing the memory domain back to nominal and re-fetching (the
 * line's data lives elsewhere in the hierarchy), so it must not reset
 * the cores' earned floors.
 */

#ifndef VSPEC_MEM_MEM_DOMAIN_HH
#define VSPEC_MEM_MEM_DOMAIN_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hh"
#include "common/units.hh"
#include "core/feedback_source.hh"
#include "mem/mem_array.hh"
#include "pdn/regulator.hh"

namespace vspec
{

class PowerModel;
class StateWriter;
class StateReader;

/**
 * The mem-side analogue of EccMonitor: probes one designated codeword
 * line from idle bus cycles, cycling the march patterns, and feeds the
 * correctable rate to the domain controller. The designated line
 * holds a real packed codeword (written on activation) so fault
 * injection exercises the real BCH t=8 decode path; the probe bursts
 * themselves draw from the analytic per-read probabilities.
 */
class MemEccMonitor : public CountingFeedbackSource
{
  public:
    struct Config
    {
        /** Probe rate sustained from idle bus cycles (per second). */
        double probesPerSecond = 20000.0;
        /** Error rate that triggers the emergency interrupt. */
        double emergencyCeiling = 0.08;
        /** Minimum accesses before the emergency check can fire. */
        std::uint64_t emergencyMinSamples = 200;
    };

    MemEccMonitor();
    explicit MemEccMonitor(Config config);

    /**
     * Point the monitor at a line and start probing. Writes a real
     * codeword into the line and resets the counters.
     */
    void activate(MemArray &array, unsigned bank, std::uint64_t line);
    void deactivate();

    bool active() const { return targetArray != nullptr; }
    unsigned targetBank() const { return bank_; }
    std::uint64_t targetLine() const { return line_; }
    MemArray *target() const { return targetArray; }

    /** Issue the probes for one tick at effective supply v_eff. */
    ProbeStats runProbes(Seconds dt, Millivolt v_eff, Rng &rng);

    const Config &config() const { return cfg; }

    /** Rescale the emergency threshold (codec-tier scaling). */
    void setEmergencyCeiling(double ceiling)
    {
        cfg.emergencyCeiling = ceiling;
        CountingFeedbackSource::setEmergencyCeiling(ceiling);
    }

    /**
     * Serialize counters, probe carry, pattern cursor and the target
     * designation. Restoring an active snapshot requires the monitor
     * to already be armed on the same (bank, line) — the
     * reconstruct-then-overlay contract.
     */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    Config cfg;
    MemArray *targetArray = nullptr;
    unsigned bank_ = 0;
    std::uint64_t line_ = 0;

    /** Fractional probe budget carried between ticks. */
    double probeCarry = 0.0;
    unsigned patternIndex = 0;
};

struct MemDomainConfig
{
    MemKind kind = MemKind::dram;
    MemArrayParams array;
    VoltageRegulator::Params regulator;
    MemEccMonitor::Config monitor;

    /** Demand the workload puts on this domain (line reads / s). */
    double accessesPerSecond = 2e5;
    /** Duty factor of that demand [0, 1]. */
    double activity = 0.7;
    /**
     * Rail droop other sharers of this rail induce (mV at full
     * activity) — the HBM pseudo-channel-sharing penalty.
     */
    Millivolt sharedRailDropMv = 0.0;

    /** DRAM domain with Voltron-calibrated array defaults. */
    static MemDomainConfig dram();
    /** HBM domain: steeper cliff, shared-rail droop. */
    static MemDomainConfig hbm();
};

class MemDomain
{
  public:
    MemDomain(const MemDomainConfig &config, unsigned index, Rng &rng);

    const MemDomainConfig &config() const { return cfg; }
    unsigned index() const { return idx; }
    MemKind kind() const { return cfg.kind; }
    /** "dram0", "hbm1", ... */
    const std::string &name() const { return name_; }

    MemArray &array() { return *array_; }
    const MemArray &array() const { return *array_; }
    VoltageRegulator &rail() { return rail_; }
    const VoltageRegulator &rail() const { return rail_; }
    MemEccMonitor &monitor() { return monitor_; }
    const MemEccMonitor &monitor() const { return monitor_; }

    Millivolt nominalMv() const { return cfg.array.nominalMv; }

    /** Supply at the mats: rail output minus shared-rail droop. */
    Millivolt effectiveVoltage() const
    {
        return rail_.output() - cfg.sharedRailDropMv * cfg.activity;
    }

    struct TickResult
    {
        std::uint64_t correctable = 0;
        std::uint64_t uncorrectable = 0;
    };

    /**
     * Advance the aggregate workload traffic by dt: Poisson event
     * draws from the array-mean per-access rates at the current
     * effective voltage. An uncorrectable latches the DUE flag.
     */
    TickResult tickTraffic(Seconds dt, Rng &rng);

    /** A workload DUE awaits service. */
    bool duePending() const { return dueLatch; }

    /**
     * Service a pending DUE: rail back to nominal and re-fetch. Memory
     * recovery is local — it never touches the cores' checkpoints or
     * their earned floors.
     */
    void serviceDue();

    /** Latch a DUE directly (fault injection / tests). */
    void injectUncorrectable() { dueLatch = true; }

    /**
     * Re-point the monitor at the current weakest line — the online
     * recalibration step after aging or a temperature excursion.
     */
    void recalibrate();

    Watt refreshPower() const
    {
        return array_->refreshPower(effectiveVoltage());
    }
    /** Mean power of the aggregate access stream at current Vdd. */
    Watt accessStreamPower() const
    {
        return cfg.accessesPerSecond * cfg.activity *
               array_->accessEnergy(effectiveVoltage());
    }
    /** Leakage of the block codec's check cells. */
    Watt checkCellPower(const PowerModel &power) const;
    Watt totalPower(const PowerModel &power) const;

    std::uint64_t workloadCorrectable() const { return corrTotal; }
    std::uint64_t workloadUncorrectable() const { return uncTotal; }
    std::uint64_t recoveries() const { return recoveries_; }

    /** Serialize rail, monitor, array, traffic carry and counters. */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    MemDomainConfig cfg;
    unsigned idx;
    std::string name_;
    std::unique_ptr<MemArray> array_;
    VoltageRegulator rail_;
    MemEccMonitor monitor_;

    /** Fractional access budget carried between ticks. */
    double accessCarry = 0.0;
    bool dueLatch = false;
    std::uint64_t corrTotal = 0;
    std::uint64_t uncTotal = 0;
    std::uint64_t recoveries_ = 0;
};

} // namespace vspec

#endif // VSPEC_MEM_MEM_DOMAIN_HH
