/**
 * @file
 * The chip multiprocessor model (Fig. 5): eight cores, a voltage
 * domain per core pair with an independently adjustable rail, an
 * uncore domain (L3 + memory controllers) left at nominal, ECC
 * monitors built into every L2 cache controller, and the shared
 * variation/PDN/power models.
 */

#ifndef VSPEC_PLATFORM_CHIP_HH
#define VSPEC_PLATFORM_CHIP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "core/ecc_monitor.hh"
#include "cpu/core_model.hh"
#include "mem/mem_domain.hh"
#include "pdn/pdn_model.hh"
#include "pdn/regulator.hh"
#include "power/power_model.hh"
#include "variation/process_variation.hh"

namespace vspec
{

struct ChipConfig
{
    unsigned numCores = 8;
    /** Cores sharing one power delivery line (Section IV-A.4). */
    unsigned coresPerDomain = 2;
    OperatingPoint operatingPoint = OperatingPoint::low();
    std::uint64_t seed = 0xC0FFEE;
    Celsius temperature = 60.0;
    double materializeZ = 3.25;
    VariationParams variation;
    PdnModel::Params pdn;
    PowerModel::Params power;
    VoltageRegulator::Params regulator;
    EccMonitor::Config monitor;
    /**
     * Protection tier of every core's ECC-protected arrays (the codec
     * zoo scheme; see ecc/codec.hh). Stronger codes cost check-cell
     * leakage (power model) and decode latency but earn the
     * speculation controller a proportionally larger tolerated-
     * correctable budget, i.e. deeper Vdd floors.
     */
    EccScheme eccScheme = EccScheme::hamming;
    /**
     * Off-chip memory speculation domains (DRAM/HBM arrays with their
     * own rails, block-codec ECC feedback and latency coupling).
     * Empty by default: a mem-less chip is bit-identical to every
     * pre-mem-domain configuration.
     */
    std::vector<MemDomainConfig> memDomains;
};

/** One core-pair power rail with its regulator and activity state. */
class VoltageDomain
{
  public:
    VoltageDomain(unsigned id, Millivolt nominal,
                  const VoltageRegulator::Params &params);

    unsigned id() const { return domainId; }
    VoltageRegulator &regulator() { return reg; }
    const VoltageRegulator &regulator() const { return reg; }

    const std::vector<Core *> &cores() const { return domainCores; }
    void addCore(Core *core) { domainCores.push_back(core); }

    /** Rail load observed during the last simulation tick. */
    const ActivityProfile &activity() const { return lastActivity; }
    void setActivity(const ActivityProfile &a) { lastActivity = a; }

    /** Effective supply at the arrays: regulator output minus droop. */
    Millivolt effectiveVoltage(const PdnModel &pdn) const;

    /** Serialize the regulator and the last observed rail activity. */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    unsigned domainId;
    VoltageRegulator reg;
    std::vector<Core *> domainCores;
    ActivityProfile lastActivity;
};

class Chip
{
  public:
    explicit Chip(const ChipConfig &config);

    const ChipConfig &config() const { return cfg; }
    const VariationModel &variation() const { return variationModel; }
    const PdnModel &pdn() const { return pdnModel; }
    PdnModel &pdn() { return pdnModel; }
    const PowerModel &power() const { return powerModel; }

    unsigned numCores() const { return unsigned(cores_.size()); }
    Core &core(unsigned i) { return *cores_.at(i); }
    const Core &core(unsigned i) const { return *cores_.at(i); }

    unsigned numDomains() const { return unsigned(domains_.size()); }
    VoltageDomain &domain(unsigned i) { return domains_.at(i); }
    const VoltageDomain &domain(unsigned i) const
    {
        return domains_.at(i);
    }
    /** Domain index that powers the given core. */
    unsigned domainIndexOf(unsigned core_id) const;
    VoltageDomain &domainOf(unsigned core_id);

    /**
     * ECC monitors: one per L2 cache controller (2 per core), indexed
     * by (core, side). Inactive until calibration designates a target.
     */
    EccMonitor &l2iMonitor(unsigned core_id);
    EccMonitor &l2dMonitor(unsigned core_id);
    /** Monitor owning the given array; panic if not an L2 array. */
    EccMonitor &monitorFor(const CacheArray &array);

    /** Off-chip memory speculation domains (empty unless configured). */
    unsigned numMemDomains() const
    {
        return unsigned(memDomains_.size());
    }
    MemDomain &memDomain(unsigned i) { return *memDomains_.at(i); }
    const MemDomain &memDomain(unsigned i) const
    {
        return *memDomains_.at(i);
    }

    /** Deterministic chip-level RNG stream (forked per use). */
    Rng &rng() { return chipRng; }

    /** Total chip power right now (cores at their rail voltages). */
    Watt totalPower(Seconds t) const;
    /**
     * Chip power from each core's power, indexed by core id. The one
     * summation order: uncore, then cores by id, then mem domains.
     */
    Watt totalPower(const std::vector<Watt> &core_power) const;
    /** One core's power right now. */
    Watt corePower(unsigned core_id, Seconds t) const;
    /**
     * Check-bit SRAM this chip's codec tier carries per core beyond
     * the Hamming SECDED baseline (Mbit; 0 for the default tier),
     * computed at construction.
     */
    double extraEccCheckMbit() const { return extraCheckMbit; }

    /**
     * Serialize every stateful chip component: the chip RNG, the PDN
     * transient, all domains (regulators + rail activity), all cores
     * (crash latch, arrays) and all ECC monitors. Counts are verified
     * on load — the chip must be reconstructed with the same config
     * before overlaying.
     */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    ChipConfig cfg;
    VariationModel variationModel;
    PdnModel pdnModel;
    PowerModel powerModel;
    Rng chipRng;

    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<VoltageDomain> domains_;
    /** 2 monitors per core: [2*i] = L2I, [2*i + 1] = L2D. */
    std::vector<std::unique_ptr<EccMonitor>> monitors_;
    std::vector<std::unique_ptr<MemDomain>> memDomains_;
    double extraCheckMbit = 0.0;
};

} // namespace vspec

#endif // VSPEC_PLATFORM_CHIP_HH
