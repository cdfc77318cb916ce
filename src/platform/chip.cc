#include "platform/chip.hh"

#include "common/logging.hh"
#include "snapshot/state_io.hh"

namespace vspec
{

VoltageDomain::VoltageDomain(unsigned id, Millivolt nominal,
                             const VoltageRegulator::Params &params)
    : domainId(id), reg(nominal, params)
{
}

Millivolt
VoltageDomain::effectiveVoltage(const PdnModel &pdn) const
{
    return reg.output() - pdn.droop(lastActivity);
}

Chip::Chip(const ChipConfig &config)
    : cfg(config), variationModel(config.seed, config.variation),
      pdnModel(config.pdn), powerModel(config.power),
      chipRng(mix64(config.seed ^ 0x5EEDC0DEULL))
{
    if (cfg.numCores == 0 || cfg.coresPerDomain == 0 ||
        cfg.numCores % cfg.coresPerDomain != 0)
        fatal("ChipConfig: numCores must be a positive multiple of "
              "coresPerDomain");

    for (unsigned i = 0; i < cfg.numCores; ++i) {
        Core::Config core_cfg;
        core_cfg.coreId = i;
        core_cfg.operatingPoint = cfg.operatingPoint;
        core_cfg.temperature = cfg.temperature;
        core_cfg.materializeZ = cfg.materializeZ;
        core_cfg.eccScheme = cfg.eccScheme;

        Rng core_rng = chipRng.fork(0x1000 + i);
        cores_.push_back(
            std::make_unique<Core>(core_cfg, variationModel, core_rng));

        monitors_.push_back(std::make_unique<EccMonitor>(cfg.monitor));
        monitors_.push_back(std::make_unique<EccMonitor>(cfg.monitor));
    }

    // Check cells a non-baseline codec adds beyond Hamming SECDED,
    // summed over one core's protected arrays. Zero for the default
    // tier, so the calibrated baseline power is untouched.
    if (cfg.eccScheme != EccScheme::hamming) {
        const Core &c = *cores_.front();
        double extra_bits = 0.0;
        for (const CacheArray *array :
             {&c.l2iArray(), &c.l2dArray(), &c.rfArray()}) {
            const CacheGeometry &geo = array->geometry();
            const unsigned base_check =
                codecTraits(EccScheme::hamming, geo.eccDataBits).checkBits;
            const unsigned check = array->codec().checkBits();
            extra_bits += double(geo.numLines()) * geo.wordsPerLine() *
                          (double(check) - double(base_check));
        }
        extraCheckMbit = extra_bits / 1e6;
    }

    const unsigned num_domains = cfg.numCores / cfg.coresPerDomain;
    domains_.reserve(num_domains);
    for (unsigned d = 0; d < num_domains; ++d) {
        domains_.emplace_back(d, cfg.operatingPoint.nominalVdd,
                              cfg.regulator);
        for (unsigned j = 0; j < cfg.coresPerDomain; ++j)
            domains_.back().addCore(
                cores_[d * cfg.coresPerDomain + j].get());
    }

    // Off-chip memory domains are opt-in (memDomains defaults empty),
    // and their RNG forks live inside this loop so a mem-less chip
    // draws exactly the same stream it always has.
    memDomains_.reserve(cfg.memDomains.size());
    for (std::size_t m = 0; m < cfg.memDomains.size(); ++m) {
        Rng mem_rng = chipRng.fork(0x3E30ULL + m);
        memDomains_.push_back(std::make_unique<MemDomain>(
            cfg.memDomains[m], unsigned(m), mem_rng));
    }
}

unsigned
Chip::domainIndexOf(unsigned core_id) const
{
    if (core_id >= cfg.numCores)
        panic("domainIndexOf: core ", core_id, " out of range");
    return core_id / cfg.coresPerDomain;
}

VoltageDomain &
Chip::domainOf(unsigned core_id)
{
    return domains_.at(domainIndexOf(core_id));
}

EccMonitor &
Chip::l2iMonitor(unsigned core_id)
{
    return *monitors_.at(std::size_t(core_id) * 2);
}

EccMonitor &
Chip::l2dMonitor(unsigned core_id)
{
    return *monitors_.at(std::size_t(core_id) * 2 + 1);
}

EccMonitor &
Chip::monitorFor(const CacheArray &array)
{
    for (unsigned i = 0; i < numCores(); ++i) {
        if (&array == &cores_[i]->l2iArray())
            return l2iMonitor(i);
        if (&array == &cores_[i]->l2dArray())
            return l2dMonitor(i);
    }
    panic("monitorFor: array '", array.geometry().name,
          "' is not an L2 array of this chip");
}

Watt
Chip::corePower(unsigned core_id, Seconds t) const
{
    const Core &c = core(core_id);
    const VoltageDomain &dom = domains_.at(domainIndexOf(core_id));
    const WorkloadSample sample = c.workloadSampleAt(t);
    Watt power = powerModel.corePower(dom.regulator().output(),
                                     cfg.operatingPoint.frequency,
                                     sample.activity.meanActivity,
                                     cfg.temperature);
    // Charge the stronger tiers' additional check-bit storage; skipped
    // entirely at zero so the Hamming path stays byte-identical.
    if (extraCheckMbit != 0.0)
        power += powerModel.eccCheckCellPower(extraCheckMbit,
                                              dom.regulator().output());
    return power;
}

Watt
Chip::totalPower(Seconds t) const
{
    std::vector<Watt> core_power(numCores());
    for (unsigned i = 0; i < numCores(); ++i)
        core_power[i] = corePower(i, t);
    return totalPower(core_power);
}

Watt
Chip::totalPower(const std::vector<Watt> &core_power) const
{
    if (core_power.size() != numCores())
        panic("totalPower: ", core_power.size(), " core powers for ",
              numCores(), " cores");
    Watt total = powerModel.uncorePower();
    for (const Watt core : core_power)
        total += core;
    for (const auto &md : memDomains_)
        total += md->totalPower(powerModel);
    return total;
}

void
VoltageDomain::saveState(StateWriter &w) const
{
    reg.saveState(w);
    w.putDouble(lastActivity.meanActivity);
    w.putDouble(lastActivity.swingAmplitude);
    w.putDouble(lastActivity.oscillationFreq);
}

void
VoltageDomain::loadState(StateReader &r)
{
    reg.loadState(r);
    lastActivity.meanActivity = r.getDouble();
    lastActivity.swingAmplitude = r.getDouble();
    lastActivity.oscillationFreq = r.getDouble();
}

void
Chip::saveState(StateWriter &w) const
{
    chipRng.saveState(w);
    pdnModel.saveState(w);
    w.putU64(domains_.size());
    for (const VoltageDomain &d : domains_)
        d.saveState(w);
    w.putU64(cores_.size());
    for (const auto &c : cores_)
        c->saveState(w);
    w.putU64(monitors_.size());
    for (const auto &m : monitors_)
        m->saveState(w);
    w.putU64(memDomains_.size());
    for (const auto &md : memDomains_)
        md->saveState(w);
}

void
Chip::loadState(StateReader &r)
{
    chipRng.loadState(r);
    pdnModel.loadState(r);
    const std::uint64_t n_domains = r.getU64();
    if (n_domains != domains_.size())
        throw SnapshotError("domain count mismatch: snapshot has " +
                            std::to_string(n_domains) + ", chip has " +
                            std::to_string(domains_.size()));
    for (VoltageDomain &d : domains_)
        d.loadState(r);
    const std::uint64_t n_cores = r.getU64();
    if (n_cores != cores_.size())
        throw SnapshotError("core count mismatch: snapshot has " +
                            std::to_string(n_cores) + ", chip has " +
                            std::to_string(cores_.size()));
    for (auto &c : cores_)
        c->loadState(r);
    const std::uint64_t n_monitors = r.getU64();
    if (n_monitors != monitors_.size())
        throw SnapshotError("monitor count mismatch: snapshot has " +
                            std::to_string(n_monitors) + ", chip has " +
                            std::to_string(monitors_.size()));
    for (auto &m : monitors_)
        m->loadState(r);
    const std::uint64_t n_mem = r.getU64();
    if (n_mem != memDomains_.size())
        throw SnapshotError("mem domain count mismatch: snapshot has " +
                            std::to_string(n_mem) + ", chip has " +
                            std::to_string(memDomains_.size()));
    for (auto &md : memDomains_)
        md->loadState(r);
}

} // namespace vspec
