#include "mem/mem_domain.hh"

#include <cmath>

#include "common/logging.hh"
#include "power/power_model.hh"
#include "snapshot/state_io.hh"

namespace vspec
{

MemEccMonitor::MemEccMonitor() : MemEccMonitor(Config{}) {}

MemEccMonitor::MemEccMonitor(Config config)
    : CountingFeedbackSource(config.emergencyCeiling,
                             config.emergencyMinSamples),
      cfg(config)
{
}

void
MemEccMonitor::activate(MemArray &array, unsigned bank,
                        std::uint64_t line)
{
    targetArray = &array;
    bank_ = bank;
    line_ = line;
    probeCarry = 0.0;
    patternIndex = 0;

    // The designated line carries a real codeword so uncorrectable
    // injections run the real decoder; pattern 0 (all zeros) data.
    std::vector<std::uint64_t> data(64, 0);
    array.writeLine(bank, line, data);
    resetCounters();
}

void
MemEccMonitor::deactivate()
{
    targetArray = nullptr;
    resetCounters();
}

ProbeStats
MemEccMonitor::runProbes(Seconds dt, Millivolt v_eff, Rng &rng)
{
    ProbeStats stats;
    if (!targetArray)
        return stats;

    const double budget = cfg.probesPerSecond * dt + probeCarry;
    const std::uint64_t n = std::uint64_t(budget);
    probeCarry = budget - double(n);
    if (n == 0)
        return stats;

    // Cycle through the march patterns between bursts.
    const unsigned pattern = patternIndex;
    patternIndex = (patternIndex + 1) % MemArray::kNumPatterns;

    stats = targetArray->probeLine(bank_, line_, v_eff, n, pattern,
                                   rng);
    accumulate(stats, stats.uncorrectableEvents > 0);
    return stats;
}

void
MemEccMonitor::saveState(StateWriter &w) const
{
    saveCounters(w);
    w.putDouble(probeCarry);
    w.putU64(patternIndex);
    w.putBool(targetArray != nullptr);
    w.putU64(bank_);
    w.putU64(line_);
}

void
MemEccMonitor::loadState(StateReader &r)
{
    loadCounters(r);
    probeCarry = r.getDouble();
    patternIndex = unsigned(r.getU64());
    const bool was_active = r.getBool();
    const std::uint64_t bank = r.getU64();
    const std::uint64_t line = r.getU64();
    if (was_active) {
        if (!targetArray)
            throw SnapshotError(
                "snapshot has an active mem monitor but this one is "
                "not armed (reconstruct-then-overlay)");
        if (bank != bank_ || line != line_)
            throw SnapshotError(
                "mem monitor designation mismatch: snapshot probes "
                "bank " + std::to_string(bank) + " line " +
                std::to_string(line) + ", monitor is armed on bank " +
                std::to_string(bank_) + " line " +
                std::to_string(line_));
    } else {
        targetArray = nullptr;
        bank_ = unsigned(bank);
        line_ = line;
    }
}

MemDomainConfig
MemDomainConfig::dram()
{
    MemDomainConfig cfg;
    cfg.kind = MemKind::dram;
    cfg.array = dramArrayDefaults();
    return cfg;
}

MemDomainConfig
MemDomainConfig::hbm()
{
    MemDomainConfig cfg;
    cfg.kind = MemKind::hbm;
    cfg.array = hbmArrayDefaults();
    // Twice the demand at half the per-access energy, and the
    // pseudo-channel sharers drag the rail.
    cfg.accessesPerSecond = 4e5;
    cfg.sharedRailDropMv = 12.0;
    return cfg;
}

MemDomain::MemDomain(const MemDomainConfig &config, unsigned index,
                     Rng &rng)
    : cfg(config), idx(index),
      name_(std::string(memKindName(config.kind)) +
            std::to_string(index)),
      array_(makeMemArray(config.kind, config.array, rng)),
      rail_(config.array.nominalMv, config.regulator),
      monitor_(config.monitor)
{
    if (cfg.accessesPerSecond < 0.0 || cfg.activity < 0.0 ||
        cfg.activity > 1.0)
        fatal("MemDomain needs accessesPerSecond >= 0 and activity "
              "in [0, 1]");
}

MemDomain::TickResult
MemDomain::tickTraffic(Seconds dt, Rng &rng)
{
    TickResult res;
    const double budget =
        cfg.accessesPerSecond * cfg.activity * dt + accessCarry;
    const std::uint64_t n = std::uint64_t(budget);
    accessCarry = budget - double(n);
    if (n == 0)
        return res;

    const MemArray::AggregateRates rates =
        array_->aggregateRates(effectiveVoltage());
    const double mean_corr = double(n) * rates.pCorrectable;
    const double mean_unc = double(n) * rates.pUncorrectable;
    if (mean_corr > 0.0)
        res.correctable = rng.poisson(mean_corr);
    if (mean_unc > 0.0)
        res.uncorrectable = rng.poisson(mean_unc);
    if (res.correctable > n)
        res.correctable = n;
    if (res.uncorrectable > n)
        res.uncorrectable = n;

    corrTotal += res.correctable;
    uncTotal += res.uncorrectable;
    if (res.uncorrectable > 0)
        dueLatch = true;
    return res;
}

void
MemDomain::serviceDue()
{
    rail_.request(nominalMv());
    dueLatch = false;
    ++recoveries_;
}

void
MemDomain::recalibrate()
{
    const MemArray::WeakLineRef target = array_->weakestLine();
    monitor_.activate(*array_, target.bank, target.line);
}

Watt
MemDomain::checkCellPower(const PowerModel &power) const
{
    return power.eccCheckCellPower(array_->checkMbit(),
                                   effectiveVoltage());
}

Watt
MemDomain::totalPower(const PowerModel &power) const
{
    return refreshPower() + accessStreamPower() +
           checkCellPower(power);
}

void
MemDomain::saveState(StateWriter &w) const
{
    rail_.saveState(w);
    monitor_.saveState(w);
    array_->saveState(w);
    w.putDouble(accessCarry);
    w.putBool(dueLatch);
    w.putU64(corrTotal);
    w.putU64(uncTotal);
    w.putU64(recoveries_);
}

void
MemDomain::loadState(StateReader &r)
{
    rail_.loadState(r);
    monitor_.loadState(r);
    array_->loadState(r);
    accessCarry = r.getDouble();
    dueLatch = r.getBool();
    corrTotal = r.getU64();
    uncTotal = r.getU64();
    recoveries_ = r.getU64();
}

} // namespace vspec
