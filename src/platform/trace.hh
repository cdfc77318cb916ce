/**
 * @file
 * Time-series telemetry, mirroring the paper's firmware data
 * collection (Section IV-A.4): per-domain voltage, per-domain monitor
 * error rate, per-core power, and cumulative ECC event counts, sampled
 * on a fixed interval.
 */

#ifndef VSPEC_PLATFORM_TRACE_HH
#define VSPEC_PLATFORM_TRACE_HH

#include <string>
#include <vector>

#include "common/units.hh"

namespace vspec
{

class StateWriter;
class StateReader;

/** One telemetry sample. */
struct TraceSample
{
    Seconds time = 0.0;
    /** Regulator setpoint per domain (mV). */
    std::vector<Millivolt> domainSetpoint;
    /** Effective (droop-adjusted) voltage per domain (mV). */
    std::vector<Millivolt> domainEffective;
    /** Monitor error rate per domain over the last interval. */
    std::vector<double> domainErrorRate;
    /** Monitor correctable events per domain over the last interval. */
    std::vector<std::uint64_t> domainErrors;
    /** Total chip power (W). */
    Watt chipPower = 0.0;
    /** Per-core power (W). */
    std::vector<Watt> corePower;
    /** Workload-induced correctable events in the last interval. */
    std::uint64_t workloadErrors = 0;
};

/** A recorded run. */
class Trace
{
  public:
    void add(TraceSample sample) { samples_.push_back(std::move(sample)); }
    const std::vector<TraceSample> &samples() const { return samples_; }
    bool empty() const { return samples_.empty(); }

    /** Mean domain setpoint voltage over the trace (mV). */
    Millivolt meanDomainSetpoint(unsigned domain) const;
    /** Mean chip power over the trace (W). */
    Watt meanChipPower() const;

    /** Render as TSV (for offline plotting). */
    std::string toTsv() const;

    /** Serialize all recorded samples; loadState replaces the log. */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    std::vector<TraceSample> samples_;
};

} // namespace vspec

#endif // VSPEC_PLATFORM_TRACE_HH
