#include "fleet/fleet_metrics.hh"

#include "common/logging.hh"
#include "snapshot/state_io.hh"

namespace vspec
{

FleetMetrics::FleetMetrics() = default;

FleetMetrics::FleetMetrics(const FleetMetrics &other)
    : sketch(other.sketch),
      exactHistogram(other.exactHistogram
                         ? std::make_unique<Histogram>(*other.exactHistogram)
                         : nullptr),
      latency(other.latency), jobEnergyTotal(other.jobEnergyTotal),
      completedJobs(other.completedJobs), criticalJobs(other.criticalJobs),
      violations(other.violations),
      criticalViolations(other.criticalViolations)
{
}

FleetMetrics &
FleetMetrics::operator=(const FleetMetrics &other)
{
    if (this == &other)
        return *this;
    sketch = other.sketch;
    exactHistogram = other.exactHistogram
                         ? std::make_unique<Histogram>(*other.exactHistogram)
                         : nullptr;
    latency = other.latency;
    jobEnergyTotal = other.jobEnergyTotal;
    completedJobs = other.completedJobs;
    criticalJobs = other.criticalJobs;
    violations = other.violations;
    criticalViolations = other.criticalViolations;
    return *this;
}

void
FleetMetrics::enableExactHistogram(Seconds max_latency, std::size_t bins)
{
    if (max_latency <= 0.0)
        fatal("FleetMetrics needs a positive latency range");
    if (completedJobs > 0)
        panic("FleetMetrics: exact-histogram validation must be armed "
              "before the first recorded completion");
    exactHistogram = std::make_unique<Histogram>(0.0, max_latency, bins);
}

void
FleetMetrics::recordCompletion(const Job &job, const JobClass &cls,
                               Seconds completion_time, Joule job_energy)
{
    const Seconds job_latency = completion_time - job.arrival;
    if (job_latency < 0.0)
        panic("FleetMetrics: job ", job.id, " completed before arrival");
    recordCompletion(job_latency, completion_time > job.deadline,
                     cls.latencyCritical);
    addJobEnergy(job_energy);
}

void
FleetMetrics::recordCompletion(Seconds job_latency, bool late,
                               bool critical)
{
    sketch.add(job_latency);
    if (exactHistogram)
        exactHistogram->add(job_latency);
    latency.add(job_latency);
    ++completedJobs;
    violations += late ? 1 : 0;
    if (critical) {
        ++criticalJobs;
        criticalViolations += late ? 1 : 0;
    }
}

void
FleetMetrics::merge(const FleetMetrics &other)
{
    // An empty shard folds in as a no-op regardless of mode.
    if (other.completedJobs == 0)
        return;
    // A fresh accumulator (the report-time merge target starts
    // default-constructed) adopts the first non-empty shard wholesale,
    // validation mode included.
    if (completedJobs == 0 && !exactHistogram) {
        *this = other;
        return;
    }
    if (bool(exactHistogram) != bool(other.exactHistogram))
        panic("FleetMetrics::merge: shards disagree on exact-histogram "
              "validation mode");
    sketch.merge(other.sketch);
    if (exactHistogram)
        exactHistogram->merge(*other.exactHistogram);
    latency.merge(other.latency);
    jobEnergyTotal += other.jobEnergyTotal;
    completedJobs += other.completedJobs;
    criticalJobs += other.criticalJobs;
    violations += other.violations;
    criticalViolations += other.criticalViolations;
}

Seconds
FleetMetrics::latencyQuantile(double q) const
{
    return sketch.quantile(q);
}

Seconds
FleetMetrics::exactLatencyQuantile(double q) const
{
    if (!exactHistogram)
        panic("FleetMetrics: exactLatencyQuantile without "
              "enableExactHistogram");
    return exactHistogram->quantile(q);
}

const Histogram &
FleetMetrics::latencyHistogram() const
{
    if (!exactHistogram)
        panic("FleetMetrics: latencyHistogram without "
              "enableExactHistogram");
    return *exactHistogram;
}

void
FleetMetrics::saveState(StateWriter &w) const
{
    sketch.saveState(w);
    w.putBool(bool(exactHistogram));
    if (exactHistogram)
        exactHistogram->saveState(w);
    latency.saveState(w);
    w.putDouble(jobEnergyTotal);
    w.putU64(completedJobs);
    w.putU64(criticalJobs);
    w.putU64(violations);
    w.putU64(criticalViolations);
}

void
FleetMetrics::loadState(StateReader &r)
{
    sketch.loadState(r);
    const bool exact = r.getBool();
    if (exact != bool(exactHistogram))
        throw SnapshotError("fleet metrics exact-histogram mode "
                            "mismatch (snapshot was taken with a "
                            "different configuration)");
    if (exactHistogram)
        exactHistogram->loadState(r);
    latency.loadState(r);
    jobEnergyTotal = r.getDouble();
    completedJobs = r.getU64();
    criticalJobs = r.getU64();
    violations = r.getU64();
    criticalViolations = r.getU64();
}

} // namespace vspec
