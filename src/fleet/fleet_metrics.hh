/**
 * @file
 * Mergeable per-shard fleet telemetry.
 *
 * Each fleet metric shard (one per FleetNode in the full-simulation
 * fleet, one per chip shard in the sharded scale fleet) records the
 * jobs it completes: latency quantiles, latency running stats,
 * completion and SLA-violation counts, split by latency-critical vs
 * batch, plus the marginal energy attributed to completed jobs.
 *
 * Latency quantiles come from a fixed-size mergeable QuantileSketch
 * (log-spaced bins, ~0.9% relative quantization error — see
 * common/quantile_sketch.hh). The sketch is a pure counts table, so
 * shard merges are element-wise additions: commutative, associative,
 * and bit-exact in any fold order. Fleet reports merge shards in task
 * order and are byte-identical for every worker-thread count, and a
 * merged shard's latencyQuantile(q) equals the single-shard value on
 * the union of the samples — exactly.
 *
 * The previous full-resolution linear Histogram survives as an opt-in
 * validation mode (enableExactHistogram): when armed, every sample is
 * recorded into both structures and exactLatencyQuantile() exposes the
 * histogram's estimate, so a cross-check run can assert that sketch
 * and exact quantiles agree within the two quantization bounds.
 */

#ifndef VSPEC_FLEET_FLEET_METRICS_HH
#define VSPEC_FLEET_FLEET_METRICS_HH

#include <cstdint>
#include <memory>

#include "common/quantile_sketch.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "fleet/job.hh"

namespace vspec
{

class FleetMetrics
{
  public:
    FleetMetrics();
    FleetMetrics(const FleetMetrics &other);
    FleetMetrics &operator=(const FleetMetrics &other);

    /**
     * Arm the opt-in exact-histogram validation mode: alongside the
     * sketch, samples are recorded into a full-resolution linear
     * histogram over [0, max_latency) (completions beyond it land in
     * the saturating top bin — the range cap the sketch does not
     * have). Must be armed before the first recordCompletion, and
     * merge() requires both shards to agree on the mode.
     */
    void enableExactHistogram(Seconds max_latency = 120.0,
                              std::size_t bins = 1200);

    /**
     * Record one completed job. @p job_energy is the energy the job's
     * cores drew while it was resident (the marginal cost of the job,
     * not a share of the fleet's idle draw).
     */
    void recordCompletion(const Job &job, const JobClass &cls,
                          Seconds completion_time, Joule job_energy = 0.0);
    /**
     * The two halves of the call above, for a caller that logs
     * completions now and records them later: the completion reduced
     * to @p latency (completion time minus arrival, non-negative) and
     * whether the job was @p late and @p critical, and the job's
     * energy. Each half must see its jobs in the same order.
     */
    void recordCompletion(Seconds latency, bool late, bool critical);
    void addJobEnergy(Joule job_energy) { jobEnergyTotal += job_energy; }

    /** Fold another shard into this one. */
    void merge(const FleetMetrics &other);

    std::uint64_t completed() const { return completedJobs; }
    /** Total energy attributed to completed jobs (J). */
    Joule jobEnergy() const { return jobEnergyTotal; }
    std::uint64_t completedCritical() const { return criticalJobs; }
    std::uint64_t slaViolations() const { return violations; }
    std::uint64_t slaViolationsCritical() const
    {
        return criticalViolations;
    }

    /** Arrival-to-completion latency quantile (s), sketch estimate. */
    Seconds latencyQuantile(double q) const;
    /**
     * Validation-mode quantile from the exact linear histogram (s);
     * panics unless enableExactHistogram was armed.
     */
    Seconds exactLatencyQuantile(double q) const;

    const RunningStats &latencyStats() const { return latency; }
    const QuantileSketch &latencySketch() const { return sketch; }
    /** Validation-mode histogram; panics unless armed. */
    const Histogram &latencyHistogram() const;

    /** Serialize the latency shard and completion/violation counts. */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    QuantileSketch sketch;
    /** Armed only in validation mode; null on the default path. */
    std::unique_ptr<Histogram> exactHistogram;
    RunningStats latency;
    Joule jobEnergyTotal = 0.0;
    std::uint64_t completedJobs = 0;
    std::uint64_t criticalJobs = 0;
    std::uint64_t violations = 0;
    std::uint64_t criticalViolations = 0;
};

} // namespace vspec

#endif // VSPEC_FLEET_FLEET_METRICS_HH
