/**
 * @file
 * Lightweight statistics accumulators used by the telemetry subsystem
 * and the benchmark harnesses: running mean/stddev/min/max and fixed-bin
 * histograms.
 */

#ifndef VSPEC_COMMON_STATS_HH
#define VSPEC_COMMON_STATS_HH

#include <cstdint>
#include <vector>

namespace vspec
{

class StateWriter;
class StateReader;

/**
 * Welford-style running statistics: numerically stable mean/variance
 * plus min/max over a stream of samples.
 */
class RunningStats
{
  public:
    RunningStats();

    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStats &other);

    /** Discard all samples. */
    void reset();

    std::uint64_t count() const { return n; }
    double mean() const;
    double variance() const;
    double stddev() const;
    double min() const;
    double max() const;
    double sum() const { return total; }

    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    std::uint64_t n;
    double runningMean;
    double m2;
    double lo;
    double hi;
    double total;
};

/**
 * Fixed-width histogram over [lo, hi); samples outside the range land in
 * saturating edge bins.
 */
class Histogram
{
  public:
    /** Construct with the given range and bin count (> 0). */
    Histogram(double lo, double hi, std::size_t bins);

    /** Add one sample. */
    void add(double x);

    /** Merge another histogram of identical geometry into this one. */
    void merge(const Histogram &other);

    /** Discard all samples. */
    void reset();

    std::size_t numBins() const { return counts.size(); }
    std::uint64_t binCount(std::size_t i) const { return counts.at(i); }
    double binLow(std::size_t i) const;
    double binHigh(std::size_t i) const;
    std::uint64_t totalCount() const { return total; }

    /** Sample value at the given cumulative quantile q in [0, 1]. */
    double quantile(double q) const;

    /**
     * Shape (range, bin count) is construction state and is verified,
     * not overwritten, by loadState: restoring into a histogram with a
     * different shape throws SnapshotError.
     */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    double rangeLo;
    double rangeHi;
    double binWidth;
    std::vector<std::uint64_t> counts;
    std::uint64_t total;
};

} // namespace vspec

#endif // VSPEC_COMMON_STATS_HH
