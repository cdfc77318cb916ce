#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "snapshot/state_io.hh"

namespace vspec
{

RunningStats::RunningStats()
{
    reset();
}

void
RunningStats::add(double x)
{
    ++n;
    const double delta = x - runningMean;
    runningMean += delta / double(n);
    m2 += delta * (x - runningMean);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    total += x;
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        *this = other;
        return;
    }
    const double delta = other.runningMean - runningMean;
    const std::uint64_t combined = n + other.n;
    m2 += other.m2 +
          delta * delta * double(n) * double(other.n) / double(combined);
    runningMean += delta * double(other.n) / double(combined);
    n = combined;
    lo = std::min(lo, other.lo);
    hi = std::max(hi, other.hi);
    total += other.total;
}

void
RunningStats::reset()
{
    n = 0;
    runningMean = 0.0;
    m2 = 0.0;
    lo = std::numeric_limits<double>::infinity();
    hi = -std::numeric_limits<double>::infinity();
    total = 0.0;
}

double
RunningStats::mean() const
{
    return n == 0 ? 0.0 : runningMean;
}

double
RunningStats::variance() const
{
    return n < 2 ? 0.0 : m2 / double(n - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStats::min() const
{
    return n == 0 ? 0.0 : lo;
}

double
RunningStats::max() const
{
    return n == 0 ? 0.0 : hi;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : rangeLo(lo), rangeHi(hi), counts(bins, 0), total(0)
{
    if (bins == 0)
        panic("Histogram requires at least one bin");
    if (!(hi > lo))
        panic("Histogram requires hi > lo, got [", lo, ", ", hi, ")");
    binWidth = (hi - lo) / double(bins);
}

void
Histogram::add(double x)
{
    std::size_t idx;
    if (x < rangeLo) {
        idx = 0;
    } else if (x >= rangeHi) {
        idx = counts.size() - 1;
    } else {
        idx = std::size_t((x - rangeLo) / binWidth);
        idx = std::min(idx, counts.size() - 1);
    }
    ++counts[idx];
    ++total;
}

void
Histogram::merge(const Histogram &other)
{
    // Merging an empty histogram is a no-op regardless of geometry:
    // shard maps routinely hold default-shaped empties for streams
    // that never recorded a sample, and folding one in must neither
    // panic on the shape nor perturb this histogram's bounds.
    if (other.total == 0)
        return;
    if (other.counts.size() != counts.size() || other.rangeLo != rangeLo ||
        other.rangeHi != rangeHi) {
        panic("Histogram::merge requires identical geometry, got [",
              rangeLo, ", ", rangeHi, ")x", counts.size(), " vs [",
              other.rangeLo, ", ", other.rangeHi, ")x",
              other.counts.size());
    }
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] += other.counts[i];
    total += other.total;
}

void
Histogram::reset()
{
    std::fill(counts.begin(), counts.end(), 0);
    total = 0;
}

double
Histogram::binLow(std::size_t i) const
{
    return rangeLo + binWidth * double(i);
}

double
Histogram::binHigh(std::size_t i) const
{
    return rangeLo + binWidth * double(i + 1);
}

double
Histogram::quantile(double q) const
{
    if (total == 0)
        return rangeLo;
    q = std::clamp(q, 0.0, 1.0);
    // q = 1.0 must name the highest populated bin, never fall off the
    // cumulative walk into rangeHi on accumulation round-off; resolve
    // it (and the single-bin case with it) by direct scan from the top.
    if (q >= 1.0) {
        for (std::size_t i = counts.size(); i-- > 0;) {
            if (counts[i] > 0)
                return binLow(i) + binWidth * 0.5;
        }
        return rangeHi;
    }
    const double target = q * double(total);
    double cum = 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        cum += double(counts[i]);
        // Require a populated bin: with q == 0 the target is 0 and an
        // empty leading bin would otherwise satisfy cum >= target and
        // report a value below every recorded sample.
        if (counts[i] > 0 && cum >= target)
            return binLow(i) + binWidth * 0.5;
    }
    return rangeHi;
}

void
RunningStats::saveState(StateWriter &w) const
{
    w.putU64(n);
    w.putDouble(runningMean);
    w.putDouble(m2);
    w.putDouble(lo);
    w.putDouble(hi);
    w.putDouble(total);
}

void
RunningStats::loadState(StateReader &r)
{
    n = r.getU64();
    runningMean = r.getDouble();
    m2 = r.getDouble();
    lo = r.getDouble();
    hi = r.getDouble();
    total = r.getDouble();
}

void
Histogram::saveState(StateWriter &w) const
{
    w.putDouble(rangeLo);
    w.putDouble(rangeHi);
    w.putU64(counts.size());
    w.putU64Vector(counts);
    w.putU64(total);
}

void
Histogram::loadState(StateReader &r)
{
    const double lo_in = r.getDouble();
    const double hi_in = r.getDouble();
    const std::uint64_t bins = r.getU64();
    if (lo_in != rangeLo || hi_in != rangeHi || bins != counts.size())
        throw SnapshotError("histogram shape mismatch (snapshot was "
                            "taken with a different configuration)");
    counts = r.getU64Vector();
    if (counts.size() != bins)
        throw SnapshotError("histogram bin count mismatch");
    total = r.getU64();
}

} // namespace vspec
