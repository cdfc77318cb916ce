/**
 * @file
 * Tests for the common substrate: RNG determinism and distribution
 * moments, the normal CDF/quantile pair, the statistics accumulators,
 * and byte-identity of the runtime-dispatched normalCdfBatch SIMD
 * backend against the portable scalar reference.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/mathutil.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/stats.hh"

namespace vspec
{
namespace
{

TEST(Rng, DeterministicFromSeed)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, ForkIndependentStreams)
{
    Rng parent(42);
    Rng c1 = parent.fork(1);
    Rng c2 = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (c1.next() == c2.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, ForkDoesNotInheritGaussianCache)
{
    // Box-Muller produces variates in pairs; after one gaussian() the
    // parent holds the second of the pair in its cache. A fork must
    // start with an empty cache: its first gaussian must come from the
    // child's own stream, not the parent's leftover variate.
    Rng probe(123);
    (void)probe.gaussian();
    const double parents_cached = probe.gaussian();

    Rng parent(123);
    (void)parent.gaussian();  // Parent now caches `parents_cached`.
    Rng child = parent.fork(5);
    EXPECT_NE(child.gaussian(), parents_cached);
    // And the parent's cache is still intact afterwards.
    EXPECT_EQ(parent.gaussian(), parents_cached);
}

TEST(Rng, ForkAdjacentStreamIdsDecorrelated)
{
    // Children forked with adjacent stream ids must have unrelated
    // streams: seed derivation goes through mix64, not raw state
    // arithmetic.
    constexpr int ids = 16;
    std::vector<Rng> children;
    {
        Rng parent(2024);
        for (int i = 0; i < ids; ++i) {
            Rng fresh(2024);  // Same parent state for every fork.
            children.push_back(fresh.fork(std::uint64_t(i)));
        }
    }
    for (int a = 0; a < ids; ++a) {
        for (int b = a + 1; b < ids; ++b) {
            Rng ca = children[a], cb = children[b];
            int same = 0;
            for (int i = 0; i < 64; ++i)
                same += (ca.next() == cb.next());
            EXPECT_LT(same, 2) << "streams " << a << " and " << b;
        }
    }
}

TEST(Rng, Mix64TwoArgDerivation)
{
    // Deterministic, order-sensitive, and sensitive to both inputs.
    EXPECT_EQ(mix64(std::uint64_t(1), std::uint64_t(2)),
              mix64(std::uint64_t(1), std::uint64_t(2)));
    EXPECT_NE(mix64(std::uint64_t(1), std::uint64_t(2)),
              mix64(std::uint64_t(2), std::uint64_t(1)));
    EXPECT_NE(mix64(std::uint64_t(1), std::uint64_t(2)),
              mix64(std::uint64_t(1), std::uint64_t(3)));
    // Adjacent indices land far apart (no low-bit-only differences).
    const std::uint64_t d =
        mix64(std::uint64_t(7), std::uint64_t(0)) ^
        mix64(std::uint64_t(7), std::uint64_t(1));
    EXPECT_GT(__builtin_popcountll(d), 10);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntUnbiasedBounds)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i)
        ASSERT_LT(rng.uniformInt(7), 7u);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, BernoulliEdges)
{
    Rng rng(17);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
}

/** Binomial sampler matches the analytic mean across regimes. */
class RngBinomial
    : public ::testing::TestWithParam<std::pair<std::uint64_t, double>>
{
};

TEST_P(RngBinomial, MeanMatches)
{
    const auto [n, p] = GetParam();
    Rng rng(n * 1000 + std::uint64_t(p * 1e6));
    const int trials = 3000;
    double sum = 0.0;
    for (int i = 0; i < trials; ++i) {
        const std::uint64_t k = rng.binomial(n, p);
        ASSERT_LE(k, n);
        sum += double(k);
    }
    const double mean = double(n) * p;
    const double sigma = std::sqrt(mean * (1.0 - p));
    // Mean of `trials` samples should be within ~5 standard errors.
    EXPECT_NEAR(sum / trials, mean,
                5.0 * sigma / std::sqrt(double(trials)) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, RngBinomial,
    ::testing::Values(std::pair<std::uint64_t, double>{10, 0.3},
                      std::pair<std::uint64_t, double>{100, 0.001},
                      std::pair<std::uint64_t, double>{100000, 1e-5},
                      std::pair<std::uint64_t, double>{100000, 0.4},
                      std::pair<std::uint64_t, double>{500, 0.9},
                      std::pair<std::uint64_t, double>{64, 0.5}));

TEST(Rng, BinomialEdgeCases)
{
    Rng rng(31);
    // Exact results at the degenerate corners.
    EXPECT_EQ(rng.binomial(0, 0.5), 0u);
    EXPECT_EQ(rng.binomial(0, 0.0), 0u);
    EXPECT_EQ(rng.binomial(1000, 0.0), 0u);
    EXPECT_EQ(rng.binomial(1000, -0.5), 0u);
    EXPECT_EQ(rng.binomial(1000, 1.0), 1000u);
    EXPECT_EQ(rng.binomial(1000, 1.5), 1000u);

    // The normal-approximation path (mean and n(1-p) both large) must
    // never exceed n, even in the upper tail.
    for (int i = 0; i < 2000; ++i)
        ASSERT_LE(rng.binomial(10000, 0.995), 10000u);
    // Poisson-approximation path clamps to n as well.
    for (int i = 0; i < 2000; ++i)
        ASSERT_LE(rng.binomial(64, 0.04), 64u);
}

TEST(Rng, PoissonMean)
{
    Rng rng(23);
    for (double mean : {0.1, 3.0, 50.0}) {
        double sum = 0.0;
        const int n = 20000;
        for (int i = 0; i < n; ++i)
            sum += double(rng.poisson(mean));
        EXPECT_NEAR(sum / n, mean, 5.0 * std::sqrt(mean / n) + 0.01);
    }
}

/** Knuth's product method as Rng::poisson drew it before the zero
 *  shortcut: exp(-mean) on every draw. */
std::uint64_t
knuthPoisson(Rng &rng, double mean)
{
    const double limit = std::exp(-mean);
    double prod = rng.uniform();
    std::uint64_t k = 0;
    while (prod > limit) {
        prod *= rng.uniform();
        ++k;
    }
    return k;
}

TEST(Rng, PoissonZeroShortcutMatchesProductMethod)
{
    // The shortcut returns 0 without exp when u <= 1 - 2 * mean; every
    // draw and the generator state after the draws must equal the
    // product method's, on both sides of the 2^-50 threshold.
    const double means[] = {0x1p-60,
                            0x1p-51,
                            std::nextafter(0x1p-50, 0.0),
                            0x1p-50,
                            std::nextafter(0x1p-50, 1.0),
                            1e-9,
                            1e-3,
                            0.25,
                            0.5,
                            1.0,
                            29.9};
    for (double mean : means) {
        Rng fast(91), reference(91);
        std::uint64_t mismatches = 0, nonzero = 0;
        for (int i = 0; i < 1000000; ++i) {
            const std::uint64_t k = fast.poisson(mean);
            mismatches += k != knuthPoisson(reference, mean);
            nonzero += k != 0;
        }
        EXPECT_EQ(mismatches, 0u) << mean;
        EXPECT_EQ(fast.next(), reference.next()) << mean;
        if (mean >= 1e-3) {
            EXPECT_GT(nonzero, 0u) << mean;
        }
    }
}

TEST(MathUtil, NormalCdfKnownValues)
{
    EXPECT_NEAR(math::normalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(math::normalCdf(1.0), 0.8413447, 1e-6);
    EXPECT_NEAR(math::normalCdf(-1.96), 0.0249979, 1e-6);
    EXPECT_NEAR(math::normalCdf(6.0), 1.0, 1e-8);
}

TEST(MathUtil, QuantileRoundTrip)
{
    for (double p : {1e-9, 1e-6, 0.001, 0.01, 0.3, 0.5, 0.9, 0.999,
                     1.0 - 1e-7}) {
        const double x = math::normalQuantile(p);
        EXPECT_NEAR(math::normalCdf(x), p, 1e-9 + p * 1e-6);
    }
}

TEST(MathUtil, ClampAndLerp)
{
    EXPECT_EQ(math::clamp(5.0, 0.0, 1.0), 1.0);
    EXPECT_EQ(math::clamp(-5.0, 0.0, 1.0), 0.0);
    EXPECT_EQ(math::clamp(0.5, 0.0, 1.0), 0.5);
    EXPECT_EQ(math::lerp(10.0, 20.0, 0.5), 15.0);
    EXPECT_EQ(math::lerp(10.0, 20.0, 0.0), 10.0);
    EXPECT_EQ(math::lerp(10.0, 20.0, 1.0), 20.0);
}

TEST(Stats, RunningStatsExact)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, MergeEqualsCombined)
{
    Rng rng(31);
    RunningStats a, b, all;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.gaussian(3.0, 2.0);
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
}

TEST(Stats, HistogramBinningAndQuantile)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 100; ++i)
        h.add(double(i % 10) + 0.5);
    EXPECT_EQ(h.totalCount(), 100u);
    for (std::size_t b = 0; b < 10; ++b)
        EXPECT_EQ(h.binCount(b), 10u);
    EXPECT_NEAR(h.quantile(0.5), 4.5, 1.1);
    // Saturating edge bins.
    h.add(-100.0);
    h.add(1000.0);
    EXPECT_EQ(h.binCount(0), 11u);
    EXPECT_EQ(h.binCount(9), 11u);
}

TEST(Stats, HistogramQuantileEdges)
{
    // Empty histogram: defined, in-range results, no division by zero.
    Histogram empty(0.0, 10.0, 10);
    EXPECT_EQ(empty.quantile(0.0), 0.0);
    EXPECT_EQ(empty.quantile(0.5), 0.0);
    EXPECT_EQ(empty.quantile(1.0), 0.0);

    // All mass in one interior bin: every quantile, including the
    // extremes, must land in that bin — q = 0 must not report the
    // (empty) first bin.
    Histogram h(0.0, 10.0, 10);
    h.add(7.5);
    h.add(7.5);
    EXPECT_EQ(h.quantile(0.0), 7.5);
    EXPECT_EQ(h.quantile(0.5), 7.5);
    EXPECT_EQ(h.quantile(1.0), 7.5);

    // Out-of-range q is clamped, not extrapolated.
    EXPECT_EQ(h.quantile(-1.0), h.quantile(0.0));
    EXPECT_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(Stats, HistogramMerge)
{
    Histogram a(0.0, 10.0, 10), b(0.0, 10.0, 10);
    a.add(1.5);
    a.add(2.5);
    b.add(2.5);
    b.add(9.5);
    a.merge(b);
    EXPECT_EQ(a.totalCount(), 4u);
    EXPECT_EQ(a.binCount(1), 1u);
    EXPECT_EQ(a.binCount(2), 2u);
    EXPECT_EQ(a.binCount(9), 1u);

    // Merging an empty histogram of the same geometry is a no-op.
    Histogram zero(0.0, 10.0, 10);
    a.merge(zero);
    EXPECT_EQ(a.totalCount(), 4u);
}

/**
 * Merging an empty histogram is a no-op even when its geometry
 * differs: fleet shards carry default-shaped empties for streams that
 * never recorded, and folding one in must neither panic nor perturb
 * the accumulating histogram's bounds or counts.
 */
TEST(Stats, HistogramMergeEmptyIntoNonemptyIsNoOp)
{
    Histogram a(0.0, 10.0, 10);
    a.add(3.5);
    a.add(7.5);

    Histogram other_shape(0.0, 1.0, 4);  // Empty, different geometry.
    a.merge(other_shape);
    EXPECT_EQ(a.totalCount(), 2u);
    EXPECT_EQ(a.binCount(3), 1u);
    EXPECT_EQ(a.binCount(7), 1u);
    EXPECT_EQ(a.quantile(0.0), 3.5);
    EXPECT_EQ(a.quantile(1.0), 7.5);

    // A nonempty geometry mismatch is still an error, not a merge.
    Histogram populated(0.0, 1.0, 4);
    populated.add(0.5);
    EXPECT_DEATH(a.merge(populated), "geometry");
}

/** Single-bucket histogram: every quantile names the one bin center. */
TEST(Stats, HistogramQuantileSingleBucket)
{
    Histogram h(0.0, 1.0, 1);
    h.add(0.25);
    h.add(0.75);
    h.add(100.0);  // Clamped into the only bin.
    for (double q : {0.0, 0.25, 0.5, 0.99, 1.0})
        EXPECT_EQ(h.quantile(q), 0.5) << "q = " << q;
}

/**
 * Brute-force reference: for samples placed at bin centers, the
 * histogram quantile must equal the exact sorted-sample quantile
 * (ceil-rank convention) at every q, including both endpoints.
 */
TEST(Stats, HistogramQuantileMatchesSortedSampleReference)
{
    Rng rng(0x9A17);
    Histogram h(0.0, 16.0, 32);
    const double half_bin = 0.25;
    std::vector<double> samples;
    for (int i = 0; i < 500; ++i) {
        // Snap each sample to its bin center so binning is lossless
        // and the reference comparison is exact, not approximate.
        const std::size_t bin = std::size_t(rng.uniformInt(32));
        const double x = double(bin) * 0.5 + half_bin;
        samples.push_back(x);
        h.add(x);
    }
    std::sort(samples.begin(), samples.end());

    for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
        double expected;
        if (q <= 0.0) {
            expected = samples.front();
        } else if (q >= 1.0) {
            expected = samples.back();
        } else {
            // Smallest index with (index+1)/N >= q.
            const std::size_t rank = std::size_t(
                std::ceil(q * double(samples.size())) - 1);
            expected = samples[rank];
        }
        EXPECT_EQ(h.quantile(q), expected) << "q = " << q;
    }
}

TEST(SimdKernels, NormalCdfBatchByteIdenticalToPortable)
{
    // Dense grid through the bulk plus hand-picked tail/edge points.
    std::vector<double> z;
    for (double x = -10.0; x <= 10.0; x += 0.0625)
        z.push_back(x);
    for (const double x : {-40.0, -37.5, -12.0, -8.5, 8.5, 12.0, 40.0,
                           0.0, 1e-12, -1e-12})
        z.push_back(x);

    std::vector<double> dispatched(z.size()), portable(z.size());
    simd::normalCdfBatch(z.data(), z.size(), dispatched.data());
    simd::portable::normalCdfBatch(z.data(), z.size(), portable.data());
    for (std::size_t i = 0; i < z.size(); ++i) {
        // Byte identity, not just numeric closeness.
        ASSERT_EQ(std::memcmp(&dispatched[i], &portable[i],
                              sizeof(double)),
                  0)
            << "z = " << z[i] << " backend " << simd::backendName();
    }
}

TEST(SimdKernels, NormalCdfBatchAccurateAgainstLibm)
{
    std::vector<double> z;
    for (double x = -8.0; x <= 8.0; x += 0.03125)
        z.push_back(x);
    std::vector<double> got(z.size());
    simd::normalCdfBatch(z.data(), z.size(), got.data());
    for (std::size_t i = 0; i < z.size(); ++i) {
        const double ref = math::normalCdf(z[i]);
        ASSERT_NEAR(got[i], ref, 1e-13 + 1e-9 * ref) << "z = " << z[i];
    }
}

} // namespace
} // namespace vspec
