#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/mathutil.hh"
#include "snapshot/state_io.hh"

namespace vspec
{

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
mix64(std::uint64_t seed, std::uint64_t index)
{
    // Mix the index on its own first so that adjacent indices land far
    // apart before they are combined with the seed.
    return mix64(seed ^ (mix64(index) + 0x9e3779b97f4a7c15ULL));
}

Rng::Rng(std::uint64_t seed)
    : cachedGaussian(0.0), hasCachedGaussian(false)
{
    // splitmix64 expansion of the seed into the full 256-bit state.
    std::uint64_t s = seed;
    for (auto &word : state) {
        s += 0x9e3779b97f4a7c15ULL;
        word = mix64(s);
    }
}

Rng
Rng::fork(std::uint64_t stream_id)
{
    // Seed the child through mix64 rather than copying raw state so
    // forked streams with adjacent stream ids stay decorrelated. The
    // seeding constructor also guarantees the child starts with an
    // empty Box-Muller cache: a cached gaussian in the parent must not
    // leak into the child stream.
    Rng child(mix64(next() ^ mix64(stream_id)));
    child.hasCachedGaussian = false;
    child.cachedGaussian = 0.0;
    return child;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    if (n == 0)
        panic("Rng::uniformInt called with n == 0");
    // Rejection sampling to remove modulo bias.
    const std::uint64_t limit = n * ((~std::uint64_t(0)) / n);
    std::uint64_t x;
    do {
        x = next();
    } while (x >= limit);
    return x % n;
}

double
Rng::gaussian()
{
    if (hasCachedGaussian) {
        hasCachedGaussian = false;
        return cachedGaussian;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * math::pi * u2;
    cachedGaussian = r * std::sin(theta);
    hasCachedGaussian = true;
    return r * std::cos(theta);
}

double
Rng::gaussian(double mean, double sigma)
{
    return mean + sigma * gaussian();
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

std::uint64_t
Rng::binomial(std::uint64_t n, double p)
{
    if (n == 0 || p <= 0.0)
        return 0;
    if (p >= 1.0)
        return n;

    const double mean = double(n) * p;

    if (n <= 32) {
        // Exact: count explicit Bernoulli trials.
        std::uint64_t count = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            count += bernoulli(p) ? 1 : 0;
        return count;
    }

    if (mean < 32.0 && p < 0.05) {
        // Rare-event regime: Poisson approximation, clamped to n.
        const std::uint64_t k = poisson(mean);
        return k > n ? n : k;
    }

    if (mean >= 32.0 && double(n) * (1.0 - p) >= 32.0) {
        // Bulk regime: normal approximation with continuity correction.
        const double sigma = std::sqrt(mean * (1.0 - p));
        const double draw = std::round(gaussian(mean, sigma));
        if (draw < 0.0)
            return 0;
        if (draw > double(n))
            return n;
        return std::uint64_t(draw);
    }

    // Fallback: inversion by sequential search from the mode-free CDF.
    // Only reached for moderate n with large p; n is bounded enough for
    // explicit trials to stay cheap.
    std::uint64_t count = 0;
    for (std::uint64_t i = 0; i < n; ++i)
        count += bernoulli(p) ? 1 : 0;
    return count;
}

std::uint64_t
Rng::poissonProduct(double mean, double u)
{
    // Knuth's product method: k = 0 exactly when the first uniform
    // u <= exp(-m). poisson() decides the common tiny-mean zero without
    // exp, by u <= 1 - 2m for m >= 2^-50, and that is exact: for
    // 2^-50 <= m <= 1/2, exp(-m) - (1 - 2m) >= m - m^2/2 > 2^-51, which
    // exceeds the rounding of 1 - 2m (<= 2^-54; 2m is exact, so a fused
    // multiply-add rounds it the same) plus the error of exp (<= 1 ulp,
    // 2^-53). So u <= 1 - 2m, as computed, implies u <= exp(-m) as
    // computed, and the draw is the product method's, on the same one
    // uniform. Above m = 1/2, 1 - 2m < 0 <= u: the test never passes.
    const double limit = std::exp(-mean);
    double prod = u;
    std::uint64_t k = 0;
    while (prod > limit) {
        prod *= uniform();
        ++k;
    }
    return k;
}

std::uint64_t
Rng::poissonNormal(double mean)
{
    const double draw = std::round(gaussian(mean, std::sqrt(mean)));
    return draw < 0.0 ? 0 : std::uint64_t(draw);
}

void
Rng::saveState(StateWriter &w) const
{
    for (std::uint64_t word : state)
        w.putU64(word);
    w.putDouble(cachedGaussian);
    w.putBool(hasCachedGaussian);
}

void
Rng::loadState(StateReader &r)
{
    for (std::uint64_t &word : state)
        word = r.getU64();
    cachedGaussian = r.getDouble();
    hasCachedGaussian = r.getBool();
}

} // namespace vspec
