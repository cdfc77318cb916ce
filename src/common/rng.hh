/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All stochastic behaviour in the simulator flows through Rng so that
 * every experiment is exactly reproducible from a seed. The generator is
 * xoshiro256** seeded via splitmix64; distribution helpers cover the
 * needs of the statistical SRAM model (Gaussian critical voltages,
 * Bernoulli/binomial/Poisson error draws).
 */

#ifndef VSPEC_COMMON_RNG_HH
#define VSPEC_COMMON_RNG_HH

#include <array>
#include <cstdint>

namespace vspec
{

class StateWriter;
class StateReader;

/**
 * Stateless 64-bit mixing function (splitmix64 finalizer). Used both for
 * seeding and for deriving per-object child seeds.
 */
std::uint64_t mix64(std::uint64_t x);

/**
 * Two-input seed derivation: a well-mixed function of (seed, index) used
 * to give every task of a batch its own decorrelated stream. Adjacent
 * indices map to unrelated seeds.
 */
std::uint64_t mix64(std::uint64_t seed, std::uint64_t index);

/**
 * xoshiro256** generator with distribution helpers.
 */
class Rng
{
  public:
    /** Construct from a seed; identical seeds yield identical streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /**
     * Derive an independent child generator (for per-core streams).
     *
     * The child is seeded through mix64 from the parent's next output
     * and the stream id, so adjacent stream ids yield decorrelated
     * streams, and it starts with an empty Box-Muller cache regardless
     * of the parent's cached state.
     */
    Rng fork(std::uint64_t stream_id);

    /** Next raw 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;

        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        // 53 high bits -> double in [0, 1).
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Standard normal variate (Box-Muller with caching). */
    double gaussian();

    /** Normal variate with the given mean and standard deviation. */
    double gaussian(double mean, double sigma);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /**
     * Number of successes in n Bernoulli(p) trials.
     *
     * Uses exact inversion for small n*p, a Poisson approximation for
     * rare events and a normal approximation for large counts, so it is
     * cheap even for the millions of probe accesses per tick.
     */
    std::uint64_t binomial(std::uint64_t n, double p);

    /**
     * Poisson variate with the given mean: Knuth's product method below
     * a mean of 30, a rounded normal above. Inline because the exact
     * tick draws two per weak line; the common zero of a tiny mean is
     * decided inline, in poissonFromUniform, without exp and exactly
     * (see poissonProduct).
     */
    std::uint64_t poisson(double mean)
    {
        if (mean <= 0.0)
            return 0;
        if (mean < 30.0)
            return poissonFromUniform(mean, uniform());
        return poissonNormal(mean);
    }

    /**
     * The rest of a poisson(mean) draw, 0 < mean < 30, whose first
     * uniform @p u the caller has already drawn: the same count and the
     * same further draws as poisson(mean) makes after that uniform.
     */
    std::uint64_t poissonFromUniform(double mean, double u)
    {
        if (mean >= 0x1p-50 && u <= 1.0 - 2.0 * mean)
            return 0;
        return poissonProduct(mean, u);
    }

    /**
     * Serialize the full generator state — the xoshiro words AND the
     * pending Box-Muller cache — so a restored generator reproduces the
     * exact remaining stream, including a gaussian() snapshotted
     * mid-pair. Contrast with fork(), which deliberately starts the
     * child with an empty cache: fork() derives a *new* decorrelated
     * stream, loadState() resumes *this* stream.
     */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** The product method's count, continued from first uniform @p u. */
    std::uint64_t poissonProduct(double mean, double u);
    /** Normal approximation for large means. */
    std::uint64_t poissonNormal(double mean);

    std::array<std::uint64_t, 4> state;
    double cachedGaussian;
    bool hasCachedGaussian;
};

} // namespace vspec

#endif // VSPEC_COMMON_RNG_HH
