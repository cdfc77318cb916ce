/**
 * @file
 * Runtime-dispatched SIMD kernel for the sampling hot path.
 *
 * One kernel: normalCdfBatch, the standard normal CDF over a batch of
 * z-scores. Since calibration always runs the exact sweeps, no
 * production path calls it; it stays because backendName() is part of
 * the repository benchmark's build stamp.
 *
 * Backends: AVX2 (4x double, selected at runtime via cpuid),
 * NEON (2 lanes, aarch64 builds), and a portable scalar fallback. All
 * backends execute the identical IEEE-754 operation sequence per lane —
 * no FMA contraction, no libm (exp and Phi are our own fixed-order
 * implementations) — so every backend produces byte-identical results.
 * A CI job builds with VSPEC_DISABLE_SIMD and runs the kernel tests
 * and goldens on the portable fallback.
 *
 * The portable implementation is exported under simd::portable so
 * tests can compare the dispatched path against the fallback directly.
 */

#ifndef VSPEC_COMMON_SIMD_HH
#define VSPEC_COMMON_SIMD_HH

#include <cstddef>

namespace vspec
{

namespace simd
{

/** Name of the dispatched backend: "avx2", "neon" or "portable". */
const char *backendName();

/**
 * out[i] = Phi(z[i]), the standard normal CDF. West's (2004)
 * double-precision algorithm with a fixed-order exp: relative error
 * ~1e-15 in the bulk, loosening to ~1e-9 on tail probabilities below
 * 1e-10 (absolute error stays ~1e-15 everywhere). NOT bit-identical
 * to math::normalCdf (libm erfc), which is why the exact sampling
 * mode never routes through it.
 */
void normalCdfBatch(const double *z, std::size_t n, double *out);

/** Scalar reference implementation (always available; used by the
 *  dispatcher as the fallback and by the byte-identity tests). */
namespace portable
{
void normalCdfBatch(const double *z, std::size_t n, double *out);
} // namespace portable

} // namespace simd

} // namespace vspec

#endif // VSPEC_COMMON_SIMD_HH
