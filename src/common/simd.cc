#include "common/simd.hh"

#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

// This translation unit must be compiled with FP contraction disabled
// (-ffp-contract=off, set in src/common/CMakeLists.txt): the scalar
// fallback and the vector lanes promise byte-identical results, which
// requires the exact same IEEE-754 operation sequence — a fused
// multiply-add in one path but not the other would break it.

namespace vspec
{

namespace simd
{

namespace
{

// ---------------------------------------------------------------------
// Shared constants. Both the portable and the vector implementations
// read these same literals so the operation *inputs* cannot diverge;
// byte-identity then only depends on the operation *sequence*, which
// each backend mirrors statement for statement.
// ---------------------------------------------------------------------

/** exp() argument clamp: keeps 2^n in the normal range (n >= -1021). */
constexpr double expMin = -708.0;
constexpr double expLog2e = 1.4426950408889634074;
/** Cody-Waite split of ln(2) for the two-step range reduction. */
constexpr double expLn2Hi = 6.93147180369123816490e-01;
constexpr double expLn2Lo = 1.90821492927058770002e-10;
/** 1.5 * 2^52: add/subtract rounds to nearest-even integer. */
constexpr double roundMagic = 6755399441055744.0;
/** Bit pattern of roundMagic; subtracting it from bits(x + roundMagic)
 *  yields the rounded integer in two's complement. */
constexpr std::int64_t roundMagicBits = 0x4338000000000000LL;
/** Degree-13 Taylor coefficients of exp(r), Horner order (1/13! first).
 *  |r| <= ln2/2 after reduction, so the truncation error is ~2e-16. */
constexpr double expTaylor[14] = {
    1.0 / 6227020800.0, 1.0 / 479001600.0, 1.0 / 39916800.0,
    1.0 / 3628800.0,    1.0 / 362880.0,    1.0 / 40320.0,
    1.0 / 5040.0,       1.0 / 720.0,       1.0 / 120.0,
    1.0 / 24.0,         1.0 / 6.0,         0.5,
    1.0,                1.0,
};

/** West (2004) double-precision normal CDF: body/tail split point,
 *  underflow cutoff, and the two Horner polynomial coefficient sets. */
constexpr double phiBodyCut = 7.071067811865475;
constexpr double phiZeroCut = 37.0;
constexpr double phiSqrt2Pi = 2.506628274631;
constexpr double phiNum[7] = {
    0.0352624965998911, 0.700383064443688, 6.37396220353165,
    33.912866078383,    112.079291497871,  221.213596169931,
    220.206867912376,
};
constexpr double phiDen[8] = {
    0.0883883476483184, 1.75566716318264, 16.064177579207,
    86.7807322029461,   296.564248779674, 637.333633378831,
    793.826512519948,   440.413735824752,
};

std::int64_t
bitsOf(double x)
{
    std::int64_t out;
    std::memcpy(&out, &x, sizeof(out));
    return out;
}

double
doubleOf(std::int64_t bits)
{
    double out;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
}

// ---------------------------------------------------------------------
// Portable scalar kernels — the reference operation sequence.
// ---------------------------------------------------------------------

/**
 * exp(x) for x in [expMin, ~1]: round-to-nearest n = x/ln2 via the
 * magic-number trick, Cody-Waite reduction, degree-13 Taylor Horner,
 * exact 2^n scaling through the exponent bits. Every vector backend
 * mirrors this statement for statement.
 */
double
expCore(double x)
{
    if (x < expMin)
        x = expMin;
    const double t = x * expLog2e + roundMagic;
    const double n = t - roundMagic;
    const std::int64_t ni = bitsOf(t) - roundMagicBits;
    double r = x - n * expLn2Hi;
    r = r - n * expLn2Lo;
    double p = expTaylor[0];
    for (int k = 1; k < 14; ++k)
        p = p * r + expTaylor[k];
    return p * doubleOf((ni + 1023) << 52);
}

/** West (2004) standard normal CDF built on expCore. */
double
phiWest(double z)
{
    const double zabs = std::fabs(z);
    const double e = expCore((zabs * zabs) * -0.5);
    double p;
    if (zabs < phiBodyCut) {
        double num = phiNum[0];
        for (int k = 1; k < 7; ++k)
            num = num * zabs + phiNum[k];
        double den = phiDen[0];
        for (int k = 1; k < 8; ++k)
            den = den * zabs + phiDen[k];
        p = (e * num) / den;
    } else {
        double b = zabs + 0.65;
        b = zabs + 4.0 / b;
        b = zabs + 3.0 / b;
        b = zabs + 2.0 / b;
        b = zabs + 1.0 / b;
        p = (e / b) / phiSqrt2Pi;
    }
    if (zabs > phiZeroCut)
        p = 0.0;
    return z > 0.0 ? 1.0 - p : p;
}

void
normalCdfBatchPortable(const double *z, std::size_t n, double *out)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = phiWest(z[i]);
}

// ---------------------------------------------------------------------
// AVX2 backend (4 lanes). Compiled via the target attribute so the
// rest of the binary never emits AVX2 instructions; selected at
// runtime only when cpuid reports support.
// ---------------------------------------------------------------------

#if defined(__x86_64__) && !defined(VSPEC_DISABLE_SIMD)

/** Mirrors expCore lane-wise; same clamps, same operation order. */
__attribute__((target("avx2"))) __m256d
expCoreAvx2(__m256d x)
{
    x = _mm256_max_pd(x, _mm256_set1_pd(expMin));
    const __m256d t = _mm256_add_pd(
        _mm256_mul_pd(x, _mm256_set1_pd(expLog2e)),
        _mm256_set1_pd(roundMagic));
    const __m256d n = _mm256_sub_pd(t, _mm256_set1_pd(roundMagic));
    const __m256i ni = _mm256_sub_epi64(_mm256_castpd_si256(t),
                                        _mm256_set1_epi64x(roundMagicBits));
    __m256d r =
        _mm256_sub_pd(x, _mm256_mul_pd(n, _mm256_set1_pd(expLn2Hi)));
    r = _mm256_sub_pd(r, _mm256_mul_pd(n, _mm256_set1_pd(expLn2Lo)));
    __m256d p = _mm256_set1_pd(expTaylor[0]);
    for (int k = 1; k < 14; ++k)
        p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(expTaylor[k]));
    const __m256i scale =
        _mm256_slli_epi64(_mm256_add_epi64(ni, _mm256_set1_epi64x(1023)), 52);
    return _mm256_mul_pd(p, _mm256_castsi256_pd(scale));
}

__attribute__((target("avx2"))) __m256d
phiWestAvx2(__m256d z)
{
    const __m256d signMask = _mm256_set1_pd(-0.0);
    const __m256d zabs = _mm256_andnot_pd(signMask, z);
    const __m256d e = expCoreAvx2(_mm256_mul_pd(
        _mm256_mul_pd(zabs, zabs), _mm256_set1_pd(-0.5)));
    // Body and tail both evaluate on all lanes; the discarded branch may
    // produce inf/NaN in out-of-domain lanes, which the blend drops.
    __m256d num = _mm256_set1_pd(phiNum[0]);
    for (int k = 1; k < 7; ++k)
        num = _mm256_add_pd(_mm256_mul_pd(num, zabs),
                            _mm256_set1_pd(phiNum[k]));
    __m256d den = _mm256_set1_pd(phiDen[0]);
    for (int k = 1; k < 8; ++k)
        den = _mm256_add_pd(_mm256_mul_pd(den, zabs),
                            _mm256_set1_pd(phiDen[k]));
    const __m256d pBody = _mm256_div_pd(_mm256_mul_pd(e, num), den);

    __m256d b = _mm256_add_pd(zabs, _mm256_set1_pd(0.65));
    b = _mm256_add_pd(zabs, _mm256_div_pd(_mm256_set1_pd(4.0), b));
    b = _mm256_add_pd(zabs, _mm256_div_pd(_mm256_set1_pd(3.0), b));
    b = _mm256_add_pd(zabs, _mm256_div_pd(_mm256_set1_pd(2.0), b));
    b = _mm256_add_pd(zabs, _mm256_div_pd(_mm256_set1_pd(1.0), b));
    const __m256d pTail = _mm256_div_pd(_mm256_div_pd(e, b),
                                        _mm256_set1_pd(phiSqrt2Pi));

    const __m256d inBody =
        _mm256_cmp_pd(zabs, _mm256_set1_pd(phiBodyCut), _CMP_LT_OQ);
    __m256d p = _mm256_blendv_pd(pTail, pBody, inBody);
    const __m256d tiny =
        _mm256_cmp_pd(zabs, _mm256_set1_pd(phiZeroCut), _CMP_GT_OQ);
    p = _mm256_andnot_pd(tiny, p);
    const __m256d pos =
        _mm256_cmp_pd(z, _mm256_set1_pd(0.0), _CMP_GT_OQ);
    return _mm256_blendv_pd(
        p, _mm256_sub_pd(_mm256_set1_pd(1.0), p), pos);
}

__attribute__((target("avx2"))) void
normalCdfBatchAvx2(const double *z, std::size_t n, double *out)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(out + i, phiWestAvx2(_mm256_loadu_pd(z + i)));
    for (; i < n; ++i)
        out[i] = phiWest(z[i]);
}

#endif // __x86_64__ && !VSPEC_DISABLE_SIMD

// ---------------------------------------------------------------------
// NEON backend (2 lanes, aarch64 only — baseline there, no dispatch
// probe needed).
// ---------------------------------------------------------------------

#if defined(__aarch64__) && !defined(VSPEC_DISABLE_SIMD)

float64x2_t
expCoreNeon(float64x2_t x)
{
    x = vmaxq_f64(x, vdupq_n_f64(expMin));
    const float64x2_t t = vaddq_f64(vmulq_f64(x, vdupq_n_f64(expLog2e)),
                                    vdupq_n_f64(roundMagic));
    const float64x2_t n = vsubq_f64(t, vdupq_n_f64(roundMagic));
    const int64x2_t ni = vsubq_s64(vreinterpretq_s64_f64(t),
                                   vdupq_n_s64(roundMagicBits));
    float64x2_t r = vsubq_f64(x, vmulq_f64(n, vdupq_n_f64(expLn2Hi)));
    r = vsubq_f64(r, vmulq_f64(n, vdupq_n_f64(expLn2Lo)));
    float64x2_t p = vdupq_n_f64(expTaylor[0]);
    for (int k = 1; k < 14; ++k)
        p = vaddq_f64(vmulq_f64(p, r), vdupq_n_f64(expTaylor[k]));
    const int64x2_t scale =
        vshlq_n_s64(vaddq_s64(ni, vdupq_n_s64(1023)), 52);
    return vmulq_f64(p, vreinterpretq_f64_s64(scale));
}

float64x2_t
phiWestNeon(float64x2_t z)
{
    const float64x2_t zabs = vabsq_f64(z);
    const float64x2_t e = expCoreNeon(
        vmulq_f64(vmulq_f64(zabs, zabs), vdupq_n_f64(-0.5)));
    float64x2_t num = vdupq_n_f64(phiNum[0]);
    for (int k = 1; k < 7; ++k)
        num = vaddq_f64(vmulq_f64(num, zabs), vdupq_n_f64(phiNum[k]));
    float64x2_t den = vdupq_n_f64(phiDen[0]);
    for (int k = 1; k < 8; ++k)
        den = vaddq_f64(vmulq_f64(den, zabs), vdupq_n_f64(phiDen[k]));
    const float64x2_t pBody = vdivq_f64(vmulq_f64(e, num), den);

    float64x2_t b = vaddq_f64(zabs, vdupq_n_f64(0.65));
    b = vaddq_f64(zabs, vdivq_f64(vdupq_n_f64(4.0), b));
    b = vaddq_f64(zabs, vdivq_f64(vdupq_n_f64(3.0), b));
    b = vaddq_f64(zabs, vdivq_f64(vdupq_n_f64(2.0), b));
    b = vaddq_f64(zabs, vdivq_f64(vdupq_n_f64(1.0), b));
    const float64x2_t pTail =
        vdivq_f64(vdivq_f64(e, b), vdupq_n_f64(phiSqrt2Pi));

    const uint64x2_t inBody = vcltq_f64(zabs, vdupq_n_f64(phiBodyCut));
    float64x2_t p = vbslq_f64(inBody, pBody, pTail);
    const uint64x2_t tiny = vcgtq_f64(zabs, vdupq_n_f64(phiZeroCut));
    p = vreinterpretq_f64_u64(
        vbicq_u64(vreinterpretq_u64_f64(p), tiny));
    const uint64x2_t pos = vcgtq_f64(z, vdupq_n_f64(0.0));
    return vbslq_f64(pos, vsubq_f64(vdupq_n_f64(1.0), p), p);
}

void
normalCdfBatchNeon(const double *z, std::size_t n, double *out)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        vst1q_f64(out + i, phiWestNeon(vld1q_f64(z + i)));
    for (; i < n; ++i)
        out[i] = phiWest(z[i]);
}

#endif // __aarch64__ && !VSPEC_DISABLE_SIMD

// ---------------------------------------------------------------------
// Runtime dispatch.
// ---------------------------------------------------------------------

using CdfFn = void (*)(const double *, std::size_t, double *);

struct Backend
{
    const char *name;
    CdfFn cdf;
};

Backend
selectBackend()
{
#if defined(VSPEC_DISABLE_SIMD)
    return {"portable", normalCdfBatchPortable};
#else
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2"))
        return {"avx2", normalCdfBatchAvx2};
#endif
#if defined(__aarch64__)
    return {"neon", normalCdfBatchNeon};
#endif
    return {"portable", normalCdfBatchPortable};
#endif
}

const Backend &
backend()
{
    static const Backend selected = selectBackend();
    return selected;
}

} // namespace

const char *
backendName()
{
    return backend().name;
}

void
normalCdfBatch(const double *z, std::size_t n, double *out)
{
    backend().cdf(z, n, out);
}

namespace portable
{

void
normalCdfBatch(const double *z, std::size_t n, double *out)
{
    normalCdfBatchPortable(z, n, out);
}

} // namespace portable

} // namespace simd

} // namespace vspec
