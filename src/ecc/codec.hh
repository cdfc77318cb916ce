/**
 * @file
 * Pluggable ECC codec interface — the codec zoo.
 *
 * The paper's feedback mechanism only ever sees correctable/uncorrectable
 * event counts, so any code with a well-defined correction radius can
 * drive it. This header defines the common currency (Codeword,
 * EccStatus, DecodeResult), the abstract word-level codec interface
 * every scheme implements, the per-scheme descriptor (check-bit storage
 * overhead, correction radius, decode latency) the speculation and
 * power layers consume, and the shared registry that hands out one
 * immutable codec instance per (scheme, data width).
 *
 * Registered word-level schemes:
 *
 *   hamming  — extended Hamming SECDED (the original (72,64)/(39,32));
 *   hsiao    — odd-weight-column SECDED: same storage, cheaper and
 *              faster check logic (single-level parity trees);
 *   bch2     — extended BCH, corrects 2 / detects 3 bit errors;
 *   bch3     — extended BCH, corrects 3 / detects 4 bit errors.
 *
 * bchLarge512 is the large-codeword (512-byte block) BCH variant from
 * the Ramulator2-style trade-off: one codeword per line instead of one
 * per word, amortizing check bits (2.6% overhead vs SECDED's 12.5%) at
 * the cost of decode latency. It does not fit the per-word cache path
 * and is exposed through its own block API (ecc/bch.hh); the registry
 * only serves its traits.
 */

#ifndef VSPEC_ECC_CODEC_HH
#define VSPEC_ECC_CODEC_HH

#include <array>
#include <bit>
#include <cstdint>
#include <string>

namespace vspec
{

/**
 * A codeword of up to 128 bits, stored little-endian across two 64-bit
 * words. Bit index 0 is the overall-parity position (where the scheme
 * has one). All bit accessors validate the index and fail loudly via
 * panic() on anything >= 128 — a silent wrap here would turn a bad
 * fault-injection index into a corruption of the *wrong* bit. Codecs
 * additionally reject codewords carrying stray bits at or above their
 * own codewordBits() at the snapshot-restore boundary (see
 * CacheArray::loadState).
 */
class Codeword
{
  public:
    Codeword() : words{0, 0} {}

    bool bit(unsigned idx) const;
    void setBit(unsigned idx, bool value);

    /** Invert one bit — the fault-injection hook used by the SRAM model. */
    void flipBit(unsigned idx);

    /** Number of set bits. */
    unsigned popcount() const;

    /**
     * True when no bit at or above @p codeword_bits is set — the
     * validity check for codewords entering from untrusted sources
     * (snapshot restore). Safe for any codeword_bits in [0, 128].
     */
    bool fitsWidth(unsigned codeword_bits) const;

    bool operator==(const Codeword &other) const = default;

    std::uint64_t word(unsigned i) const { return words.at(i); }

    /** Rebuild from the two raw words (snapshot restore). */
    static Codeword fromWords(std::uint64_t w0, std::uint64_t w1)
    {
        Codeword cw;
        cw.words = {w0, w1};
        return cw;
    }

  private:
    std::array<std::uint64_t, 2> words;
};

/**
 * A set of codeword positions as two little-endian 64-bit words, laid
 * out like Codeword's storage: the word-parallel codecs select bits
 * with it and take the popcount parity of the result.
 */
using CodewordMask = std::array<std::uint64_t, 2>;

/** Parity (0 or 1) of the bits of (w0, w1) selected by @p mask. */
inline unsigned
maskedParity(std::uint64_t w0, std::uint64_t w1, const CodewordMask &mask)
{
    return unsigned(std::popcount((w0 & mask[0]) ^ (w1 & mask[1])) & 1);
}

/** Outcome of decoding one codeword. */
enum class EccStatus
{
    /** Codeword clean; data returned as stored. */
    ok,
    /**
     * Error within the codec's correction radius corrected; a
     * correctable machine-check event fires. (Named for the SECDED
     * case; multi-bit codecs report any 1..t-bit correction here.)
     */
    correctedSingle,
    /** Beyond the correction radius; data is not trustworthy. */
    uncorrectable,
};

/** Decode result: status, recovered data, and the corrected position. */
struct DecodeResult
{
    EccStatus status = EccStatus::ok;
    std::uint64_t data = 0;
    /** Lowest codeword bit corrected (valid iff correctedSingle). */
    unsigned correctedBit = 0;
    /** Number of bits corrected (valid iff correctedSingle). */
    unsigned correctedCount = 0;
};

/** Identifier of one protection scheme (the fleet's "tier"). */
enum class EccScheme : std::uint8_t
{
    hamming = 0,
    hsiao = 1,
    bch2 = 2,
    bch3 = 3,
    bchLarge512 = 4,
};

/**
 * Static descriptor of one codec instance: shape, correction strength
 * and modeled hardware cost. This is what the speculation controllers
 * (tolerated-correctable budget), the power model (check-cell leakage)
 * and the fleet throughput accounting consume — they never need the
 * encode/decode machinery itself.
 */
struct CodecTraits
{
    EccScheme scheme = EccScheme::hamming;
    /** Stable short name ("hamming", "hsiao", "bch2", ...). */
    const char *name = "";
    unsigned dataBits = 0;
    /** Check bits per codeword, including any overall-parity bit. */
    unsigned checkBits = 0;
    unsigned codewordBits = 0;
    /** Correction radius t: every <= t-bit error corrects. */
    unsigned correctableBits = 0;
    /** Detection radius: every <= (t+1)-bit error at least detected. */
    unsigned detectableBits = 0;
    /**
     * Modeled decode latency in cycles (Hsiao's single-level parity
     * trees beat Hamming's two-step syndrome+parity resolve; iterative
     * BCH decoding costs more). Feeds the fleet's service-time
     * accounting relative to the Hamming baseline.
     */
    unsigned decodeLatencyCycles = 0;

    /** Check-bit storage overhead (check cells per data cell). */
    double storageOverhead() const
    {
        return double(checkBits) / double(dataBits);
    }
};

/**
 * Abstract word-level ECC codec (data widths up to 64 bits). Instances
 * are immutable after construction; encode/decode are const and
 * thread-safe, so one shared instance per (scheme, width) serves every
 * cache array in the process.
 */
class EccCodec
{
  public:
    virtual ~EccCodec() = default;

    /** Encode a data word into a codeword. */
    virtual Codeword encode(std::uint64_t data) const = 0;

    /** Decode a (possibly corrupted) codeword. */
    virtual DecodeResult decode(const Codeword &word) const = 0;

    const CodecTraits &traits() const { return traits_; }

    /** Number of data bits per codeword. */
    unsigned dataBits() const { return traits_.dataBits; }
    /** Number of check bits, including any overall parity bit. */
    unsigned checkBits() const { return traits_.checkBits; }
    /** Total codeword length in bits. */
    unsigned codewordBits() const { return traits_.codewordBits; }
    /** Correction radius t. */
    unsigned correctableBits() const { return traits_.correctableBits; }

  protected:
    /** Filled in by the derived codec's constructor. */
    CodecTraits traits_{};
};

/**
 * Shared registry: the immutable codec instance for (scheme, width).
 * Builds the instance on first request (thread-safe — chips are
 * constructed concurrently on pool workers) and returns the same
 * reference forever after. fatal()s for bchLarge512, which has no
 * word-level form — use bchLarge512() from ecc/bch.hh.
 */
const EccCodec &wordCodec(EccScheme scheme, unsigned data_bits);

/**
 * Descriptor for any scheme, including bchLarge512 (whose data_bits
 * argument is ignored: the block shape is fixed at 4096 data bits).
 */
CodecTraits codecTraits(EccScheme scheme, unsigned data_bits);

/** Stable short name of a scheme. */
const char *schemeName(EccScheme scheme);

/** Inverse of schemeName(); fatal() on an unknown name. */
EccScheme schemeFromName(const std::string &name);

/**
 * Codec-strength -> tolerated-correctable-budget translation (the
 * codec-aware speculation floor).
 *
 * The controller keeps the monitored line's correctable rate inside
 * [floor, ceiling]. What actually bounds speculation depth is the
 * *uncorrectable* rate: a word with per-bit flip probability p raises
 * an uncorrectable only when more than t bits flip together, so a
 * stronger code tolerates a far higher correctable rate at the same
 * uncorrectable budget u:
 *
 *   P(> t flips among n bits) ~ C(n, t+1) (p_bit)^(t+1)  <= u
 *   => tolerated per-word rate ~ n * (u / C(n, t+1))^(1/(t+1))
 *
 * The returned scale is that tolerated rate normalized to the Hamming
 * SECDED baseline of the same data width — exactly 1.0 for Hamming and
 * Hsiao (t=1, same codeword length), ~40x for BCH-2, ~280x for BCH-3.
 * Controllers multiply their rate bands by it (clamped; see
 * harness::armHardware), which is what earns the deeper Vdd floors.
 */
double correctableBudgetScale(const CodecTraits &traits,
                              double target_uncorrectable = 1e-9);

} // namespace vspec

#endif // VSPEC_ECC_CODEC_HH
