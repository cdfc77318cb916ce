/**
 * @file
 * Extended (parity-augmented) binary BCH codecs.
 *
 * Two flavours share one engine:
 *
 *  - BchWordCodec: word-level t=2 or t=3 codes over GF(2^7) for the
 *    per-word cache path (64 data bits -> (79, 64) for t=2 and
 *    (86, 64) for t=3; 32-bit variants for register-file widths).
 *    These are the bch2/bch3 members of the codec zoo: much higher
 *    check-bit overhead than SECDED and a slower iterative decode, but
 *    a correction radius that lets the speculation controller tolerate
 *    orders of magnitude more correctable events at the same
 *    uncorrectable budget — the deep-floor tiers.
 *
 *  - BchBlockCodec: the large-codeword trade-off — one t=8 code over
 *    GF(2^13) protecting an entire 512-byte block (4096 data bits, 105
 *    check bits, 2.56% overhead vs SECDED's 12.5%). It does not fit
 *    the 128-bit per-word Codeword path, so it exposes its own
 *    block-level API and participates in the zoo through its traits
 *    and the enumerator tests only.
 *
 * Construction: classic systematic BCH (generator = product of minimal
 * polynomials of alpha^1..alpha^(2t-1) over the odd cyclotomic cosets;
 * LFSR remainder encode) plus one overall-parity bit extending the
 * design distance from 2t+1 to 2t+2. Decode computes the 2t power-sum
 * syndromes, runs Berlekamp–Massey for the error locator, Chien-checks
 * that the locator fully splits inside the (shortened) codeword, and
 * arbitrates the parity bit — together these guarantee that any
 * (t+1)-bit error is flagged uncorrectable rather than miscorrected,
 * the property the enumerator suite proves exhaustively.
 */

#ifndef VSPEC_ECC_BCH_HH
#define VSPEC_ECC_BCH_HH

#include <cstdint>
#include <vector>

#include "ecc/codec.hh"

namespace vspec
{
namespace bchdetail
{

/** GF(2^m) arithmetic via log/antilog tables (m <= 13 here). */
class GaloisField
{
  public:
    GaloisField(unsigned m, unsigned primitive_poly);

    unsigned order() const { return n; }

    unsigned mul(unsigned a, unsigned b) const
    {
        if (a == 0 || b == 0)
            return 0;
        return expTab[(logTab[a] + logTab[b]) % n];
    }

    unsigned inv(unsigned a) const;

    /** alpha^e for any e >= 0. */
    unsigned alphaPow(unsigned e) const { return expTab[e % n]; }

  private:
    unsigned m;
    unsigned n;  // 2^m - 1
    std::vector<unsigned> expTab;
    std::vector<unsigned> logTab;
};

/**
 * Shared BCH machinery over a bit-vector codeword polynomial: build
 * the generator, systematic-encode, and locate errors. Positions are
 * polynomial coefficient indices 0..nShort-1 (0 = lowest parity bit;
 * data occupies degG..degG+k-1).
 */
class BchEngine
{
  public:
    BchEngine(unsigned m, unsigned primitive_poly, unsigned t,
              unsigned data_bits);

    unsigned degG() const { return unsigned(gen.size() - 1); }
    unsigned shortLength() const { return nShort; }
    unsigned radius() const { return t; }

    /** Systematic encode: bits[0..degG-1] = remainder, then data. */
    void encode(const std::vector<std::uint8_t> &data_bits,
                std::vector<std::uint8_t> &codeword) const;

    struct Location
    {
        bool correctable = false;       // Locator found and verified.
        std::vector<unsigned> positions;  // Error positions (<= t).
    };

    /**
     * Syndrome + Berlekamp–Massey + Chien over the received codeword
     * bits. correctable=false means > t errors were detected (locator
     * degree too high or not fully splitting inside the codeword).
     */
    Location locate(const std::vector<std::uint8_t> &received) const;

  private:
    GaloisField field;
    unsigned t;
    unsigned k;
    unsigned nShort;
    std::vector<std::uint8_t> gen;  // g(x) coefficients, GF(2).
};

} // namespace bchdetail

/**
 * Word-level extended BCH codec (t = 2 or 3, data width 1..64 bits)
 * over GF(2^7). Codeword layout: bit 0 = overall parity, BCH
 * polynomial coefficient p at codeword bit p + 1.
 */
class BchWordCodec : public EccCodec
{
  public:
    BchWordCodec(unsigned t, unsigned data_bits);

    Codeword encode(std::uint64_t data) const override;
    DecodeResult decode(const Codeword &word) const override;

  private:
    bchdetail::BchEngine engine;
};

/** Shared (79, 64) t=2 codec instance. */
const BchWordCodec &bch2_64();

/** Shared (86, 64) t=3 codec instance. */
const BchWordCodec &bch3_64();

/**
 * Large-codeword extended BCH over GF(2^13): one codeword per 512-byte
 * block (4096 data bits, t=8, 105 check bits including parity, 4201
 * bits total). Block-level API: data is 64 little-endian words; the
 * codeword is a little-endian bit vector packed into 66 words.
 */
class BchBlockCodec
{
  public:
    BchBlockCodec();

    const CodecTraits &traits() const { return blockTraits; }
    unsigned dataBits() const { return blockTraits.dataBits; }
    unsigned codewordBits() const { return blockTraits.codewordBits; }
    unsigned correctableBits() const { return blockTraits.correctableBits; }

    /** Words the packed codeword occupies. */
    unsigned codewordWords() const
    {
        return (blockTraits.codewordBits + 63) / 64;
    }

    struct BlockDecodeResult
    {
        EccStatus status = EccStatus::ok;
        std::vector<std::uint64_t> data;  // 64 words.
        unsigned correctedCount = 0;
    };

    /** Encode 64 data words into a packed codeword bit vector. */
    std::vector<std::uint64_t>
    encode(const std::vector<std::uint64_t> &data) const;

    BlockDecodeResult decode(const std::vector<std::uint64_t> &cw) const;

    /** Flip one bit of a packed codeword (fault injection in tests). */
    static void flipPackedBit(std::vector<std::uint64_t> &cw, unsigned idx);

  private:
    bchdetail::BchEngine engine;
    CodecTraits blockTraits;
};

/** Shared 512-byte-block codec instance. */
const BchBlockCodec &bchLarge512();

} // namespace vspec

#endif // VSPEC_ECC_BCH_HH
