/**
 * @file
 * Combinatorial error-pattern correctness sweep over the codec zoo —
 * the smoke tier (CTest label codec_enum_smoke).
 *
 * The decode path is the speculation controller's only feedback
 * channel, so its contract is proven pattern-by-pattern rather than
 * statistically: for every registered word codec this suite injects
 * EVERY single-bit pattern (and for the SECDED codecs every double-bit
 * pattern) and asserts the trichotomy
 *
 *   k <= t   -> correctedSingle with the original data restored,
 *   k == t+1 -> uncorrectable,
 *   never    -> a miscorrection (wrong data, or a beyond-radius
 *               pattern reported ok/corrected).
 *
 * BCH multi-bit patterns beyond the exhaustive-singles pass are
 * uniformly sampled here; the full exhaustive BCH sweep lives in
 * codec_enum_long_test.cc under the "long" label.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "ecc/bch.hh"
#include "ecc/codec.hh"
#include "ecc/enumerate.hh"

namespace vspec
{
namespace
{

/** Data words exercising all-zero, all-one and mixed check equations. */
std::vector<std::uint64_t>
probeWords(unsigned data_bits, unsigned extra_random)
{
    const std::uint64_t mask = data_bits >= 64
                                   ? ~std::uint64_t(0)
                                   : (std::uint64_t(1) << data_bits) - 1;
    std::vector<std::uint64_t> words = {
        0,
        mask,
        0xAAAAAAAAAAAAAAAAULL & mask,
        0x0123456789ABCDEFULL & mask,
    };
    Rng rng(0xC0DEC + data_bits);
    for (unsigned i = 0; i < extra_random; ++i)
        words.push_back(rng.next() & mask);
    return words;
}

/**
 * Inject one k-bit pattern into encode(data) and check the decode
 * contract. Patterns within the correction radius must restore the
 * exact data word and report the exact flip count; anything at
 * radius + 1 must come back uncorrectable — reporting ok or corrected
 * there IS the miscorrection this suite exists to rule out.
 */
void
checkPattern(const EccCodec &codec, std::uint64_t data,
             const std::vector<unsigned> &pattern)
{
    Codeword cw = codec.encode(data);
    for (unsigned pos : pattern)
        cw.flipBit(pos);
    const DecodeResult out = codec.decode(cw);
    const unsigned k = unsigned(pattern.size());
    if (k == 0) {
        ASSERT_EQ(out.status, EccStatus::ok);
        ASSERT_EQ(out.data, data);
    } else if (k <= codec.correctableBits()) {
        ASSERT_EQ(out.status, EccStatus::correctedSingle)
            << codec.traits().name << " failed to correct a " << k
            << "-bit pattern starting at bit " << pattern[0];
        ASSERT_EQ(out.data, data)
            << codec.traits().name << " miscorrected a " << k
            << "-bit pattern starting at bit " << pattern[0];
        ASSERT_EQ(out.correctedCount, k);
    } else {
        ASSERT_EQ(out.status, EccStatus::uncorrectable)
            << codec.traits().name << " miscorrected a " << k
            << "-bit pattern starting at bit " << pattern[0];
    }
}

/** Exhaustive sweep of every k-subset of codeword bit positions. */
void
sweepExhaustive(const EccCodec &codec, unsigned k, std::uint64_t data)
{
    enumerate::forEachCombination(
        codec.codewordBits(), k,
        [&](const std::vector<unsigned> &pattern) {
            checkPattern(codec, data, pattern);
        });
}

/** Uniformly sampled k-subsets (for shapes where C(n, k) is large). */
void
sweepSampled(const EccCodec &codec, unsigned k, unsigned samples,
             std::uint64_t seed)
{
    Rng rng(seed);
    const std::uint64_t mask =
        codec.dataBits() >= 64
            ? ~std::uint64_t(0)
            : (std::uint64_t(1) << codec.dataBits()) - 1;
    for (unsigned i = 0; i < samples; ++i) {
        const std::uint64_t data = rng.next() & mask;
        const auto pattern =
            enumerate::sampleCombination(rng, codec.codewordBits(), k);
        checkPattern(codec, data, pattern);
    }
}

const EccScheme wordSchemes[] = {EccScheme::hamming, EccScheme::hsiao,
                                 EccScheme::bch2, EccScheme::bch3};

TEST(CodecEnum, CleanRoundTripEveryCodec)
{
    for (EccScheme scheme : wordSchemes) {
        for (unsigned width : {32u, 64u}) {
            const EccCodec &codec = wordCodec(scheme, width);
            for (std::uint64_t data : probeWords(width, 16))
                checkPattern(codec, data, {});
        }
    }
}

TEST(CodecEnum, AllSingleBitPatternsEveryCodec)
{
    for (EccScheme scheme : wordSchemes) {
        for (unsigned width : {32u, 64u}) {
            const EccCodec &codec = wordCodec(scheme, width);
            for (std::uint64_t data : probeWords(width, 4))
                sweepExhaustive(codec, 1, data);
        }
    }
}

/**
 * SECDED exhaustive doubles: C(72, 2) = 2556 patterns per data word;
 * every one must be flagged, never absorbed or miscorrected.
 */
TEST(CodecEnum, SecdedAllDoubleBitPatterns)
{
    for (EccScheme scheme : {EccScheme::hamming, EccScheme::hsiao}) {
        for (unsigned width : {32u, 64u}) {
            const EccCodec &codec = wordCodec(scheme, width);
            for (std::uint64_t data : probeWords(width, 2))
                sweepExhaustive(codec, 2, data);
        }
    }
}

/**
 * BCH word codecs, sampled within and one past the radius. The
 * radius+1 pass is the miscorrection trap: a (t+1)-bit pattern can
 * fool Berlekamp–Massey into a plausible degree-t locator, and only
 * the extended-parity arbitration refuses it.
 */
TEST(CodecEnum, BchSampledPatternsToRadiusPlusOne)
{
    for (EccScheme scheme : {EccScheme::bch2, EccScheme::bch3}) {
        for (unsigned width : {32u, 64u}) {
            const EccCodec &codec = wordCodec(scheme, width);
            for (unsigned k = 2; k <= codec.correctableBits() + 1; ++k)
                sweepSampled(codec, k, 400,
                             0xB0C4 + k * 131 + width +
                                 unsigned(scheme) * 7);
        }
    }
}

TEST(CodecEnum, BlockCodecCleanRoundTrip)
{
    const BchBlockCodec &codec = bchLarge512();
    Rng rng(0x51238);
    std::vector<std::uint64_t> data(codec.dataBits() / 64);
    for (auto &w : data)
        w = rng.next();
    const auto cw = codec.encode(data);
    ASSERT_EQ(cw.size(), codec.codewordWords());
    const auto out = codec.decode(cw);
    ASSERT_EQ(out.status, EccStatus::ok);
    ASSERT_EQ(out.data, data);
}

TEST(CodecEnum, BlockCodecSampledPatternsToRadiusPlusOne)
{
    const BchBlockCodec &codec = bchLarge512();
    Rng rng(0x51239);
    std::vector<std::uint64_t> data(codec.dataBits() / 64);
    for (auto &w : data)
        w = rng.next();
    const auto clean = codec.encode(data);
    for (unsigned k = 1; k <= codec.correctableBits() + 1; ++k) {
        for (unsigned trial = 0; trial < 6; ++trial) {
            auto cw = clean;
            for (unsigned pos : enumerate::sampleCombination(
                     rng, codec.codewordBits(), k))
                BchBlockCodec::flipPackedBit(cw, pos);
            const auto out = codec.decode(cw);
            if (k <= codec.correctableBits()) {
                ASSERT_EQ(out.status, EccStatus::correctedSingle)
                    << k << "-bit block pattern, trial " << trial;
                ASSERT_EQ(out.data, data);
                ASSERT_EQ(out.correctedCount, k);
            } else {
                ASSERT_EQ(out.status, EccStatus::uncorrectable)
                    << k << "-bit block pattern, trial " << trial;
            }
        }
    }
}

/**
 * Bit-serial reference for the two SECDED codecs: the position-by-
 * position encode/decode the word-parallel codecs replaced, kept here
 * verbatim so the equivalence test below pins every DecodeResult field
 * against it.
 */
class BitSerialSecded
{
  public:
    BitSerialSecded(EccScheme scheme, unsigned data_bits)
        : hsiao(scheme == EccScheme::hsiao), dataBits(data_bits)
    {
        if (hsiao)
            buildHsiao();
        else
            buildHamming();
    }

    unsigned codewordBits() const { return cwBits; }

    Codeword encode(std::uint64_t data) const
    {
        return hsiao ? encodeHsiao(data) : encodeHamming(data);
    }

    DecodeResult decode(const Codeword &word) const
    {
        return hsiao ? decodeHsiao(word) : decodeHamming(word);
    }

  private:
    bool hsiao;
    unsigned dataBits;
    unsigned cwBits = 0;
    // Hamming: 1-based positions of data and check bits.
    std::vector<unsigned> dataPositions;
    std::vector<unsigned> checkPositions;
    // Hsiao: r check bits at 0..r-1, data column i at position r+i.
    unsigned numCheck = 0;
    std::vector<unsigned> columns;
    std::vector<unsigned> columnToPosition;

    static bool isPowerOfTwo(unsigned x)
    {
        return x != 0 && (x & (x - 1)) == 0;
    }

    void buildHamming()
    {
        unsigned r = 0;
        while ((1u << r) < dataBits + r + 1)
            ++r;
        const unsigned hamming_len = dataBits + r;
        cwBits = hamming_len + 1;
        for (unsigned pos = 1; pos <= hamming_len; ++pos) {
            if (isPowerOfTwo(pos))
                checkPositions.push_back(pos);
            else
                dataPositions.push_back(pos);
        }
    }

    Codeword encodeHamming(std::uint64_t data) const
    {
        Codeword word;
        for (unsigned i = 0; i < dataBits; ++i)
            word.setBit(dataPositions[i], (data >> i) & 1);
        for (unsigned check : checkPositions) {
            bool parity = false;
            for (unsigned pos = 1; pos < cwBits; ++pos) {
                if ((pos & check) && !isPowerOfTwo(pos))
                    parity ^= word.bit(pos);
            }
            word.setBit(check, parity);
        }
        bool overall = false;
        for (unsigned pos = 1; pos < cwBits; ++pos)
            overall ^= word.bit(pos);
        word.setBit(0, overall);
        return word;
    }

    std::uint64_t extractHamming(const Codeword &word) const
    {
        std::uint64_t data = 0;
        for (unsigned i = 0; i < dataBits; ++i) {
            if (word.bit(dataPositions[i]))
                data |= std::uint64_t(1) << i;
        }
        return data;
    }

    DecodeResult decodeHamming(const Codeword &word) const
    {
        unsigned syndrome = 0;
        for (unsigned check : checkPositions) {
            bool parity = false;
            for (unsigned pos = 1; pos < cwBits; ++pos) {
                if (pos & check)
                    parity ^= word.bit(pos);
            }
            if (parity)
                syndrome |= check;
        }
        bool overall = false;
        for (unsigned pos = 0; pos < cwBits; ++pos)
            overall ^= word.bit(pos);

        DecodeResult result;
        if (syndrome == 0 && !overall) {
            result.status = EccStatus::ok;
            result.data = extractHamming(word);
        } else if (syndrome == 0) {
            result.status = EccStatus::correctedSingle;
            result.correctedBit = 0;
            result.correctedCount = 1;
            result.data = extractHamming(word);
        } else if (overall && syndrome < cwBits) {
            Codeword fixed = word;
            fixed.flipBit(syndrome);
            result.status = EccStatus::correctedSingle;
            result.correctedBit = syndrome;
            result.correctedCount = 1;
            result.data = extractHamming(fixed);
        } else {
            result.status = EccStatus::uncorrectable;
            result.data = extractHamming(word);
        }
        return result;
    }

    void buildHsiao()
    {
        auto odd_columns = [](unsigned r) {
            unsigned count = 0;
            for (unsigned v = 0; v < (1u << r); ++v) {
                const unsigned w = unsigned(std::popcount(v));
                if (w >= 3 && (w & 1))
                    ++count;
            }
            return count;
        };
        unsigned r = 3;
        while (odd_columns(r) < dataBits)
            ++r;
        numCheck = r;
        cwBits = r + dataBits;
        for (unsigned w = 3; w <= r && columns.size() < dataBits; w += 2) {
            for (unsigned v = 0; v < (1u << r) && columns.size() < dataBits;
                 ++v) {
                if (unsigned(std::popcount(v)) == w)
                    columns.push_back(v);
            }
        }
        columnToPosition.assign(1u << r, 0);
        for (unsigned j = 0; j < r; ++j)
            columnToPosition[1u << j] = j + 1;
        for (unsigned i = 0; i < dataBits; ++i)
            columnToPosition[columns[i]] = r + i + 1;
    }

    Codeword encodeHsiao(std::uint64_t data) const
    {
        Codeword word;
        for (unsigned i = 0; i < dataBits; ++i)
            word.setBit(numCheck + i, (data >> i) & 1);
        for (unsigned j = 0; j < numCheck; ++j) {
            bool parity = false;
            for (unsigned i = 0; i < dataBits; ++i) {
                if ((columns[i] >> j) & 1)
                    parity ^= word.bit(numCheck + i);
            }
            word.setBit(j, parity);
        }
        return word;
    }

    std::uint64_t extractHsiao(const Codeword &word) const
    {
        std::uint64_t data = 0;
        for (unsigned i = 0; i < dataBits; ++i) {
            if (word.bit(numCheck + i))
                data |= std::uint64_t(1) << i;
        }
        return data;
    }

    DecodeResult decodeHsiao(const Codeword &word) const
    {
        unsigned syndrome = 0;
        for (unsigned j = 0; j < numCheck; ++j) {
            if (word.bit(j))
                syndrome ^= 1u << j;
        }
        for (unsigned i = 0; i < dataBits; ++i) {
            if (word.bit(numCheck + i))
                syndrome ^= columns[i];
        }

        DecodeResult result;
        if (syndrome == 0) {
            result.status = EccStatus::ok;
            result.data = extractHsiao(word);
            return result;
        }
        const unsigned pos_plus_one = columnToPosition[syndrome];
        if ((std::popcount(syndrome) & 1) && pos_plus_one != 0) {
            Codeword fixed = word;
            fixed.flipBit(pos_plus_one - 1);
            result.status = EccStatus::correctedSingle;
            result.correctedBit = pos_plus_one - 1;
            result.correctedCount = 1;
            result.data = extractHsiao(fixed);
            return result;
        }
        result.status = EccStatus::uncorrectable;
        result.data = extractHsiao(word);
        return result;
    }
};

/** Decode @p cw with both implementations; every field must match. */
void
expectSameDecode(const EccCodec &codec, const BitSerialSecded &ref,
                 const Codeword &cw)
{
    const DecodeResult got = codec.decode(cw);
    const DecodeResult want = ref.decode(cw);
    ASSERT_EQ(got.status, want.status)
        << codec.traits().name << "/" << codec.dataBits() << " word "
        << std::hex << cw.word(1) << ":" << cw.word(0);
    ASSERT_EQ(got.data, want.data)
        << codec.traits().name << "/" << codec.dataBits() << " word "
        << std::hex << cw.word(1) << ":" << cw.word(0);
    ASSERT_EQ(got.correctedBit, want.correctedBit)
        << codec.traits().name << "/" << codec.dataBits();
    ASSERT_EQ(got.correctedCount, want.correctedCount)
        << codec.traits().name << "/" << codec.dataBits();
}

/** Random bits at or above @p cw_bits only (the ignored region). */
Codeword
junkAbove(Rng &rng, unsigned cw_bits)
{
    std::uint64_t w0 = rng.next(), w1 = rng.next();
    if (cw_bits >= 64) {
        w0 = 0;
        w1 &= ~std::uint64_t(0) << (cw_bits - 64);
    } else {
        w0 &= ~std::uint64_t(0) << cw_bits;
    }
    // Never all-clear: the junk must actually be there.
    w1 |= std::uint64_t(1) << 63;
    return Codeword::fromWords(w0, w1);
}

/**
 * The word-parallel SECDED codecs (mask/popcount syndromes, run-based
 * data extraction) against the bit-serial reference: identical
 * codewords from encode, and identical status, data, correctedBit and
 * correctedCount from decode for every 0-, 1- and 2-bit flip pattern,
 * a seeded sample of 3-bit patterns, data words carrying bits above
 * the data width, and codewords with junk at or above codewordBits.
 */
TEST(CodecEnum, WordParallelSecdedMatchesBitSerialReference)
{
    for (EccScheme scheme : {EccScheme::hamming, EccScheme::hsiao}) {
        for (unsigned width : {32u, 64u}) {
            const EccCodec &codec = wordCodec(scheme, width);
            const BitSerialSecded ref(scheme, width);
            ASSERT_EQ(codec.codewordBits(), ref.codewordBits());
            const unsigned n = codec.codewordBits();
            Rng rng(0x5EC0DE + width + unsigned(scheme) * 1009);

            // Encode ignores data bits above the width, like the
            // reference.
            for (unsigned i = 0; i < 64; ++i) {
                const std::uint64_t raw = rng.next();
                ASSERT_EQ(codec.encode(raw), ref.encode(raw))
                    << schemeName(scheme) << "/" << width;
            }

            const auto words = probeWords(width, 4);
            ASSERT_GE(words.size(), 8u);
            for (std::uint64_t data : words) {
                const Codeword clean = codec.encode(data);
                ASSERT_EQ(clean, ref.encode(data))
                    << schemeName(scheme) << "/" << width;
                auto check = [&](const std::vector<unsigned> &pattern) {
                    if (HasFatalFailure())
                        return;
                    Codeword cw = clean;
                    for (unsigned pos : pattern)
                        cw.flipBit(pos);
                    expectSameDecode(codec, ref, cw);
                    const Codeword junk = junkAbove(rng, n);
                    expectSameDecode(
                        codec, ref,
                        Codeword::fromWords(cw.word(0) | junk.word(0),
                                            cw.word(1) | junk.word(1)));
                };
                for (unsigned k = 0; k <= 2; ++k)
                    enumerate::forEachCombination(n, k, check);
                for (unsigned i = 0; i < 400; ++i)
                    check(enumerate::sampleCombination(rng, n, 3));
                if (HasFatalFailure())
                    return;
            }
        }
    }
}

/** The registry serves one shared instance per (scheme, width). */
TEST(CodecEnum, RegistrySharesInstances)
{
    for (EccScheme scheme : wordSchemes) {
        const EccCodec &a = wordCodec(scheme, 64);
        const EccCodec &b = wordCodec(scheme, 64);
        EXPECT_EQ(&a, &b);
        EXPECT_EQ(a.traits().scheme, scheme);
        EXPECT_EQ(a.dataBits(), 64u);
    }
}

TEST(CodecEnum, SchemeNamesRoundTrip)
{
    for (EccScheme scheme :
         {EccScheme::hamming, EccScheme::hsiao, EccScheme::bch2,
          EccScheme::bch3, EccScheme::bchLarge512}) {
        EXPECT_EQ(schemeFromName(schemeName(scheme)), scheme);
    }
    EXPECT_STREQ(schemeName(EccScheme::hamming), "hamming");
    EXPECT_STREQ(schemeName(EccScheme::bch2), "bch2");
}

TEST(CodecEnum, TraitsShapes)
{
    const CodecTraits h = codecTraits(EccScheme::hamming, 64);
    EXPECT_EQ(h.codewordBits, 72u);
    EXPECT_EQ(h.checkBits, 8u);
    const CodecTraits hs = codecTraits(EccScheme::hsiao, 64);
    EXPECT_EQ(hs.codewordBits, 72u);
    EXPECT_EQ(hs.checkBits, 8u);
    EXPECT_LT(hs.decodeLatencyCycles, h.decodeLatencyCycles);
    const CodecTraits b2 = codecTraits(EccScheme::bch2, 64);
    EXPECT_EQ(b2.codewordBits, 79u);
    EXPECT_EQ(b2.correctableBits, 2u);
    const CodecTraits b3 = codecTraits(EccScheme::bch3, 64);
    EXPECT_EQ(b3.codewordBits, 86u);
    EXPECT_EQ(b3.correctableBits, 3u);
    const CodecTraits blk = codecTraits(EccScheme::bchLarge512, 64);
    EXPECT_EQ(blk.dataBits, 4096u);
    EXPECT_EQ(blk.correctableBits, 8u);
    // The large codeword amortizes check bits below SECDED's 12.5%.
    EXPECT_LT(blk.storageOverhead(), 0.03);
    EXPECT_NEAR(h.storageOverhead(), 0.125, 1e-12);
}

/**
 * The codec-strength -> budget translation the controllers consume:
 * exactly 1.0 on both SECDED variants (identical radius and length),
 * strictly ordered with correction strength beyond them.
 */
TEST(CodecEnum, CorrectableBudgetScaleOrdering)
{
    const double hamming =
        correctableBudgetScale(codecTraits(EccScheme::hamming, 64));
    const double hsiao =
        correctableBudgetScale(codecTraits(EccScheme::hsiao, 64));
    const double bch2 =
        correctableBudgetScale(codecTraits(EccScheme::bch2, 64));
    const double bch3 =
        correctableBudgetScale(codecTraits(EccScheme::bch3, 64));
    EXPECT_EQ(hamming, 1.0);
    EXPECT_EQ(hsiao, 1.0);
    EXPECT_GT(bch2, 10.0);
    EXPECT_GT(bch3, bch2);
}

} // namespace
} // namespace vspec
