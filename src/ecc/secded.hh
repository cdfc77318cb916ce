/**
 * @file
 * Single-error-correct, double-error-detect (SECDED) Hamming codec.
 *
 * This is the on-chip ECC logic the paper's mechanism gets its feedback
 * from: cache lines are stored as a sequence of SECDED codewords; every
 * read decodes, silently corrects single-bit upsets (raising a
 * *correctable machine-check event* that the ECC monitors observe), and
 * flags double-bit upsets as uncorrectable (a fatal event that defines
 * the minimum safe voltage).
 *
 * The construction is the classic extended Hamming code: check bits at
 * power-of-two positions plus one overall-parity bit. For 64 data bits
 * this yields a (72, 64) code — 7 Hamming check bits + 1 parity — the
 * same ratio used by commodity ECC SRAM/DRAM. A (39, 32) variant covers
 * narrower structures (e.g. register files). This is the EccScheme::
 * hamming member of the codec zoo (see ecc/codec.hh) and the baseline
 * every other scheme's budget scale is normalized against.
 */

#ifndef VSPEC_ECC_SECDED_HH
#define VSPEC_ECC_SECDED_HH

#include <cstdint>
#include <vector>

#include "ecc/codec.hh"

namespace vspec
{

/**
 * SECDED codec for a configurable data width (up to 64 bits).
 *
 * Encode and decode are word-parallel. The constructor precomputes,
 * over the two 64-bit words of a Codeword:
 *
 *   - one coverage mask per Hamming check bit k: every position in
 *     [1, codewordBits) with bit k set, the check position 2^k itself
 *     included. Syndrome bit k is the popcount parity of word & mask;
 *   - one mask of all positions in [0, codewordBits), whose parity is
 *     the overall-parity check. Bits at or above codewordBits() lie
 *     outside every mask and are ignored;
 *   - the runs of consecutive data positions (the gaps between powers
 *     of two, split at bit 64 so no run straddles the two words). Data
 *     extraction and placement are one shift-and-mask per run — six
 *     for the (72, 64) code.
 *
 * A corrected single error is applied as one XOR on the raw words
 * before extraction.
 */
class SecdedCodec : public EccCodec
{
  public:
    /** Build a codec for the given data width (1..64 bits). */
    explicit SecdedCodec(unsigned data_bits);

    Codeword encode(std::uint64_t data) const override;
    DecodeResult decode(const Codeword &word) const override;

  private:
    /** Consecutive data bits stored at consecutive codeword positions. */
    struct DataRun
    {
        /** Codeword position of the run's first bit. */
        unsigned position;
        /** Data bit stored at that position. */
        unsigned dataBit;
        /** Run length in bits (< 64). */
        unsigned length;

        std::uint64_t fieldMask() const
        {
            return (std::uint64_t(1) << length) - 1;
        }
    };

    /** Coverage mask of Hamming check bit k (position 2^k). */
    std::vector<CodewordMask> checkMasks;
    /** Every position in [0, codewordBits). */
    CodewordMask allPositions{0, 0};
    /** Data runs in ascending position (and data bit) order. */
    std::vector<DataRun> dataRuns;

    unsigned computeSyndrome(std::uint64_t w0, std::uint64_t w1) const;
    std::uint64_t extractData(std::uint64_t w0, std::uint64_t w1) const;
};

/** Shared (72, 64) codec instance for cache data paths. */
const SecdedCodec &secded72();

/** Shared (39, 32) codec instance for register-file-width structures. */
const SecdedCodec &secded39();

} // namespace vspec

#endif // VSPEC_ECC_SECDED_HH
