/**
 * @file
 * Hsiao odd-weight-column SECDED codec.
 *
 * Hsiao's 1970 construction achieves the same (72, 64)/(39, 32) shapes
 * as the extended Hamming code with a parity-check matrix whose columns
 * all have odd weight: r unit columns for the check bits plus distinct
 * weight-3 (and, when those run out, weight-5) columns for the data
 * bits. Odd columns make every double-error syndrome even-weight —
 * instantly distinguishable from any single-error syndrome without a
 * separate overall-parity resolve step — and the minimal total column
 * weight yields the shallowest parity trees of any SECDED code. Same
 * storage overhead as Hamming, modeled here as one decode cycle instead
 * of two; the speculation budget scale is exactly 1.0 (same t, same
 * codeword length), making hsiao the "cheaper check logic, identical
 * protection" point of the zoo.
 */

#ifndef VSPEC_ECC_HSIAO_HH
#define VSPEC_ECC_HSIAO_HH

#include <cstdint>
#include <vector>

#include "ecc/codec.hh"

namespace vspec
{

/**
 * Hsiao SECDED codec for a configurable data width (1..64 bits).
 *
 * Codeword layout: check bit j at position j (0..r-1, unit column
 * 1<<j), data bit i at position r+i (odd-weight column). There is no
 * dedicated overall-parity position; double-error detection comes from
 * the odd-column property.
 *
 * Encode and decode are word-parallel. The constructor turns each row
 * of the parity-check matrix into a two-word codeword mask (check bit
 * j's unit column plus every data position whose column has bit j
 * set); syndrome bit j is the popcount parity of word & mask. Positions
 * at or above codewordBits() lie outside every mask and the data mask,
 * so stray bits there are ignored. The data field is contiguous, so
 * extraction is one funnel shift of the two words right by r.
 */
class HsiaoCodec : public EccCodec
{
  public:
    /** Build a codec for the given data width (1..64 bits). */
    explicit HsiaoCodec(unsigned data_bits);

    Codeword encode(std::uint64_t data) const override;
    DecodeResult decode(const Codeword &word) const override;

  private:
    unsigned numCheck;  // r: check bits = codeword positions 0..r-1.
    /** Syndrome value -> codeword position + 1 (0 = no such column). */
    std::vector<unsigned> columnToPosition;
    /** Row j of the parity-check matrix as a codeword mask. */
    std::vector<CodewordMask> syndromeMasks;
    /** Low dataBits() bits set. */
    std::uint64_t dataMask = 0;

    unsigned computeSyndrome(std::uint64_t w0, std::uint64_t w1) const;
    std::uint64_t extractData(std::uint64_t w0, std::uint64_t w1) const;
};

/** Shared (72, 64) Hsiao codec instance. */
const HsiaoCodec &hsiao72();

/** Shared (39, 32) Hsiao codec instance. */
const HsiaoCodec &hsiao39();

} // namespace vspec

#endif // VSPEC_ECC_HSIAO_HH
