#include "ecc/hsiao.hh"

#include <bit>

#include "common/logging.hh"

namespace vspec
{
namespace
{

/** Number of r-bit columns with odd weight >= 3. */
unsigned
oddColumnCount(unsigned r)
{
    unsigned count = 0;
    for (unsigned v = 0; v < (1u << r); ++v) {
        const unsigned w = unsigned(std::popcount(v));
        if (w >= 3 && (w & 1))
            ++count;
    }
    return count;
}

} // namespace

HsiaoCodec::HsiaoCodec(unsigned data_bits)
{
    if (data_bits == 0 || data_bits > 64)
        fatal("Hsiao data width must be in [1, 64], got ", data_bits);

    // Smallest r offering data_bits distinct odd-weight->=3 columns.
    // Matches the Hamming shapes at the widths that matter: r=8 for 64
    // data bits (C(8,3)=56 weight-3 + weight-5 columns) and r=7 for 32
    // (35 weight-3 columns suffice).
    unsigned r = 3;
    while (oddColumnCount(r) < data_bits)
        ++r;
    numCheck = r;

    traits_.scheme = EccScheme::hsiao;
    traits_.name = "hsiao";
    traits_.dataBits = data_bits;
    traits_.checkBits = r;
    traits_.codewordBits = r + data_bits;
    traits_.correctableBits = 1;
    traits_.detectableBits = 2;
    // Single-level syndrome match; no parity arbitration step.
    traits_.decodeLatencyCycles = 1;

    // Column i is the syndrome of data bit i (odd weight >= 3, all
    // distinct). Assign columns lowest-weight-first (weight 3, then 5,
    // ...), each weight class in increasing numeric order, to balance
    // and minimize the parity trees per Hsiao's recipe.
    std::vector<unsigned> columns;
    columns.reserve(data_bits);
    for (unsigned w = 3; w <= r && columns.size() < data_bits; w += 2) {
        for (unsigned v = 0; v < (1u << r) && columns.size() < data_bits;
             ++v) {
            if (unsigned(std::popcount(v)) == w)
                columns.push_back(v);
        }
    }
    if (columns.size() != data_bits)
        panic("Hsiao construction mismatch: ", columns.size(),
              " columns for ", data_bits, " data bits");

    columnToPosition.assign(1u << r, 0);
    for (unsigned j = 0; j < r; ++j)
        columnToPosition[1u << j] = j + 1;
    for (unsigned i = 0; i < data_bits; ++i)
        columnToPosition[columns[i]] = r + i + 1;

    // Row j of the parity-check matrix as a codeword mask: the unit
    // column of check bit j plus every data position whose column has
    // bit j set.
    syndromeMasks.assign(r, CodewordMask{0, 0});
    for (unsigned j = 0; j < r; ++j) {
        syndromeMasks[j][0] |= std::uint64_t(1) << j;
        for (unsigned i = 0; i < data_bits; ++i) {
            if ((columns[i] >> j) & 1) {
                const unsigned pos = r + i;
                syndromeMasks[j][pos >> 6] |= std::uint64_t(1) << (pos & 63);
            }
        }
    }
    dataMask = data_bits >= 64 ? ~std::uint64_t(0)
                               : (std::uint64_t(1) << data_bits) - 1;
}

Codeword
HsiaoCodec::encode(std::uint64_t data) const
{
    // Data at positions r.., then each check bit as the parity of its
    // row (the check positions are still zero).
    data &= dataMask;
    std::uint64_t w0 = data << numCheck;
    const std::uint64_t w1 = data >> (64 - numCheck);
    for (unsigned j = 0; j < numCheck; ++j)
        w0 |= std::uint64_t(maskedParity(w0, w1, syndromeMasks[j])) << j;
    return Codeword::fromWords(w0, w1);
}

unsigned
HsiaoCodec::computeSyndrome(std::uint64_t w0, std::uint64_t w1) const
{
    // Syndrome = XOR of the columns of all set codeword positions, one
    // row parity per bit.
    unsigned syndrome = 0;
    for (unsigned j = 0; j < numCheck; ++j)
        syndrome |= maskedParity(w0, w1, syndromeMasks[j]) << j;
    return syndrome;
}

std::uint64_t
HsiaoCodec::extractData(std::uint64_t w0, std::uint64_t w1) const
{
    // The data field is contiguous at positions r .. r+dataBits-1: one
    // funnel shift across the word boundary (3 <= r < 64).
    return ((w0 >> numCheck) | (w1 << (64 - numCheck))) & dataMask;
}

DecodeResult
HsiaoCodec::decode(const Codeword &word) const
{
    const std::uint64_t w0 = word.word(0);
    const std::uint64_t w1 = word.word(1);
    const unsigned syndrome = computeSyndrome(w0, w1);

    DecodeResult result;
    if (syndrome == 0) {
        result.status = EccStatus::ok;
        result.data = extractData(w0, w1);
        return result;
    }

    // Every column is odd-weight, so an even-weight syndrome can only
    // come from an even number of flips: uncorrectable by construction.
    // An odd-weight syndrome matching a column is the single error at
    // that column's position; an odd-weight non-column syndrome is a
    // >= 3-bit error (never miscorrected).
    const unsigned pos_plus_one = columnToPosition[syndrome];
    if ((std::popcount(syndrome) & 1) && pos_plus_one != 0) {
        const unsigned pos = pos_plus_one - 1;
        const std::uint64_t flip = std::uint64_t(1) << (pos & 63);
        result.status = EccStatus::correctedSingle;
        result.correctedBit = pos;
        result.correctedCount = 1;
        result.data = pos < 64 ? extractData(w0 ^ flip, w1)
                               : extractData(w0, w1 ^ flip);
        return result;
    }

    result.status = EccStatus::uncorrectable;
    result.data = extractData(w0, w1);
    return result;
}

const HsiaoCodec &
hsiao72()
{
    static const HsiaoCodec codec(64);
    return codec;
}

const HsiaoCodec &
hsiao39()
{
    static const HsiaoCodec codec(32);
    return codec;
}

} // namespace vspec
