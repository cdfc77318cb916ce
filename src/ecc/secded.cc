#include "ecc/secded.hh"

#include "common/logging.hh"

namespace vspec
{
namespace
{

bool
isPowerOfTwo(unsigned x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

SecdedCodec::SecdedCodec(unsigned data_bits)
{
    if (data_bits == 0 || data_bits > 64)
        fatal("SECDED data width must be in [1, 64], got ", data_bits);

    // Find the number of Hamming check bits r with 2^r >= m + r + 1.
    unsigned r = 0;
    while ((1u << r) < data_bits + r + 1)
        ++r;

    // Hamming positions run 1..(m + r); position 0 holds the overall
    // parity bit of the extended code.
    const unsigned hamming_len = data_bits + r;
    traits_.scheme = EccScheme::hamming;
    traits_.name = "hamming";
    traits_.dataBits = data_bits;
    traits_.checkBits = r + 1;
    traits_.codewordBits = hamming_len + 1;
    traits_.correctableBits = 1;
    traits_.detectableBits = 2;
    // Two-step resolve: syndrome decode, then overall-parity arbitration.
    traits_.decodeLatencyCycles = 2;

    // Check bit k (Hamming position 2^k) covers every position with bit
    // k set, itself included; the syndrome is the vector of their
    // parities. Data bits fill the remaining positions in order, so
    // they form one run per gap between consecutive powers of two,
    // split where a gap straddles the word boundary at bit 64.
    checkMasks.assign(r, CodewordMask{0, 0});
    unsigned data_index = 0;
    for (unsigned pos = 0; pos <= hamming_len; ++pos) {
        const std::uint64_t bit = std::uint64_t(1) << (pos & 63);
        allPositions[pos >> 6] |= bit;
        for (unsigned k = 0; k < r; ++k) {
            if (pos & (1u << k))
                checkMasks[k][pos >> 6] |= bit;
        }
        if (pos == 0 || isPowerOfTwo(pos))
            continue;
        DataRun *run = dataRuns.empty() ? nullptr : &dataRuns.back();
        if (run && run->position + run->length == pos && (pos & 63) != 0) {
            ++run->length;
        } else {
            dataRuns.push_back({pos, data_index, 1});
        }
        ++data_index;
    }
    if (data_index != data_bits)
        panic("SECDED construction mismatch: ", data_index,
              " data positions for ", data_bits, " data bits");
}

Codeword
SecdedCodec::encode(std::uint64_t data) const
{
    // Place the data runs; the check positions are still zero, so each
    // check mask's parity covers exactly its data positions.
    std::uint64_t w[2] = {0, 0};
    for (const DataRun &run : dataRuns) {
        const std::uint64_t field = (data >> run.dataBit) & run.fieldMask();
        w[run.position >> 6] |= field << (run.position & 63);
    }
    for (unsigned k = 0; k < checkMasks.size(); ++k) {
        const unsigned pos = 1u << k;
        w[pos >> 6] |= std::uint64_t(maskedParity(w[0], w[1], checkMasks[k]))
                       << (pos & 63);
    }
    // Overall parity over every other bit (position 0 is still zero).
    w[0] |= maskedParity(w[0], w[1], allPositions);
    return Codeword::fromWords(w[0], w[1]);
}

unsigned
SecdedCodec::computeSyndrome(std::uint64_t w0, std::uint64_t w1) const
{
    unsigned syndrome = 0;
    for (unsigned k = 0; k < checkMasks.size(); ++k)
        syndrome |= maskedParity(w0, w1, checkMasks[k]) << k;
    return syndrome;
}

std::uint64_t
SecdedCodec::extractData(std::uint64_t w0, std::uint64_t w1) const
{
    const std::uint64_t w[2] = {w0, w1};
    std::uint64_t data = 0;
    for (const DataRun &run : dataRuns) {
        const std::uint64_t field =
            (w[run.position >> 6] >> (run.position & 63)) & run.fieldMask();
        data |= field << run.dataBit;
    }
    return data;
}

DecodeResult
SecdedCodec::decode(const Codeword &word) const
{
    const std::uint64_t w0 = word.word(0);
    const std::uint64_t w1 = word.word(1);
    const unsigned syndrome = computeSyndrome(w0, w1);
    // Even parity expected over [0, codewordBits).
    const bool parity_error = maskedParity(w0, w1, allPositions);

    DecodeResult result;

    if (syndrome == 0 && !parity_error) {
        result.status = EccStatus::ok;
        result.data = extractData(w0, w1);
        return result;
    }

    if (syndrome == 0 && parity_error) {
        // The overall parity bit itself flipped; data is intact.
        result.status = EccStatus::correctedSingle;
        result.correctedBit = 0;
        result.correctedCount = 1;
        result.data = extractData(w0, w1);
        return result;
    }

    if (parity_error) {
        // Odd number of flipped bits with a nonzero syndrome: a single
        // error at the syndrome position (if it names a valid position).
        if (syndrome < codewordBits()) {
            const std::uint64_t flip = std::uint64_t(1) << (syndrome & 63);
            result.status = EccStatus::correctedSingle;
            result.correctedBit = syndrome;
            result.correctedCount = 1;
            result.data = syndrome < 64 ? extractData(w0 ^ flip, w1)
                                        : extractData(w0, w1 ^ flip);
            return result;
        }
        // Syndrome points outside the codeword: >= 3 bit errors.
        result.status = EccStatus::uncorrectable;
        result.data = extractData(w0, w1);
        return result;
    }

    // Nonzero syndrome with even parity: double-bit error.
    result.status = EccStatus::uncorrectable;
    result.data = extractData(w0, w1);
    return result;
}

const SecdedCodec &
secded72()
{
    static const SecdedCodec codec(64);
    return codec;
}

const SecdedCodec &
secded39()
{
    static const SecdedCodec codec(32);
    return codec;
}

} // namespace vspec
