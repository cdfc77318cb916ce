#include "ecc/bch.hh"

#include <algorithm>
#include <set>

#include "common/logging.hh"

namespace vspec
{
namespace bchdetail
{

GaloisField::GaloisField(unsigned m_, unsigned primitive_poly)
    : m(m_), n((1u << m_) - 1), expTab(n), logTab(1u << m_, 0)
{
    if (m < 2 || m > 16)
        fatal("GF(2^m) with m = ", m, " unsupported");
    unsigned x = 1;
    for (unsigned i = 0; i < n; ++i) {
        expTab[i] = x;
        logTab[x] = i;
        x <<= 1;
        if (x & (1u << m))
            x ^= primitive_poly;
    }
    if (x != 1)
        fatal("polynomial 0x", primitive_poly,
              " is not primitive over GF(2^", m, ")");
}

unsigned
GaloisField::inv(unsigned a) const
{
    if (a == 0)
        panic("GF inverse of zero");
    return expTab[(n - logTab[a]) % n];
}

BchEngine::BchEngine(unsigned m, unsigned primitive_poly, unsigned t_,
                     unsigned data_bits)
    : field(m, primitive_poly), t(t_), k(data_bits)
{
    const unsigned n = field.order();

    // Generator roots: the union of the cyclotomic cosets (mod n) of
    // the odd exponents 1, 3, ..., 2t-1. Even exponents' minimal
    // polynomials coincide with odd ones' (alpha^2j is a conjugate of
    // alpha^j), so this covers alpha^1..alpha^2t as BCH requires.
    std::set<unsigned> roots;
    for (unsigned j = 1; j < 2 * t; j += 2) {
        unsigned s = j % n;
        do {
            roots.insert(s);
            s = (2 * s) % n;
        } while (s != j % n);
    }

    // g(x) = product over roots of (x + alpha^s), computed in GF(2^m);
    // complete cosets guarantee the coefficients land in GF(2).
    std::vector<unsigned> g{1};
    for (unsigned s : roots) {
        const unsigned a = field.alphaPow(s);
        std::vector<unsigned> next(g.size() + 1, 0);
        for (unsigned i = 0; i < g.size(); ++i) {
            next[i + 1] ^= g[i];
            next[i] ^= field.mul(a, g[i]);
        }
        g = std::move(next);
    }
    gen.resize(g.size());
    for (unsigned i = 0; i < g.size(); ++i) {
        if (g[i] > 1)
            panic("BCH generator coefficient not in GF(2)");
        gen[i] = std::uint8_t(g[i]);
    }

    nShort = k + degG();
    if (nShort > n)
        fatal("BCH(m=", m, ", t=", t, ") cannot carry ", k,
              " data bits: shortened length ", nShort, " exceeds ", n);
}

void
BchEngine::encode(const std::vector<std::uint8_t> &data_bits,
                  std::vector<std::uint8_t> &codeword) const
{
    if (data_bits.size() != k)
        panic("BCH encode: expected ", k, " data bits, got ",
              data_bits.size());
    const unsigned r = degG();

    // Systematic LFSR division: remainder of x^r * u(x) mod g(x).
    std::vector<std::uint8_t> rem(r, 0);
    for (unsigned idx = k; idx-- > 0;) {
        const std::uint8_t fb = data_bits[idx] ^ rem[r - 1];
        for (unsigned j = r - 1; j > 0; --j)
            rem[j] = rem[j - 1] ^ (fb & gen[j]);
        rem[0] = fb & gen[0];
    }

    codeword.assign(nShort, 0);
    std::copy(rem.begin(), rem.end(), codeword.begin());
    std::copy(data_bits.begin(), data_bits.end(), codeword.begin() + r);
}

BchEngine::Location
BchEngine::locate(const std::vector<std::uint8_t> &received) const
{
    if (received.size() != nShort)
        panic("BCH locate: expected ", nShort, " bits, got ",
              received.size());
    const unsigned n = field.order();

    // Power-sum syndromes S_j = r(alpha^j), j = 1..2t.
    std::vector<unsigned> S(2 * t + 1, 0);
    bool any = false;
    for (unsigned p = 0; p < nShort; ++p) {
        if (!received[p])
            continue;
        for (unsigned j = 1; j <= 2 * t; ++j)
            S[j] ^= field.alphaPow(p * j);
    }
    for (unsigned j = 1; j <= 2 * t; ++j)
        any = any || S[j] != 0;

    Location out;
    if (!any) {
        out.correctable = true;
        return out;
    }

    // Berlekamp–Massey for the error-locator polynomial sigma(x).
    std::vector<unsigned> sigma{1};
    std::vector<unsigned> prev{1};
    unsigned L = 0;
    unsigned shift = 1;
    unsigned b = 1;
    for (unsigned step = 0; step < 2 * t; ++step) {
        unsigned d = S[step + 1];
        for (unsigned i = 1; i <= L && i < sigma.size(); ++i)
            d ^= field.mul(sigma[i], S[step + 1 - i]);
        if (d == 0) {
            ++shift;
            continue;
        }
        const unsigned coef = field.mul(d, field.inv(b));
        std::vector<unsigned> updated = sigma;
        if (updated.size() < prev.size() + shift)
            updated.resize(prev.size() + shift, 0);
        for (unsigned i = 0; i < prev.size(); ++i)
            updated[i + shift] ^= field.mul(coef, prev[i]);
        if (2 * L <= step) {
            prev = std::move(sigma);
            L = step + 1 - L;
            b = d;
            shift = 1;
        } else {
            ++shift;
        }
        sigma = std::move(updated);
    }

    unsigned deg = 0;
    for (unsigned i = 0; i < sigma.size(); ++i) {
        if (sigma[i] != 0)
            deg = i;
    }
    if (L > t || deg != L)
        return out;  // > t errors: locator degree out of range.

    // Chien search: the locator must split completely with every root
    // naming a position inside the shortened codeword; otherwise the
    // error pattern exceeds the correction radius.
    for (unsigned p = 0; p < nShort && out.positions.size() <= t; ++p) {
        const unsigned x = field.alphaPow((n - p % n) % n);  // alpha^-p
        unsigned val = 0;
        for (unsigned i = sigma.size(); i-- > 0;)
            val = field.mul(val, x) ^ sigma[i];
        if (val == 0)
            out.positions.push_back(p);
    }
    if (out.positions.size() != deg)
        return out;

    out.correctable = true;
    return out;
}

} // namespace bchdetail

BchWordCodec::BchWordCodec(unsigned t, unsigned data_bits)
    : engine(7, 0x89, t, data_bits)  // x^7 + x^3 + 1 primitive.
{
    if (data_bits == 0 || data_bits > 64)
        fatal("BCH word data width must be in [1, 64], got ", data_bits);
    if (t != 2 && t != 3)
        fatal("BCH word codec supports t in {2, 3}, got ", t);

    traits_.scheme = t == 2 ? EccScheme::bch2 : EccScheme::bch3;
    traits_.name = t == 2 ? "bch2" : "bch3";
    traits_.dataBits = data_bits;
    traits_.checkBits = engine.degG() + 1;  // + overall parity.
    traits_.codewordBits = engine.shortLength() + 1;
    traits_.correctableBits = t;
    traits_.detectableBits = t + 1;
    // Iterative syndrome/BM/Chien pipeline, deeper for larger t.
    traits_.decodeLatencyCycles = t == 2 ? 6 : 9;

    if (traits_.codewordBits > 128)
        fatal("BCH word codeword of ", traits_.codewordBits,
              " bits exceeds the 128-bit Codeword");
}

Codeword
BchWordCodec::encode(std::uint64_t data) const
{
    std::vector<std::uint8_t> data_bits(dataBits());
    for (unsigned i = 0; i < dataBits(); ++i)
        data_bits[i] = (data >> i) & 1;

    std::vector<std::uint8_t> cw;
    engine.encode(data_bits, cw);

    Codeword word;
    unsigned weight = 0;
    for (unsigned p = 0; p < cw.size(); ++p) {
        if (cw[p]) {
            word.setBit(p + 1, true);
            ++weight;
        }
    }
    word.setBit(0, weight & 1);  // Even overall parity.
    return word;
}

DecodeResult
BchWordCodec::decode(const Codeword &word) const
{
    const unsigned n_short = engine.shortLength();
    std::vector<std::uint8_t> received(n_short);
    unsigned weight = 0;
    for (unsigned p = 0; p < n_short; ++p) {
        received[p] = word.bit(p + 1);
        weight += received[p];
    }
    const bool overall_odd = ((weight + word.bit(0)) & 1) != 0;

    const auto extract = [&](const std::vector<std::uint8_t> &bits) {
        std::uint64_t data = 0;
        const unsigned r = engine.degG();
        for (unsigned i = 0; i < dataBits(); ++i) {
            if (bits[r + i])
                data |= std::uint64_t(1) << i;
        }
        return data;
    };

    DecodeResult result;
    const auto loc = engine.locate(received);
    if (!loc.correctable) {
        result.status = EccStatus::uncorrectable;
        result.data = extract(received);
        return result;
    }

    // Parity arbitration for the extended (distance 2t+2) code: the
    // parity bit is in error iff the overall parity disagrees with the
    // located error count. A total of t+1 errors can fool the BCH
    // locator into a degree-t alternative, but then the parity count
    // lands on t+1 and we refuse — never a miscorrection.
    const unsigned nu = unsigned(loc.positions.size());
    const unsigned parity_flip = unsigned(overall_odd) ^ (nu & 1);
    const unsigned total = nu + parity_flip;
    if (total > engine.radius()) {
        result.status = EccStatus::uncorrectable;
        result.data = extract(received);
        return result;
    }

    std::vector<std::uint8_t> fixed = received;
    for (unsigned p : loc.positions)
        fixed[p] = fixed[p] ^ 1;
    result.data = extract(fixed);
    if (total == 0) {
        result.status = EccStatus::ok;
        return result;
    }
    result.status = EccStatus::correctedSingle;
    result.correctedCount = total;
    if (parity_flip) {
        result.correctedBit = 0;
    } else {
        unsigned lowest = loc.positions[0];
        for (unsigned p : loc.positions)
            lowest = std::min(lowest, p);
        result.correctedBit = lowest + 1;
    }
    return result;
}

const BchWordCodec &
bch2_64()
{
    static const BchWordCodec codec(2, 64);
    return codec;
}

const BchWordCodec &
bch3_64()
{
    static const BchWordCodec codec(3, 64);
    return codec;
}

BchBlockCodec::BchBlockCodec()
    : engine(13, 0x201B, 8, 4096)  // x^13 + x^4 + x^3 + x + 1 primitive.
{
    blockTraits.scheme = EccScheme::bchLarge512;
    blockTraits.name = "bchLarge512";
    blockTraits.dataBits = 4096;
    blockTraits.checkBits = engine.degG() + 1;
    blockTraits.codewordBits = engine.shortLength() + 1;
    blockTraits.correctableBits = 8;
    blockTraits.detectableBits = 9;
    blockTraits.decodeLatencyCycles = 24;
}

std::vector<std::uint64_t>
BchBlockCodec::encode(const std::vector<std::uint64_t> &data) const
{
    if (data.size() != dataBits() / 64)
        panic("BchBlockCodec::encode: expected ", dataBits() / 64,
              " data words, got ", data.size());

    std::vector<std::uint8_t> data_bits(dataBits());
    for (unsigned i = 0; i < dataBits(); ++i)
        data_bits[i] = (data[i / 64] >> (i % 64)) & 1;

    std::vector<std::uint8_t> cw;
    engine.encode(data_bits, cw);

    std::vector<std::uint64_t> packed(codewordWords(), 0);
    unsigned weight = 0;
    for (unsigned p = 0; p < cw.size(); ++p) {
        if (cw[p]) {
            const unsigned idx = p + 1;
            packed[idx / 64] |= std::uint64_t(1) << (idx % 64);
            ++weight;
        }
    }
    if (weight & 1)
        packed[0] |= 1;  // Bit 0: even overall parity.
    return packed;
}

BchBlockCodec::BlockDecodeResult
BchBlockCodec::decode(const std::vector<std::uint64_t> &cw) const
{
    if (cw.size() != codewordWords())
        panic("BchBlockCodec::decode: expected ", codewordWords(),
              " codeword words, got ", cw.size());

    const unsigned n_short = engine.shortLength();
    std::vector<std::uint8_t> received(n_short);
    unsigned weight = 0;
    for (unsigned p = 0; p < n_short; ++p) {
        const unsigned idx = p + 1;
        received[p] = (cw[idx / 64] >> (idx % 64)) & 1;
        weight += received[p];
    }
    const bool parity_bit = (cw[0] & 1) != 0;
    const bool overall_odd = ((weight + parity_bit) & 1) != 0;

    const auto extract = [&](const std::vector<std::uint8_t> &bits) {
        std::vector<std::uint64_t> data(dataBits() / 64, 0);
        const unsigned r = engine.degG();
        for (unsigned i = 0; i < dataBits(); ++i) {
            if (bits[r + i])
                data[i / 64] |= std::uint64_t(1) << (i % 64);
        }
        return data;
    };

    BlockDecodeResult result;
    const auto loc = engine.locate(received);
    if (!loc.correctable) {
        result.status = EccStatus::uncorrectable;
        result.data = extract(received);
        return result;
    }

    const unsigned nu = unsigned(loc.positions.size());
    const unsigned parity_flip = unsigned(overall_odd) ^ (nu & 1);
    const unsigned total = nu + parity_flip;
    if (total > engine.radius()) {
        result.status = EccStatus::uncorrectable;
        result.data = extract(received);
        return result;
    }

    std::vector<std::uint8_t> fixed = received;
    for (unsigned p : loc.positions)
        fixed[p] = fixed[p] ^ 1;
    result.data = extract(fixed);
    result.status = total == 0 ? EccStatus::ok : EccStatus::correctedSingle;
    result.correctedCount = total;
    return result;
}

void
BchBlockCodec::flipPackedBit(std::vector<std::uint64_t> &cw, unsigned idx)
{
    if (idx / 64 >= cw.size())
        panic("BchBlockCodec::flipPackedBit index out of range: ", idx);
    cw[idx / 64] ^= std::uint64_t(1) << (idx % 64);
}

const BchBlockCodec &
bchLarge512()
{
    static const BchBlockCodec codec;
    return codec;
}

} // namespace vspec
