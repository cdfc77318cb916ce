#include "mem/mem_array.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/mathutil.hh"
#include "snapshot/state_io.hh"
#include "variation/process_variation.hh"
#include "variation/tail_sampler.hh"

namespace vspec
{

const char *
memKindName(MemKind kind)
{
    switch (kind) {
    case MemKind::dram:
        return "dram";
    case MemKind::hbm:
        return "hbm";
    }
    panic("unknown MemKind ", unsigned(kind));
}

MemArrayParams
dramArrayDefaults()
{
    return MemArrayParams{};
}

MemArrayParams
hbmArrayDefaults()
{
    MemArrayParams p;
    p.name = "hbm";
    // Pseudo-channels: more, smaller mats per rail.
    p.numBanks = 8;
    p.linesPerBank = 2048;
    // The stack's restore margin collapses higher and harder than
    // planar DRAM (HBM underscaling study): higher cliff, sharper.
    p.cliffMv = 1060.0;
    p.cliffSharpnessMv = 10.0;
    p.cliffScale = 1e-9;
    // TSV I/O is faster but the latency knee bites sooner and steeper.
    p.baseAccessNs = 30.0;
    p.latencyKneeMv = 1160.0;
    p.stretchPerMv = 0.005;
    p.ioClockMhz = 1600.0;
    // Denser mats: less refresh power per modeled slice, cheaper
    // per-access energy at the pin.
    p.refreshPowerAtNominal = 1.2;
    p.accessEnergyNj = 6.0;
    return p;
}

MemArray::MemArray(MemKind kind, const MemArrayParams &params, Rng &rng)
    : kind_(kind), prm(params), temp(params.referenceTemp)
{
    if (prm.numBanks == 0 || prm.linesPerBank == 0)
        fatal("MemArray needs at least one bank and one line");
    if (prm.sigmaDynamicMv <= 0.0)
        fatal("MemArray needs a positive dynamic sigma");

    const unsigned cw_bits = codewordBits();
    const VcDistribution dist{prm.weakCellMeanMv, prm.sigmaRandomMv,
                              prm.sigmaDynamicMv};
    banks.resize(prm.numBanks);
    for (unsigned b = 0; b < prm.numBanks; ++b) {
        const std::uint64_t n_cells = prm.linesPerBank * cw_bits;
        // The sampler returns ascending cell-index order; group it into
        // per-line records in (line, offset) order so aging and
        // serialization walk a stable layout.
        const std::vector<WeakCell> cells =
            tail_sampler::sample(rng, n_cells, dist,
                                 prm.materializeFloorMv);
        Bank &bank = banks[b];
        for (const WeakCell &cell : cells) {
            const std::uint64_t line = cell.cellIndex / cw_bits;
            if (bank.lines.empty() || bank.lines.back().line != line) {
                bank.lines.push_back(MemWeakLine{});
                bank.lines.back().line = line;
            }
            MemWeakBit bit;
            bit.bitOffset = unsigned(cell.cellIndex % cw_bits);
            bit.vc = cell.vc;
            bit.antiCell = rng.bernoulli(0.5);
            bit.retention = rng.uniform();
            bank.lines.back().bits.push_back(bit);
        }
    }
}

unsigned
MemArray::codewordBits() const
{
    return bchLarge512().codewordBits();
}

void
MemArray::setTemperature(Celsius c)
{
    if (c == temp)
        return;
    temp = c;
    ++generation_;
}

bool
MemArray::patternBit(unsigned pattern, unsigned offset)
{
    switch (pattern) {
    case 0:
        return false; // all zeros
    case 1:
        return true; // all ones
    case 2:
        return (offset & 1u) != 0; // 0xAA checkerboard
    case 3:
        return (offset & 1u) == 0; // 0x55 checkerboard
    default:
        panic("patternBit called with sentinel pattern ", pattern);
    }
}

double
MemArray::patternWeight(const MemWeakBit &bit, unsigned pattern) const
{
    if (pattern == kPatternWorst)
        return 1.0;
    if (pattern == kPatternAverage) {
        // Over the four march patterns every cell is stressed by
        // exactly two (its own polarity plus one checkerboard).
        return 1.0 - prm.patternSensitivity * 0.5;
    }
    // A normal cell leaks charge when storing 1; an anti-cell when
    // storing 0 (Voltron's true-/anti-cell split).
    const bool stressed =
        patternBit(pattern, bit.bitOffset) != bit.antiCell;
    return stressed ? 1.0 : 1.0 - prm.patternSensitivity;
}

double
MemArray::temperatureFactor(const MemWeakBit &bit) const
{
    const double r = prm.retentionWeight * bit.retention;
    const double doubling =
        std::exp2((temp - prm.referenceTemp) / prm.retentionDoublingC);
    return (1.0 - r) + r * doubling;
}

double
MemArray::bitFailureProbability(const MemWeakBit &bit, Millivolt v,
                                unsigned pattern) const
{
    const double base =
        math::normalCdf((bit.vc - v) / prm.sigmaDynamicMv);
    return math::clamp(base * patternWeight(bit, pattern) *
                           temperatureFactor(bit),
                       0.0, 1.0);
}

double
MemArray::cliffProbability(Millivolt v) const
{
    if (v >= prm.cliffMv)
        return 0.0;
    const double p =
        prm.cliffScale *
        std::exp((prm.cliffMv - v) / prm.cliffSharpnessMv);
    return p > 1.0 ? 1.0 : p;
}

const MemWeakLine *
MemArray::findLine(unsigned bank, std::uint64_t line) const
{
    const auto &lines = banks.at(bank).lines;
    const auto it = std::lower_bound(
        lines.begin(), lines.end(), line,
        [](const MemWeakLine &wl, std::uint64_t l) {
            return wl.line < l;
        });
    if (it == lines.end() || it->line != line)
        return nullptr;
    return &*it;
}

MemArray::LineProbabilities
MemArray::lineEventProbabilities(unsigned bank, std::uint64_t line,
                                 Millivolt v, unsigned pattern) const
{
    double lambda = double(codewordBits()) * cliffProbability(v);
    if (const MemWeakLine *wl = findLine(bank, line)) {
        for (const MemWeakBit &bit : wl->bits)
            lambda += bitFailureProbability(bit, v, pattern);
    }

    LineProbabilities out;
    out.lambda = lambda;
    if (lambda <= 0.0)
        return out;

    // Poisson superposition: flips per read ~ Poisson(lambda); the
    // block codec corrects 1..t and flags > t.
    const unsigned t = bchLarge512().correctableBits();
    double pk = std::exp(-lambda); // P(K = 0)
    double cum = pk;
    double corr = 0.0;
    for (unsigned k = 1; k <= t; ++k) {
        pk *= lambda / double(k);
        corr += pk;
        cum += pk;
    }
    out.pCorrectable = corr;
    out.pUncorrectable = math::clamp(1.0 - cum, 0.0, 1.0);
    return out;
}

ProbeStats
MemArray::probeLine(unsigned bank, std::uint64_t line, Millivolt v,
                    std::uint64_t n, unsigned pattern, Rng &rng)
{
    ProbeStats stats;
    stats.accesses = n;
    if (n == 0)
        return stats;
    const LineProbabilities p =
        lineEventProbabilities(bank, line, v, pattern);
    stats.correctableEvents = rng.binomial(n, p.pCorrectable);
    stats.uncorrectableEvents = rng.binomial(n, p.pUncorrectable);
    return stats;
}

void
MemArray::writeLine(unsigned bank, std::uint64_t line,
                    const std::vector<std::uint64_t> &data)
{
    if (bank >= prm.numBanks || line >= prm.linesPerBank)
        panic("writeLine out of range: bank ", bank, " line ", line);
    resident[{bank, line}] = bchLarge512().encode(data);
}

bool
MemArray::lineResident(unsigned bank, std::uint64_t line) const
{
    return resident.count({bank, line}) != 0;
}

BchBlockCodec::BlockDecodeResult
MemArray::readLine(unsigned bank, std::uint64_t line, Millivolt v,
                   unsigned pattern, Rng &rng)
{
    const auto it = resident.find({bank, line});
    if (it == resident.end())
        panic("readLine on non-resident line: bank ", bank, " line ",
              line);

    std::vector<std::uint64_t> cw = it->second;
    if (const MemWeakLine *wl = findLine(bank, line)) {
        for (const MemWeakBit &bit : wl->bits) {
            if (rng.bernoulli(bitFailureProbability(bit, v, pattern)))
                BchBlockCodec::flipPackedBit(cw, bit.bitOffset);
        }
    }
    const double cliff = cliffProbability(v);
    if (cliff > 0.0) {
        const std::uint64_t flips =
            rng.binomial(codewordBits(), cliff);
        for (std::uint64_t f = 0; f < flips; ++f) {
            BchBlockCodec::flipPackedBit(
                cw, unsigned(rng.uniformInt(codewordBits())));
        }
    }
    return bchLarge512().decode(cw);
}

void
MemArray::flipStoredBit(unsigned bank, std::uint64_t line, unsigned bit)
{
    const auto it = resident.find({bank, line});
    if (it == resident.end())
        panic("flipStoredBit on non-resident line");
    BchBlockCodec::flipPackedBit(it->second, bit);
}

double
MemArray::latencyStretch(Millivolt v) const
{
    return math::clamp(prm.stretchPerMv * (prm.latencyKneeMv - v), 0.0,
                       prm.maxStretch);
}

double
MemArray::decodeLatencyNs() const
{
    return double(bchLarge512().traits().decodeLatencyCycles) *
           1000.0 / prm.ioClockMhz;
}

double
MemArray::accessLatencyNs(Millivolt v) const
{
    return prm.baseAccessNs * (1.0 + latencyStretch(v)) +
           decodeLatencyNs();
}

Watt
MemArray::refreshPower(Millivolt v) const
{
    const double ratio = v / prm.nominalMv;
    const double leak_doubling =
        std::exp2((temp - prm.referenceTemp) /
                  (2.0 * prm.retentionDoublingC));
    return prm.refreshPowerAtNominal * ratio * ratio * leak_doubling;
}

Joule
MemArray::accessEnergy(Millivolt v) const
{
    const double ratio = v / prm.nominalMv;
    return prm.accessEnergyNj * 1e-9 * ratio * ratio;
}

double
MemArray::checkMbit() const
{
    return double(numLines()) *
           double(bchLarge512().traits().checkBits) / 1e6;
}

void
MemArray::applyAgingShift(Millivolt mean_shift_mv, Millivolt sigma_mv,
                          Rng &rng)
{
    for (Bank &bank : banks) {
        for (MemWeakLine &wl : bank.lines) {
            for (MemWeakBit &bit : wl.bits) {
                const double shift =
                    rng.gaussian(mean_shift_mv, sigma_mv);
                if (shift > 0.0)
                    bit.vc += shift;
            }
        }
    }
    ++generation_;
}

MemArray::WeakLineRef
MemArray::weakestLine() const
{
    WeakLineRef best;
    bool found = false;
    for (unsigned b = 0; b < prm.numBanks; ++b) {
        for (const MemWeakLine &wl : banks[b].lines) {
            Millivolt max_vc = 0.0;
            for (const MemWeakBit &bit : wl.bits)
                max_vc = std::max(max_vc, bit.vc);
            const bool better =
                !found || max_vc > best.maxVc ||
                (max_vc == best.maxVc && wl.bits.size() > best.cells);
            if (better) {
                best.bank = b;
                best.line = wl.line;
                best.maxVc = max_vc;
                best.cells = wl.bits.size();
                found = true;
            }
        }
    }
    if (!found)
        panic("MemArray has no materialized weak lines to calibrate "
              "against; lower materializeFloorMv");
    return best;
}

Millivolt
MemArray::firstErrorVoltage(double threshold) const
{
    const WeakLineRef target = weakestLine();
    for (Millivolt v = prm.nominalMv; v > 0.0; v -= 1.0) {
        const LineProbabilities p = lineEventProbabilities(
            target.bank, target.line, v, kPatternWorst);
        if (p.pCorrectable + p.pUncorrectable >= threshold)
            return v;
    }
    return 0.0;
}

MemArray::AggregateRates
MemArray::aggregateRates(Millivolt v) const
{
    const long long vkey = std::llround(v * 4.0);
    if (cacheValid && cacheGeneration == generation_ &&
        cacheVKey == vkey)
        return cacheRates;

    // Clean lines only see the cliff term.
    const LineProbabilities clean = [&] {
        LineProbabilities p;
        const double lambda =
            double(codewordBits()) * cliffProbability(v);
        p.lambda = lambda;
        if (lambda <= 0.0)
            return p;
        const unsigned t = bchLarge512().correctableBits();
        double pk = std::exp(-lambda);
        double cum = pk;
        for (unsigned k = 1; k <= t; ++k) {
            pk *= lambda / double(k);
            p.pCorrectable += pk;
            cum += pk;
        }
        p.pUncorrectable = math::clamp(1.0 - cum, 0.0, 1.0);
        return p;
    }();

    double corr_sum = 0.0;
    double unc_sum = 0.0;
    std::uint64_t weak_lines = 0;
    for (unsigned b = 0; b < prm.numBanks; ++b) {
        for (const MemWeakLine &wl : banks[b].lines) {
            const LineProbabilities p = lineEventProbabilities(
                b, wl.line, v, kPatternAverage);
            corr_sum += p.pCorrectable;
            unc_sum += p.pUncorrectable;
            ++weak_lines;
        }
    }
    const double total = double(numLines());
    const double clean_lines = total - double(weak_lines);
    AggregateRates rates;
    rates.pCorrectable =
        (corr_sum + clean_lines * clean.pCorrectable) / total;
    rates.pUncorrectable =
        (unc_sum + clean_lines * clean.pUncorrectable) / total;

    cacheValid = true;
    cacheGeneration = generation_;
    cacheVKey = vkey;
    cacheRates = rates;
    return rates;
}

void
MemArray::saveState(StateWriter &w) const
{
    w.putU64(generation_);
    w.putDouble(temp);
    w.putU64(banks.size());
    for (const Bank &bank : banks) {
        w.putU64(bank.lines.size());
        for (const MemWeakLine &wl : bank.lines) {
            w.putU64(wl.line);
            w.putU64(wl.bits.size());
            for (const MemWeakBit &bit : wl.bits) {
                w.putU64(bit.bitOffset);
                w.putDouble(bit.vc);
                w.putBool(bit.antiCell);
                w.putDouble(bit.retention);
            }
        }
    }
    w.putU64(resident.size());
    for (const auto &entry : resident) {
        w.putU64(entry.first.first);
        w.putU64(entry.first.second);
        w.putU64Vector(entry.second);
    }
}

void
MemArray::loadState(StateReader &r)
{
    generation_ = r.getU64();
    temp = r.getDouble();
    const std::uint64_t n_banks = r.getU64();
    if (n_banks != banks.size())
        throw SnapshotError(
            "mem bank count mismatch: snapshot has " +
            std::to_string(n_banks) + ", array has " +
            std::to_string(banks.size()));
    for (Bank &bank : banks) {
        const std::uint64_t n_lines = r.getU64();
        if (n_lines != bank.lines.size())
            throw SnapshotError("mem weak-line count mismatch");
        for (MemWeakLine &wl : bank.lines) {
            wl.line = r.getU64();
            const std::uint64_t n_bits = r.getU64();
            if (n_bits != wl.bits.size())
                throw SnapshotError("mem weak-bit count mismatch");
            for (MemWeakBit &bit : wl.bits) {
                bit.bitOffset = unsigned(r.getU64());
                bit.vc = r.getDouble();
                bit.antiCell = r.getBool();
                bit.retention = r.getDouble();
            }
        }
    }

    const unsigned cw_words = bchLarge512().codewordWords();
    const unsigned cw_bits = codewordBits();
    const unsigned stray_shift = cw_bits - 64u * (cw_words - 1);
    resident.clear();
    const std::uint64_t n_resident = r.getU64();
    for (std::uint64_t i = 0; i < n_resident; ++i) {
        const std::uint64_t bank = r.getU64();
        const std::uint64_t line = r.getU64();
        if (bank >= prm.numBanks || line >= prm.linesPerBank)
            throw SnapshotError("resident mem line out of range");
        std::vector<std::uint64_t> cw = r.getU64Vector();
        if (cw.size() != cw_words)
            throw SnapshotError("resident mem codeword length "
                                "mismatch");
        if (stray_shift < 64 && (cw.back() >> stray_shift) != 0)
            throw SnapshotError("resident mem codeword has stray "
                                "bits beyond the codeword width");
        resident[{unsigned(bank), line}] = std::move(cw);
    }
    cacheValid = false;
}

std::unique_ptr<MemArray>
makeMemArray(MemKind kind, const MemArrayParams &params, Rng &rng)
{
    switch (kind) {
    case MemKind::dram:
        return std::make_unique<DramArray>(params, rng);
    case MemKind::hbm:
        return std::make_unique<HbmStack>(params, rng);
    }
    panic("unknown MemKind ", unsigned(kind));
}

} // namespace vspec
