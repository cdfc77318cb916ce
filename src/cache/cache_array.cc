#include "cache/cache_array.hh"

#include "snapshot/state_io.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace vspec
{

namespace
{

/**
 * Largest correction radius the allocation-free probability fold
 * supports (covers every word-level codec in the zoo; the block codec
 * never reaches a CacheArray).
 */
constexpr unsigned maxFoldRadius = 3;

/**
 * Per-word event fold over one line's weak cells [first, last), whose
 * failure probabilities @p prob(i) yields for cell first + i. Returns
 * the expected correctable events per access (1..t flips in a word,
 * t = @p radius) and the probability that some word takes more than t
 * flips. Weak cells arrive in ascending index order, so cells of the
 * same codeword are adjacent and the per-word statistics fold
 * incrementally with no allocation. For t = 1 (the SECDED default) the
 * recurrence performs operation-for-operation the same arithmetic as
 * the historical (none, exactly_one) fold, keeping the default path
 * bit-identical.
 */
template <typename CellProbability>
void
foldLine(const WeakCell *first, const WeakCell *last, std::uint64_t base,
         unsigned cw_bits, unsigned radius, CellProbability &&prob,
         double &p_correctable, double &p_uncorrectable)
{
    // Besides catching a codec the fold cannot handle, the check bounds
    // the per-word loops for the compiler; without it the Simulator
    // tick's fold runs measurably slower.
    if (radius == 0 || radius > maxFoldRadius)
        panic("correction radius ", radius,
              " outside the per-word fold's supported range");

    double e_corr = 0.0;        // Expected correctable events/access.
    double p_no_uncorr = 1.0;   // P(no word raises an uncorrectable).

    std::uint64_t cur_word = ~std::uint64_t(0);
    // Running per-word state: e[k] = P(exactly k of the cells folded
    // so far flipped), k = 0..t, updated cell by cell.
    double e[maxFoldRadius + 1] = {1.0, 0.0, 0.0, 0.0};

    auto fold_word = [&]() {
        if (cur_word == ~std::uint64_t(0))
            return;
        double rem = 1.0;
        for (unsigned k = 0; k <= radius; ++k)
            rem -= e[k];
        double corr = 0.0;
        for (unsigned k = 1; k <= radius; ++k)
            corr += e[k];
        const double multi = std::max(0.0, rem);
        e_corr += corr;
        p_no_uncorr *= (1.0 - multi);
    };

    for (const WeakCell *cell = first; cell != last; ++cell) {
        const double p = prob(std::size_t(cell - first));
        if (p <= 0.0)
            continue;
        const std::uint64_t word = (cell->cellIndex - base) / cw_bits;
        if (word != cur_word) {
            fold_word();
            cur_word = word;
            e[0] = 1.0;
            for (unsigned k = 1; k <= radius; ++k)
                e[k] = 0.0;
        }
        for (unsigned k = radius; k >= 1; --k)
            e[k] = e[k] * (1.0 - p) + p * e[k - 1];
        e[0] *= (1.0 - p);
    }
    fold_word();

    // Event counters tick once per word per access; using the expected
    // per-access correctable count keeps multi-word lines exact.
    p_correctable = e_corr;
    p_uncorrectable = 1.0 - p_no_uncorr;
}

} // namespace

CacheArray::CacheArray(const CacheGeometry &geometry,
                       const VcDistribution &dist, Millivolt v_floor,
                       Rng &rng)
    : geo(geometry),
      eccCodec(&wordCodec(geometry.eccScheme, geometry.eccDataBits)),
      cellsPerLine(std::uint64_t(geometry.wordsPerLine()) *
                   eccCodec->codewordBits()),
      cells(geometry.name, geometry.totalCells(), dist, v_floor,
            /*aging_headroom=*/0.5 * dist.sigmaRandom, rng),
      store(geometry.numLines() * geometry.wordsPerLine()),
      deconfigured(geometry.numLines(), false),
      lineWeakIndex(geometry.numLines(), {0, 0})
{
    geo.validate();
    setCount = geo.numSets();
    wordsPerLine = geo.wordsPerLine();
    // Initialize every line with an encoded zero word so reads of
    // untouched lines decode cleanly.
    const Codeword zero = eccCodec->encode(0);
    std::fill(store.begin(), store.end(), zero);

    // Hoist the per-line weak-cell ranges: the population is sorted by
    // cell index, so each line's cells form one contiguous run. Cell
    // indices never change after sampling (aging shifts only voltages),
    // so the index is built exactly once.
    const auto &weak = cells.weakCells();
    for (std::size_t i = 0; i < weak.size();) {
        const std::uint64_t line = weak[i].cellIndex / cellsPerLine;
        std::size_t j = i + 1;
        while (j < weak.size() && weak[j].cellIndex / cellsPerLine == line)
            ++j;
        lineWeakIndex[line] = {std::uint32_t(i), std::uint32_t(j)};
        i = j;
    }
}

std::uint64_t
CacheArray::lineIndex(std::uint64_t set, unsigned way) const
{
    return set * geo.associativity + way;
}

void
CacheArray::checkLocation(std::uint64_t set, unsigned way) const
{
    if (set >= setCount || way >= geo.associativity)
        panic("cache '", geo.name, "': location (set ", set, ", way ", way,
              ") out of range");
}

std::uint64_t
CacheArray::lineCellBase(std::uint64_t set, unsigned way) const
{
    checkLocation(set, way);
    return lineIndex(set, way) * cellsPerLine;
}

void
CacheArray::writeLine(std::uint64_t set, unsigned way,
                      const std::vector<std::uint64_t> &words)
{
    checkLocation(set, way);
    if (words.size() != wordsPerLine)
        panic("cache '", geo.name, "': writeLine expects ",
              wordsPerLine, " words, got ", words.size());
    const std::uint64_t base = lineIndex(set, way) * wordsPerLine;
    for (unsigned w = 0; w < wordsPerLine; ++w)
        store[base + w] = eccCodec->encode(words[w]);
}

void
CacheArray::writePattern(std::uint64_t set, unsigned way,
                         std::uint64_t pattern)
{
    fillLine(set, way, eccCodec->encode(pattern));
}

void
CacheArray::fillLine(std::uint64_t set, unsigned way,
                     const Codeword &encoded)
{
    checkLocation(set, way);
    std::fill_n(store.begin() + lineIndex(set, way) * wordsPerLine,
                wordsPerLine, encoded);
}

void
CacheArray::writeWeakLines(const std::vector<std::uint64_t> &words)
{
    if (words.size() != wordsPerLine)
        panic("cache '", geo.name, "': writeWeakLines expects ",
              wordsPerLine, " words, got ", words.size());
    std::vector<Codeword> encoded(words.size());
    for (std::size_t w = 0; w < words.size(); ++w)
        encoded[w] = eccCodec->encode(words[w]);
    for (std::uint64_t line = 0; line < lineWeakIndex.size(); ++line) {
        const auto &[begin, end] = lineWeakIndex[line];
        if (begin != end)
            std::copy(encoded.begin(), encoded.end(),
                      store.begin() + line * wordsPerLine);
    }
}

WeakCellSpan
CacheArray::lineWeakSpan(std::uint64_t set, unsigned way) const
{
    checkLocation(set, way);
    const auto &[begin, end] = lineWeakIndex[lineIndex(set, way)];
    const WeakCell *base = cells.weakCells().data();
    return WeakCellSpan(base + begin, base + end);
}

std::vector<WeakCell>
CacheArray::lineWeakCells(std::uint64_t set, unsigned way) const
{
    const std::uint64_t base = lineCellBase(set, way);
    const WeakCellSpan span = lineWeakSpan(set, way);
    std::vector<WeakCell> weak(span.begin(), span.end());
    for (auto &cell : weak)
        cell.cellIndex -= base;
    return weak;
}

void
CacheArray::readLine(std::uint64_t set, unsigned way, Millivolt v_eff,
                     Rng &rng, LineReadResult &out) const
{
    checkLocation(set, way);
    out.data.resize(wordsPerLine);
    out.events.clear();
    out.uncorrectable = false;

    const std::uint64_t cell_base = lineCellBase(set, way);
    cells.sampleAccessFlipsInto(lineWeakSpan(set, way), cell_base, v_eff,
                                rng, flipScratch);

    // Flips come out in ascending cell order, i.e. already grouped by
    // codeword — walk them with a single cursor while iterating words.
    const unsigned cw_bits = eccCodec->codewordBits();
    std::size_t next_flip = 0;

    // Pattern fills store one codeword in every word and most words
    // take no flip, so runs of equal observed codewords share a decode.
    Codeword previous;
    DecodeResult decoded;
    const std::uint64_t word_base = lineIndex(set, way) * wordsPerLine;
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        Codeword observed = store[word_base + w];
        while (next_flip < flipScratch.size() &&
               flipScratch[next_flip] / cw_bits == w) {
            observed.flipBit(unsigned(flipScratch[next_flip] % cw_bits));
            ++next_flip;
        }

        if (w == 0 || !(observed == previous)) {
            decoded = eccCodec->decode(observed);
            previous = observed;
        }
        out.data[w] = decoded.data;

        if (decoded.status != EccStatus::ok) {
            EccEvent event;
            event.cacheName = geo.name;
            event.set = set;
            event.way = way;
            event.word = w;
            event.status = decoded.status;
            out.events.push_back(event);
            if (decoded.status == EccStatus::uncorrectable)
                out.uncorrectable = true;
        }
    }
}

void
CacheArray::computeLineEventProbabilities(WeakCellSpan span,
                                          std::uint64_t base,
                                          Millivolt v_eff,
                                          double &p_correctable,
                                          double &p_uncorrectable) const
{
    const WeakCell *first = span.begin();
    foldLine(first, span.end(), base, eccCodec->codewordBits(),
             eccCodec->correctableBits(),
             [&](std::size_t i) {
                 return cells.failureProbability(first[i], v_eff);
             },
             p_correctable, p_uncorrectable);
}

void
CacheArray::lineEventProbabilities(std::uint64_t set, unsigned way,
                                   Millivolt v_eff, double &p_correctable,
                                   double &p_uncorrectable) const
{
    const WeakCellSpan span = lineWeakSpan(set, way);
    if (span.empty()) {
        p_correctable = 0.0;
        p_uncorrectable = 0.0;
        return;
    }

    // Aging shifts every cell's Vc; one generation check drops the
    // whole LUT rather than tracking per-entry staleness.
    if (!probCache.empty() &&
        probCacheGeneration != cells.generation()) {
        std::fill(probCache.begin(), probCache.end(), ProbSlot{});
        probCacheGeneration = cells.generation();
    }

    // The bucket only forms the key; a hit additionally requires the
    // exact stored voltage. Quantized callers pass a bucket center, so
    // every voltage in their bucket shares one entry.
    const std::uint64_t key =
        (lineIndex(set, way) << 24) ^ std::uint64_t(probBucketIndex(v_eff));
    if (probCache.empty()) {
        probCache.resize(probCacheSlots);
        probCacheGeneration = cells.generation();
    }
    ProbSlot &slot = probCache[mix64(key) & (probCacheSlots - 1)];
    if (slot.key == key && slot.vEval == v_eff) {
        p_correctable = slot.pCorrectable;
        p_uncorrectable = slot.pUncorrectable;
        return;
    }

    computeLineEventProbabilities(span, lineIndex(set, way) * cellsPerLine,
                                  v_eff, p_correctable, p_uncorrectable);
    slot.key = key;
    slot.vEval = v_eff;
    slot.pCorrectable = p_correctable;
    slot.pUncorrectable = p_uncorrectable;
}

/*
 * Why sweepLines may leave zero lines out and draw faint lines from one
 * uniform, bit for bit. Let z be a line's weakest cell's (Vc - v_eff) /
 * sigmaDynamic, computed as failureProbability computes it, so no cell
 * of the line has a larger z or a larger Phi(z).
 *
 * Zero, z <= -40: Phi(z) = erfc(-z / sqrt 2) / 2 is below 4e-350,
 * under half the least subnormal, so it is exactly 0 (measured: Phi
 * reaches 0 from z ~ -38.48). foldLine skips every cell, both
 * probabilities are 0, and sampleProbe's two binomials return 0
 * without a draw.
 *
 * Faint, -37 < z <= -10, n = reads > 32, c cells with c * n <= 2^20:
 *  - every cell has p <= Phi(-10) < 2^-76, so 1 - p rounds to 1,
 *    foldLine's e[0] stays exactly 1.0 in every word, rem = 1 - e[0] -
 *    e[1] - ... <= 0 and p_uncorrectable is exactly 0: the
 *    uncorrectable binomial returns 0 without a draw;
 *  - the weakest cell's Phi(z) > Phi(-37) > 5e-300 is a normal double,
 *    so its word's e[1] >= Phi(z) and 0 < p_correctable < c * 2^-75
 *    (the fold's roundings included). So whole = 0, and binomial(n,
 *    p_correctable) takes its Poisson branch (n > 32, mean < 32,
 *    p < 0.05) with 0 < mean = n * p_correctable < 2^-55;
 *  - poisson(mean) draws one uniform u, and with mean < 2^-50 it goes
 *    to the product method, which returns 0 with no further draw when
 *    u <= exp(-mean) as computed. The exact value exceeds 1 - 2^-55,
 *    and the computed one is within 1 ulp (2^-53) of it, so it is 1 or
 *    1 - 2^-53, both above faintZeroBound.
 * So a faint line's pass draws exactly one uniform, and that uniform at
 * or below faintZeroBound means zero events. Above it (about one pass
 * in 2^38), faintLineEvents folds the line and finishes binomial's
 * Poisson draw from the same uniform through Rng::poissonFromUniform.
 */
void
CacheArray::sweepLines(Millivolt v_eff, std::uint64_t reads,
                       std::vector<SweepLine> &out) const
{
    out.clear();
    const double sigma = cells.distribution().sigmaDynamic;
    const WeakCell *base_cell = cells.weakCells().data();
    const bool faint_reads = reads > 32;
    const std::uint64_t faint_cells = faint_reads ? (1u << 20) / reads : 0;
    const std::vector<Millivolt> &vc_max = lineWeakestVcs();
    for (std::uint64_t index = 0; index < lineWeakIndex.size(); ++index) {
        const auto &[begin, end] = lineWeakIndex[index];
        if (begin == end)
            continue;
        const double z = (vc_max[index] - v_eff) / sigma;
        if (z <= zeroLineZ)
            continue;
        SweepLine &line = out.emplace_back();
        line.set = index / geo.associativity;
        line.way = unsigned(index % geo.associativity);
        line.faint = faint_reads && z > faintLineZ &&
                     z <= faintLineMaxZ && end - begin <= faint_cells;
        if (!line.faint) {
            computeLineEventProbabilities(
                WeakCellSpan(base_cell + begin, base_cell + end),
                index * cellsPerLine, v_eff, line.pCorrectable,
                line.pUncorrectable);
        }
    }
}

std::uint64_t
CacheArray::faintLineEvents(const SweepLine &line, Millivolt v_eff,
                            std::uint64_t reads, double u, Rng &rng) const
{
    double p_corr = 0.0, p_uncorr = 0.0;
    computeLineEventProbabilities(lineWeakSpan(line.set, line.way),
                                  lineIndex(line.set, line.way) *
                                      cellsPerLine,
                                  v_eff, p_corr, p_uncorr);
    // binomial(reads, p_corr)'s Poisson branch, clamped to reads as it
    // clamps; the other draws of sampleProbe are empty (see above).
    return std::min(reads, rng.poissonFromUniform(double(reads) * p_corr,
                                                  u));
}

ProbeStats
CacheArray::sampleProbe(double p_correctable, double p_uncorrectable,
                        std::uint64_t n_accesses, Rng &rng)
{
    ProbeStats stats;
    stats.accesses = n_accesses;
    // p_correctable is an expected event count per access; it can
    // slightly exceed 1 for lines with several weak words. Split into
    // whole events plus a binomial remainder.
    const std::uint64_t whole = std::uint64_t(p_correctable);
    const double frac = p_correctable - double(whole);
    stats.correctableEvents =
        whole * n_accesses + rng.binomial(n_accesses, frac);
    stats.uncorrectableEvents = rng.binomial(n_accesses, p_uncorrectable);
    return stats;
}

ProbeStats
CacheArray::probeLine(std::uint64_t set, unsigned way, Millivolt v_eff,
                      std::uint64_t n_accesses, Rng &rng) const
{
    double p_corr = 0.0, p_uncorr = 0.0;
    lineEventProbabilities(set, way, v_eff, p_corr, p_uncorr);
    return sampleProbe(p_corr, p_uncorr, n_accesses, rng);
}

std::vector<WeakLineInfo>
CacheArray::weakLines() const
{
    // Walk the per-line range index in ascending line order (the same
    // sequence the old per-cell map produced) so the weakest-first sort
    // below sees an identical input and ties resolve identically.
    std::vector<WeakLineInfo> result;
    const std::vector<Millivolt> &vc_max = lineWeakestVcs();
    for (std::uint64_t line = 0; line < lineWeakIndex.size(); ++line) {
        const auto &[begin, end] = lineWeakIndex[line];
        if (begin != end)
            result.push_back(weakLineInfo(line, vc_max[line]));
    }
    std::sort(result.begin(), result.end(),
              [](const WeakLineInfo &a, const WeakLineInfo &b) {
                  return a.weakestVc > b.weakestVc;
              });
    return result;
}

void
CacheArray::flipStoredBit(std::uint64_t set, unsigned way,
                          std::uint64_t bit_index)
{
    checkLocation(set, way);
    const unsigned cw_bits = eccCodec->codewordBits();
    const std::uint64_t word = bit_index / cw_bits;
    if (word >= wordsPerLine)
        panic("cache '", geo.name, "': flipStoredBit bit ", bit_index,
              " beyond the ", wordsPerLine, "-word line");
    const std::uint64_t base = lineIndex(set, way) * wordsPerLine;
    store[base + word].flipBit(unsigned(bit_index % cw_bits));
}

void
CacheArray::deconfigureLine(std::uint64_t set, unsigned way)
{
    checkLocation(set, way);
    deconfigured[lineIndex(set, way)] = true;
    ++deconfGen;
}

bool
CacheArray::isDeconfigured(std::uint64_t set, unsigned way) const
{
    checkLocation(set, way);
    return deconfigured[lineIndex(set, way)];
}

void
CacheArray::reconfigureLine(std::uint64_t set, unsigned way)
{
    checkLocation(set, way);
    deconfigured[lineIndex(set, way)] = false;
    ++deconfGen;
}

const std::vector<Millivolt> &
CacheArray::lineWeakestVcs() const
{
    if (!weakestVcValid || weakestVcGeneration != cells.generation()) {
        const auto &weak = cells.weakCells();
        weakestVcs.assign(lineWeakIndex.size(), 0.0);
        for (std::size_t line = 0; line < lineWeakIndex.size(); ++line) {
            const auto &[begin, end] = lineWeakIndex[line];
            if (begin == end)
                continue;
            Millivolt vc = weak[begin].vc;
            for (std::uint32_t i = begin + 1; i < end; ++i)
                vc = std::max(vc, weak[i].vc);
            weakestVcs[line] = vc;
        }
        weakestVcGeneration = cells.generation();
        weakestVcValid = true;
    }
    return weakestVcs;
}

WeakLineInfo
CacheArray::weakestLine() const
{
    // One pass over the memoized per-line maxima; the first line with
    // the largest Vc wins, as it heads weakLines()' weakest-first order
    // whenever that maximum is unique.
    const std::vector<Millivolt> &vc_max = lineWeakestVcs();
    const std::uint64_t none = lineWeakIndex.size();
    std::uint64_t best = none;
    for (std::uint64_t line = 0; line < lineWeakIndex.size(); ++line) {
        const auto &[begin, end] = lineWeakIndex[line];
        if (begin != end && (best == none || vc_max[line] > vc_max[best]))
            best = line;
    }
    return best == none ? WeakLineInfo{} : weakLineInfo(best, vc_max[best]);
}

WeakLineInfo
CacheArray::weakLineInfo(std::uint64_t line, Millivolt weakest_vc) const
{
    const auto &[begin, end] = lineWeakIndex[line];
    WeakLineInfo info;
    info.set = line / geo.associativity;
    info.way = unsigned(line % geo.associativity);
    info.weakestVc = weakest_vc;
    info.weakCellCount = end - begin;
    info.cellBegin = begin;
    info.cellEnd = end;
    return info;
}

void
CacheArray::saveState(StateWriter &w) const
{
    // Codec identity guard: the stored codewords are only meaningful
    // to the codec that produced them, so a restore into an array
    // built with a different protection tier must be refused rather
    // than decoded as garbage.
    w.putU8(std::uint8_t(geo.eccScheme));
    w.putU8(std::uint8_t(geo.eccDataBits));

    cells.saveState(w);

    // Run-length encode the codeword store: runs of identical
    // codewords (count, word0, word1). Monitor pattern rewrites and
    // injected flips perturb only a handful of lines, so the store
    // compresses from megabytes to a few runs.
    w.putU64(store.size());
    std::vector<std::uint64_t> runs;
    std::size_t i = 0;
    while (i < store.size()) {
        std::size_t j = i + 1;
        while (j < store.size() && store[j] == store[i])
            ++j;
        runs.push_back(j - i);
        runs.push_back(store[i].word(0));
        runs.push_back(store[i].word(1));
        i = j;
    }
    w.putU64Vector(runs);

    w.putU64(deconfigured.size());
    std::vector<std::uint64_t> deconf_idx;
    for (std::size_t line = 0; line < deconfigured.size(); ++line) {
        if (deconfigured[line])
            deconf_idx.push_back(line);
    }
    w.putU64Vector(deconf_idx);
}

void
CacheArray::loadState(StateReader &r)
{
    const std::uint8_t scheme = r.getU8();
    const std::uint8_t data_bits = r.getU8();
    if (scheme != std::uint8_t(geo.eccScheme) ||
        data_bits != geo.eccDataBits)
        throw SnapshotError(
            "cache '" + geo.name + "' codec mismatch: snapshot holds " +
            "scheme id " + std::to_string(scheme) + " (" +
            std::to_string(data_bits) + "-bit words), array is built " +
            "with " + schemeName(geo.eccScheme) + " (" +
            std::to_string(geo.eccDataBits) + "-bit words)");

    cells.loadState(r);

    const std::uint64_t store_size = r.getU64();
    if (store_size != store.size())
        throw SnapshotError("cache '" + geo.name +
                            "' store size mismatch");
    const std::vector<std::uint64_t> runs = r.getU64Vector();
    if (runs.size() % 3 != 0)
        throw SnapshotError("cache '" + geo.name +
                            "' malformed codeword run list");
    std::size_t pos = 0;
    for (std::size_t k = 0; k < runs.size(); k += 3) {
        const std::uint64_t count = runs[k];
        if (count == 0 || count > store.size() - pos)
            throw SnapshotError("cache '" + geo.name +
                                "' codeword runs overflow the store");
        const Codeword cw = Codeword::fromWords(runs[k + 1],
                                                runs[k + 2]);
        if (!cw.fitsWidth(eccCodec->codewordBits()))
            throw SnapshotError("cache '" + geo.name +
                                "' codeword carries bits beyond the " +
                                std::to_string(eccCodec->codewordBits()) +
                                "-bit codeword");
        for (std::uint64_t n = 0; n < count; ++n)
            store[pos++] = cw;
    }
    if (pos != store.size())
        throw SnapshotError("cache '" + geo.name +
                            "' codeword runs cover " +
                            std::to_string(pos) + " of " +
                            std::to_string(store.size()) + " words");

    const std::uint64_t num_lines = r.getU64();
    if (num_lines != deconfigured.size())
        throw SnapshotError("cache '" + geo.name +
                            "' line count mismatch");
    std::fill(deconfigured.begin(), deconfigured.end(), false);
    for (std::uint64_t line : r.getU64Vector()) {
        if (line >= deconfigured.size())
            throw SnapshotError("cache '" + geo.name +
                                "' deconfigured line out of range");
        deconfigured[line] = true;
    }
    ++deconfGen;

    // The probability LUT keys on the SRAM generation, but entries
    // computed against the pre-restore population could alias a
    // restored generation value; drop them outright. The weakest-Vc
    // memo has the same aliasing exposure, so it drops too.
    if (!probCache.empty())
        std::fill(probCache.begin(), probCache.end(), ProbSlot{});
    probCacheGeneration = cells.generation();
    weakestVcValid = false;
}

} // namespace vspec
