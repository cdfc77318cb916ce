/**
 * @file
 * ECC-protected cache data array.
 *
 * CacheArray owns the stored codewords and the statistical SRAM model
 * of the bit cells. Reads come in two flavors:
 *
 *  - readLine(): bit-accurate — samples individual cell failures,
 *    applies them to the stored codewords, and decodes them with the
 *    array's codec from the zoo (geometry().eccScheme) into a
 *    caller-owned LineReadResult, whose buffers are reused from read to
 *    read. Used by the functional cache paths (Cache::access, the
 *    firmware self-test).
 *
 *  - probeLine(): aggregate — computes per-word correctable and
 *    uncorrectable probabilities analytically from the line's weak
 *    cells and samples event *counts* binomially. Used by the hardware
 *    ECC monitor, which issues tens of thousands of probes per control
 *    interval; the calibration sweeps draw the same counts from
 *    sweepLines() through sampleSweepLine().
 *
 * Both paths are driven by the same weak-cell population, so they agree
 * statistically (a property test pins this).
 */

#ifndef VSPEC_CACHE_CACHE_ARRAY_HH
#define VSPEC_CACHE_CACHE_ARRAY_HH

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cache/ecc_event.hh"
#include "cache/geometry.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "ecc/codec.hh"
#include "sram/sram_array.hh"

namespace vspec
{

class StateWriter;
class StateReader;

/** A weak line summary: where it is and how weak. */
struct WeakLineInfo
{
    std::uint64_t set = 0;
    unsigned way = 0;
    /** Critical voltage of the line's weakest cell (mV). */
    Millivolt weakestVc = 0.0;
    /** Number of materialized weak cells in the line. */
    unsigned weakCellCount = 0;
    /**
     * Offsets of this line's weak cells into the owning array's sorted
     * weak-cell population ([cellBegin, cellEnd)) — the hoisted range
     * that makes line -> weak-cells lookup O(1) on the hot path
     * (resolve with CacheArray::weakSpanAt or lineWeakSpan).
     */
    std::uint32_t cellBegin = 0;
    std::uint32_t cellEnd = 0;
};

/**
 * One line an exact sweep draws from (CacheArray::sweepLines): its
 * exact per-access event probabilities, or, for a faint line, none.
 */
struct SweepLine
{
    std::uint64_t set = 0;
    unsigned way = 0;
    /**
     * No cell of the line fails with a probability near double
     * rounding: a pass draws one uniform and almost always zero events,
     * and the probabilities below are left unfolded.
     */
    bool faint = false;
    /** Expected correctable events per access. */
    double pCorrectable = 0.0;
    /** Probability that an access raises an uncorrectable event. */
    double pUncorrectable = 0.0;
};

/**
 * Result of a bit-accurate line read. readLine overwrites every field;
 * a caller that keeps one across reads keeps its buffers' capacity.
 */
struct LineReadResult
{
    std::vector<std::uint64_t> data;
    std::vector<EccEvent> events;
    bool uncorrectable = false;
};

class CacheArray
{
  public:
    /**
     * @param geometry cache shape (validated)
     * @param dist critical-voltage distribution of the data array cells
     * @param v_floor lowest supply the experiments will apply (mV)
     * @param rng generator for the weak-cell draw
     */
    CacheArray(const CacheGeometry &geometry, const VcDistribution &dist,
               Millivolt v_floor, Rng &rng);

    const CacheGeometry &geometry() const { return geo; }
    const SramArray &sram() const { return cells; }
    SramArray &sram() { return cells; }
    /** The protection codec (shared registry instance, geo.eccScheme). */
    const EccCodec &codec() const { return *eccCodec; }

    /** Store a full line of data words (encodes each word). */
    void writeLine(std::uint64_t set, unsigned way,
                   const std::vector<std::uint64_t> &words);

    /** Store a repeating test pattern into the line (one encode). */
    void writePattern(std::uint64_t set, unsigned way,
                      std::uint64_t pattern);

    /**
     * Store one codeword, already encoded with codec(), into every word
     * of the line: writePattern without the encode.
     */
    void fillLine(std::uint64_t set, unsigned way, const Codeword &encoded);

    /**
     * Store one line of data words, encoded once, into every line with
     * a weak cell (deconfigured or not): the store a sweep leaves.
     */
    void writeWeakLines(const std::vector<std::uint64_t> &words);

    /**
     * Bit-accurate read of a full line at effective supply v_eff into
     * @p out: the decoded words, one event per word that did not
     * decode clean, and whether any was uncorrectable. Each weak cell
     * of the line draws one Bernoulli, in ascending index order, on
     * its failure probability, remembered from the line's first read
     * at this exact v_eff and SRAM generation (ReadMemo). A word is
     * decoded only when its observed codeword (stored word plus
     * sampled flips) differs from the previous word's; otherwise the
     * previous word's result is reused, which is exact because decode
     * is pure.
     */
    void readLine(std::uint64_t set, unsigned way, Millivolt v_eff,
                  Rng &rng, LineReadResult &out) const;

    /** Aggregate probe of one line: n_accesses full-line reads. */
    ProbeStats probeLine(std::uint64_t set, unsigned way, Millivolt v_eff,
                         std::uint64_t n_accesses, Rng &rng) const;

    /**
     * The draw rule of probeLine and the calibration sweeps: whole
     * correctable events plus a binomial remainder (p_correctable can
     * exceed 1), then one binomial for the uncorrectables.
     */
    static ProbeStats sampleProbe(double p_correctable,
                                  double p_uncorrectable,
                                  std::uint64_t n_accesses, Rng &rng);

    /**
     * The lines an exact sweep of @p reads reads per pass at v_eff
     * draws from, in ascending line order, into @p out (cleared first).
     * Each line is classed by its weakest cell's z = (Vc - v_eff) /
     * sigmaDynamic (see the proof in cache_array.cc):
     *
     *  - zero (z <= zeroLineZ): every cell's Phi is exactly 0, so
     *    sampleProbe would draw nothing; the line is left out;
     *  - faint (faintLineZ < z <= faintLineMaxZ, reads > 32, weak cells
     *    x reads <= 2^20): listed unfolded; sampleSweepLine draws one
     *    uniform, which decides zero events unless it exceeds
     *    faintZeroBound;
     *  - every other weak line is folded exactly once. The LUT is
     *    bypassed: an exact-mode hit needs the exact voltage, so the
     *    values equal lineEventProbabilities' bit for bit.
     *
     * Drawing each listed line with sampleSweepLine gives, draw for
     * draw, the counts sampleProbe gives over every weak line's fold.
     */
    void sweepLines(Millivolt v_eff, std::uint64_t reads,
                    std::vector<SweepLine> &out) const;

    /**
     * One pass of @p reads reads of a line listed by sweepLines at the
     * same v_eff and reads: sampleProbe's draw, on one uniform for a
     * faint line.
     */
    ProbeStats sampleSweepLine(const SweepLine &line, Millivolt v_eff,
                               std::uint64_t reads, Rng &rng) const
    {
        if (!line.faint) {
            return sampleProbe(line.pCorrectable, line.pUncorrectable,
                               reads, rng);
        }
        ProbeStats stats;
        stats.accesses = reads;
        const double u = rng.uniform();
        if (u > faintZeroBound)
            stats.correctableEvents =
                faintLineEvents(line, v_eff, reads, u, rng);
        return stats;
    }

    /**
     * Expected per-access probability that a read of this line raises
     * at least one correctable event (and, separately, an uncorrectable
     * one) at v_eff. Exposed for calibration and the fast probe path.
     *
     * Backed by a per-line LUT keyed on the quantized effective voltage
     * (probQuantMv grid): when the line's probabilities were already
     * computed at this exact voltage, the cached pair is returned and
     * zero normalCdf evaluations run. Only the probabilities are
     * cached — never any random draws — and a hit requires an exact
     * voltage match, so results are bit-identical to the uncached
     * computation. applyAgingShift on the SRAM invalidates the LUT via
     * the generation counter.
     */
    void lineEventProbabilities(std::uint64_t set, unsigned way,
                                Millivolt v_eff, double &p_correctable,
                                double &p_uncorrectable) const;

    /** Voltage quantization grid of the probability LUT (mV). */
    static constexpr Millivolt probQuantMv = 0.25;

    /**
     * The single bucketing convention of the probability LUT:
     * round-half-up (toward +infinity), i.e. floor(v / probQuantMv
     * + 0.5). A voltage landing exactly on a bucket edge (an odd
     * multiple of probQuantMv / 2) therefore always maps to the
     * *upper* bucket, regardless of sign — unlike llround/round,
     * whose round-half-away-from-zero breaks that symmetry for the
     * negative-offset voltages aging shifts can produce. Every
     * bucket-index computation must go through this helper so exact
     * and quantized modes can never disagree on the bucket of the
     * same v_eff.
     */
    static std::int64_t probBucketIndex(Millivolt v_eff)
    {
        return std::int64_t(std::floor(v_eff / probQuantMv + 0.5));
    }

    /**
     * Center of v_eff's bucket: the voltage at which the chip-batched
     * mode evaluates every probability, so that all voltages in a
     * bucket share one LUT entry (maximum hit rate under a noisy rail).
     * The center maps back to the same bucket, so passing it to
     * lineEventProbabilities is the quantized lookup. The model error
     * is at most span-size * probQuantMv / (2 * sigmaDynamic *
     * sqrt(2*pi)) per probability (the normal pdf peak times half the
     * grid, summed over the line's weak cells); a regression test pins
     * the empirical bound.
     */
    static Millivolt probBucketCenter(Millivolt v_eff)
    {
        return Millivolt(probBucketIndex(v_eff)) * probQuantMv;
    }

    /**
     * Allocation-free view of one line's weak cells (flat array
     * indices, not rebased): O(1) via the per-line range index built at
     * construction.
     */
    WeakCellSpan lineWeakSpan(std::uint64_t set, unsigned way) const;

    /**
     * Resolve a WeakLineInfo's hoisted [cellBegin, cellEnd) range to a
     * span without touching the per-line index (for iteration driven
     * by Core::weakLines).
     */
    WeakCellSpan weakSpanAt(const WeakLineInfo &line) const
    {
        const WeakCell *base = cells.weakCells().data();
        return WeakCellSpan(base + line.cellBegin, base + line.cellEnd);
    }

    /** All lines containing at least one weak cell, weakest first. */
    std::vector<WeakLineInfo> weakLines() const;

    /**
     * The single weakest line (ties go to the lowest line index), or a
     * default WeakLineInfo if none.
     */
    WeakLineInfo weakestLine() const;

    /** Flat cell index of the first cell of a line. */
    std::uint64_t lineCellBase(std::uint64_t set, unsigned way) const;

    /**
     * Flip one stored bit of the line (fault injection): corrupts the
     * codeword in place, so subsequent bit-accurate reads decode a
     * correctable error (one flip) or an uncorrectable one (two flips
     * in the same codeword). @p bit_index addresses the line's bits
     * linearly, codewordBits() per word.
     */
    void flipStoredBit(std::uint64_t set, unsigned way,
                       std::uint64_t bit_index);

    /**
     * Take a line out of normal service (the monitor's designated line
     * stores no program data, Section III-C). Deconfigured lines are
     * skipped by replacement and by the workload traffic model, but the
     * monitor can still write/probe them.
     */
    void deconfigureLine(std::uint64_t set, unsigned way);
    bool isDeconfigured(std::uint64_t set, unsigned way) const;
    void reconfigureLine(std::uint64_t set, unsigned way);

    /**
     * Bumped whenever any line's deconfiguration flag changes (and on
     * loadState): consumers caching deconfiguration-dependent
     * aggregates — e.g. Core's per-array traffic rate memo — key on
     * this alongside the SRAM generation.
     */
    std::uint64_t deconfGeneration() const { return deconfGen; }

    /**
     * Serialize the array's dynamic state: the SRAM population (aged
     * critical voltages), the stored codewords (run-length encoded —
     * the store is dominated by repeated pattern/zero encodings) and
     * the per-line deconfiguration flags. The probability LUT, the
     * weakest-Vc memo and readLine's memo are derived caches and are
     * re-derived, never serialized; loadState drops them so no stale
     * pre-restore entry survives.
     */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    CacheGeometry geo;
    /** Shared immutable codec from the registry (never null). */
    const EccCodec *eccCodec;
    /**
     * geo.cellsPerLine(), resolved once from eccCodec: the per-access
     * cell-base arithmetic must not go through the codec registry,
     * whose lookup takes a process-wide lock.
     */
    std::uint64_t cellsPerLine;
    /** geo.numSets(), kept so checkLocation does no division. */
    std::uint64_t setCount = 0;
    /** geo.wordsPerLine(), kept so the per-word loops do no division. */
    unsigned wordsPerLine = 0;
    SramArray cells;
    /** Stored codewords, wordsPerLine per line. */
    std::vector<Codeword> store;
    /** Per-line deconfiguration flags. */
    std::vector<bool> deconfigured;
    /** See deconfGeneration(). */
    std::uint64_t deconfGen = 0;

    /**
     * Per-line [begin, end) offsets into the sorted weak-cell
     * population, one entry per line, built once at construction (cell
     * indices never change; aging only shifts voltages). Turns the
     * line -> weak-cells query from a binary search into an array load.
     */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> lineWeakIndex;

    /** Weakest-cell z at or below which a line cannot err. */
    static constexpr double zeroLineZ = -40.0;
    /** Bounds of a faint line's weakest-cell z: (faintLineZ, max]. */
    static constexpr double faintLineZ = -37.0;
    static constexpr double faintLineMaxZ = -10.0;
    /** A faint line's uniform at or below this draws zero events. */
    static constexpr double faintZeroBound = 1.0 - 0x1p-38;

    /**
     * Critical voltage of each line's weakest cell (0 for a line with
     * no weak cell), re-derived by lineWeakestVcs() when the SRAM
     * generation moves. loadState drops it, since a restored generation
     * can alias the old one with other voltages.
     */
    mutable std::vector<Millivolt> weakestVcs;
    mutable std::uint64_t weakestVcGeneration = 0;
    mutable bool weakestVcValid = false;

    /** weakestVcs, current for the SRAM population. */
    const std::vector<Millivolt> &lineWeakestVcs() const;

    /** Summary of weak line @p line (flat index) whose max Vc is given. */
    WeakLineInfo weakLineInfo(std::uint64_t line,
                              Millivolt weakest_vc) const;

    /**
     * Events of a faint line whose pass drew @p u > faintZeroBound:
     * the exact fold, then the rest of sampleProbe's draw from @p u.
     */
    std::uint64_t faintLineEvents(const SweepLine &line, Millivolt v_eff,
                                  std::uint64_t reads, double u,
                                  Rng &rng) const;

    /**
     * Per-line failure-probability LUT: direct-mapped open-addressing
     * cache keyed by (line, quantized voltage bucket), lazily allocated
     * on first probability query. Entries store the exact voltage they
     * were computed at plus the generation of the SRAM population, so
     * stale or colliding entries are recomputed, never reused.
     */
    struct ProbSlot
    {
        std::uint64_t key = ~std::uint64_t(0);
        Millivolt vEval = 0.0;
        double pCorrectable = 0.0;
        double pUncorrectable = 0.0;
    };
    static constexpr std::size_t probCacheSlots = 4096;
    mutable std::vector<ProbSlot> probCache;
    mutable std::uint64_t probCacheGeneration = 0;

    /**
     * readLine's memo, allocated on the first read: each weak cell's
     * failure probability at the exact vEff and SRAM generation, filled
     * on a line's first read there (lineEpoch[line] == epoch). A new key
     * bumps the epoch; loadState drops the memo (generations alias).
     */
    struct ReadMemo
    {
        Millivolt vEff = std::nan("");
        std::uint64_t generation = 0;
        std::uint64_t epoch = 0;
        std::vector<std::uint64_t> lineEpoch;
        std::vector<double> cellProb;
        std::vector<Codeword> observed;
    };
    mutable std::unique_ptr<ReadMemo> readMemo;

    /** Uncached exact fold of a line's weak cells from cell @p base. */
    void computeLineEventProbabilities(WeakCellSpan span,
                                       std::uint64_t base, Millivolt v_eff,
                                       double &p_correctable,
                                       double &p_uncorrectable) const;

    std::uint64_t lineIndex(std::uint64_t set, unsigned way) const;
    void checkLocation(std::uint64_t set, unsigned way) const;
};

} // namespace vspec

#endif // VSPEC_CACHE_CACHE_ARRAY_HH
