/**
 * @file
 * Off-chip memory arrays as undervolting domains.
 *
 * The paper's speculation loop is SRAM-only, but the mechanism — lower
 * Vdd until the ECC correctable rate enters a target band — transfers
 * to any ECC-protected array. DRAM adds a second axis the SRAM model
 * lacks (Voltron, arXiv 1805.03175): undervolting stretches access
 * latency (tRCD/tRP scale with the restore current) before it breaks
 * reliability, and the error rate depends on the stored data pattern
 * and on retention (hence temperature). HBM repeats the story with
 * per-channel rails, pseudo-channel sharing and a steeper cliff.
 *
 * A MemArray models one such array per speculation domain:
 *
 *  - a weak-cell tail population (same tail_sampler machinery as the
 *    SRAM arrays) decorated with per-cell polarity (anti-cells fail
 *    toward the opposite data value) and a retention-limited fraction
 *    whose failure probability doubles every retentionDoublingC
 *    degrees above the reference temperature;
 *  - a voltage cliff underneath the weak tail: below cliffMv every
 *    cell's failure probability rises exponentially, the hard floor
 *    no codec budget can buy through;
 *  - a latency model: access time stretches linearly below a knee
 *    voltage, clamped at maxStretch, plus the block codec's decode
 *    latency charged on every read (the PR 6 "traits-only" follow-on);
 *  - the 512-byte block codec (BCH t=8 over real 4096-bit lines) as
 *    the native line codec: resident lines hold real packed codewords
 *    and readLine runs the real decoder, while the aggregate traffic
 *    and probe paths use the analytic Poisson superposition of the
 *    same per-bit probabilities (the batched-sampling discipline).
 *
 * Long-horizon hooks: applyAgingShift raises weak-cell Vc in place and
 * setTemperature rescales the retention term; both bump a generation
 * counter that invalidates the aggregate-rate cache so the controller
 * recalibrates against the drifted array.
 */

#ifndef VSPEC_MEM_MEM_ARRAY_HH
#define VSPEC_MEM_MEM_ARRAY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/ecc_event.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "ecc/bch.hh"

namespace vspec
{

class StateWriter;
class StateReader;

enum class MemKind : std::uint8_t
{
    dram = 0,
    hbm = 1,
};

const char *memKindName(MemKind kind);

struct MemArrayParams
{
    /** Domain family label ("dram", "hbm"). */
    std::string name = "dram";

    /** Banks (DRAM) or pseudo-channels (HBM). */
    unsigned numBanks = 4;
    /** 512-byte ECC lines per bank. */
    std::uint64_t linesPerBank = 4096;
    /** Rail nominal (mV). */
    Millivolt nominalMv = 1200.0;

    /*
     * Weak-cell Vc population: same materialized-tail scheme as the
     * SRAM arrays, but over bit cells of 4201-bit block codewords.
     */
    Millivolt weakCellMeanMv = 700.0;
    Millivolt sigmaRandomMv = 70.0;
    Millivolt sigmaDynamicMv = 14.0;
    /** Cells with Vc below this never materialize. */
    Millivolt materializeFloorMv = 1000.0;

    /*
     * The voltage cliff: below cliffMv the whole mat destabilizes
     * (restore failures), probability rising by e every
     * cliffSharpnessMv. This is what makes mem DUEs excursion events
     * rather than steady-state noise.
     */
    Millivolt cliffMv = 1030.0;
    Millivolt cliffSharpnessMv = 16.0;
    double cliffScale = 1e-9;

    /*
     * Data-pattern dependence (Voltron Fig. 12): a cell stressed by
     * the stored value fails at full probability; an unstressed cell
     * at (1 - patternSensitivity) of it.
     */
    double patternSensitivity = 0.6;
    /** Fraction of a cell's failure mass that is retention-limited. */
    double retentionWeight = 0.4;
    Celsius referenceTemp = 45.0;
    /** Retention-limited failures double every this many degrees. */
    Celsius retentionDoublingC = 10.0;

    /*
     * Latency coupling: accessLatencyNs(v) =
     *   baseAccessNs * (1 + stretch(v)) + decodeLatencyNs, with
     *   stretch(v) = clamp(stretchPerMv * (latencyKneeMv - v),
     *                      0, maxStretch).
     */
    double baseAccessNs = 45.0;
    Millivolt latencyKneeMv = 1150.0;
    double stretchPerMv = 0.0029;
    double maxStretch = 1.0;
    /** I/O clock charging the block codec's decode cycles (MHz). */
    double ioClockMhz = 800.0;

    /** Refresh power at nominal Vdd and reference temperature (W). */
    Watt refreshPowerAtNominal = 0.8;
    /** Energy per line access at nominal Vdd (nJ). */
    double accessEnergyNj = 15.0;
};

/** DRAM-calibrated defaults (the MemArrayParams initializers). */
MemArrayParams dramArrayDefaults();
/**
 * HBM-calibrated defaults: shorter base access, faster I/O clock,
 * steeper and higher cliff, stronger latency coupling, and more
 * pseudo-channels with fewer lines each.
 */
MemArrayParams hbmArrayDefaults();

/** One materialized weak bit cell within a codeword line. */
struct MemWeakBit
{
    /** Bit offset within the 4201-bit codeword. */
    unsigned bitOffset = 0;
    /** Failure threshold voltage (mV). */
    Millivolt vc = 0.0;
    /** Anti-cell: stressed by stored 0 instead of stored 1. */
    bool antiCell = false;
    /** Retention-limited fraction of this cell's failure mass [0,1]. */
    double retention = 0.0;
};

/** All materialized weak bits of one codeword line. */
struct MemWeakLine
{
    std::uint64_t line = 0;
    std::vector<MemWeakBit> bits;
};

class MemArray
{
  public:
    /** Probe data patterns cycled by the monitor. */
    static constexpr unsigned kNumPatterns = 4;
    /** Sentinel pattern: mean weight over the four patterns. */
    static constexpr unsigned kPatternAverage = 4;
    /** Sentinel pattern: every cell at full stress. */
    static constexpr unsigned kPatternWorst = 5;

    MemArray(MemKind kind, const MemArrayParams &params, Rng &rng);

    MemKind kind() const { return kind_; }
    const MemArrayParams &params() const { return prm; }
    const std::string &name() const { return prm.name; }
    unsigned numBanks() const { return prm.numBanks; }
    std::uint64_t linesPerBank() const { return prm.linesPerBank; }
    std::uint64_t numLines() const
    {
        return std::uint64_t(prm.numBanks) * prm.linesPerBank;
    }
    /** Bits per codeword line (data + check). */
    unsigned codewordBits() const;

    Celsius temperature() const { return temp; }
    /** Set the array temperature; invalidates cached rates. */
    void setTemperature(Celsius c);

    /**
     * Bumped by every event that changes the error surface (aging,
     * temperature); consumers key caches on it.
     */
    std::uint64_t generation() const { return generation_; }

    /** The materialized weak bits of one bank (sorted by line). */
    const std::vector<MemWeakLine> &weakLines(unsigned bank) const
    {
        return banks.at(bank).lines;
    }

    /** Failure probability of one weak bit at v under a pattern. */
    double bitFailureProbability(const MemWeakBit &bit, Millivolt v,
                                 unsigned pattern) const;
    /** Whole-mat restore-failure probability per bit below the cliff. */
    double cliffProbability(Millivolt v) const;

    struct LineProbabilities
    {
        /** P(read reports a corrected 1..t bit error). */
        double pCorrectable = 0.0;
        /** P(read reports an uncorrectable > t bit error). */
        double pUncorrectable = 0.0;
        /** Expected raw bit flips per read (Poisson mean). */
        double lambda = 0.0;
    };

    /** Analytic per-read event probabilities for one line. */
    LineProbabilities lineEventProbabilities(unsigned bank,
                                            std::uint64_t line,
                                            Millivolt v,
                                            unsigned pattern) const;

    /**
     * Probe one line n times at v under a pattern: binomial draws
     * from the analytic per-read probabilities (two RNG draws per
     * burst regardless of n — the batched-sampling discipline).
     */
    ProbeStats probeLine(unsigned bank, std::uint64_t line, Millivolt v,
                         std::uint64_t n, unsigned pattern, Rng &rng);

    /**
     * Store 64 data words into a line as a real packed block-codec
     * codeword (the resident-line path used by the monitor and tests;
     * aggregate traffic stays analytic).
     */
    void writeLine(unsigned bank, std::uint64_t line,
                   const std::vector<std::uint64_t> &data);
    bool lineResident(unsigned bank, std::uint64_t line) const;

    /**
     * Read a resident line at v: sample real bit flips from the weak
     * cells and the cliff, run the real BCH t=8 decoder, and report
     * its verdict. The stored codeword is not damaged — cell failures
     * here are read-disturb/restore events, re-written correct on the
     * (modeled) scrub that follows every probe.
     */
    BchBlockCodec::BlockDecodeResult readLine(unsigned bank,
                                              std::uint64_t line,
                                              Millivolt v,
                                              unsigned pattern,
                                              Rng &rng);

    /** Flip one stored bit of a resident line (fault injection). */
    void flipStoredBit(unsigned bank, std::uint64_t line, unsigned bit);

    /** Fractional access-time stretch at v (0 at and above the knee). */
    double latencyStretch(Millivolt v) const;
    /** Block codec decode latency charged per read (ns). */
    double decodeLatencyNs() const;
    /** Full access latency at v including decode (ns). */
    double accessLatencyNs(Millivolt v) const;

    /** Refresh power at v and the current temperature (W). */
    Watt refreshPower(Millivolt v) const;
    /** Energy per line access at v (J). */
    Joule accessEnergy(Millivolt v) const;
    /** Check-bit storage the block codec adds (Mbit). */
    double checkMbit() const;

    /** Raise weak-cell Vc in place (clamped-positive draws). */
    void applyAgingShift(Millivolt mean_shift_mv, Millivolt sigma_mv,
                         Rng &rng);

    struct WeakLineRef
    {
        unsigned bank = 0;
        std::uint64_t line = 0;
        Millivolt maxVc = 0.0;
        std::size_t cells = 0;
    };

    /**
     * The line whose worst cell has the highest Vc — the calibration
     * target (ties: more cells, then lowest bank/line).
     */
    WeakLineRef weakestLine() const;

    /**
     * Highest Vdd (1 mV grid, descending from nominal) at which the
     * weakest line's worst-pattern per-read event probability reaches
     * the threshold — the analogue of the SRAM first-error voltage.
     */
    Millivolt firstErrorVoltage(double threshold = 1e-3) const;

    struct AggregateRates
    {
        /** Mean per-access correctable probability over the array. */
        double pCorrectable = 0.0;
        /** Mean per-access uncorrectable probability. */
        double pUncorrectable = 0.0;
    };

    /**
     * Array-mean per-access event rates at v under the average
     * pattern, for the aggregate traffic model. Cached per
     * (generation, quantized v).
     */
    AggregateRates aggregateRates(Millivolt v) const;

    /**
     * Serialize temperature, generation, every weak cell's drifted Vc
     * and the resident codewords. loadState overlays onto a
     * same-params reconstruction and refuses structural mismatches.
     */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    struct Bank
    {
        std::vector<MemWeakLine> lines;
    };

    /** Value a pattern stores at a bit offset. */
    static bool patternBit(unsigned pattern, unsigned offset);
    double patternWeight(const MemWeakBit &bit, unsigned pattern) const;
    double temperatureFactor(const MemWeakBit &bit) const;
    const MemWeakLine *findLine(unsigned bank, std::uint64_t line) const;

    MemKind kind_;
    MemArrayParams prm;
    Celsius temp;
    std::uint64_t generation_ = 0;
    std::vector<Bank> banks;

    /** Resident real codewords, keyed (bank, line). */
    std::map<std::pair<unsigned, std::uint64_t>,
             std::vector<std::uint64_t>>
        resident;

    mutable bool cacheValid = false;
    mutable std::uint64_t cacheGeneration = 0;
    mutable long long cacheVKey = 0;
    mutable AggregateRates cacheRates;
};

/** DRAM bank array: Voltron-calibrated defaults. */
class DramArray : public MemArray
{
  public:
    explicit DramArray(Rng &rng) : DramArray(dramArrayDefaults(), rng) {}
    DramArray(const MemArrayParams &params, Rng &rng)
        : MemArray(MemKind::dram, params, rng)
    {
    }
};

/** HBM stack: per-channel rails, steeper cliff. */
class HbmStack : public MemArray
{
  public:
    explicit HbmStack(Rng &rng) : HbmStack(hbmArrayDefaults(), rng) {}
    HbmStack(const MemArrayParams &params, Rng &rng)
        : MemArray(MemKind::hbm, params, rng)
    {
    }
};

/** Build the array variant for a kind. */
std::unique_ptr<MemArray> makeMemArray(MemKind kind,
                                       const MemArrayParams &params,
                                       Rng &rng);

} // namespace vspec

#endif // VSPEC_MEM_MEM_ARRAY_HH
