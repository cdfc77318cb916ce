/**
 * @file
 * Calibration sweep engines (Section III-C, Fig. 6).
 *
 * The calibration step progressively lowers the supply and, at each
 * level, sweeps the caches to find the lines that raise correctable
 * errors. The data-side sweep models march-pattern writes and reads
 * in cache-line-sized increments; the instruction-side sweep models the
 * firmware trick of Fig. 6 — a straight-line instruction template,
 * sized to one cache line and terminated by a conditional branch, is
 * replicated across memory so that execution walks every set and way of
 * the instruction cache.
 *
 * Both sweeps run three steps per call. Classify: each
 * line with a weak cell is classed by its weakest cell at v_eff
 * (CacheArray::sweepLines). A line no cell of which can fail in double
 * precision is dropped; a faint line, whose cells all fail with
 * probability below 2^-76, is kept unfolded; every other line gets its
 * exact per-access event probabilities, once. Draw: for each pass
 * (each data pattern, or the one template pass), for each kept line in
 * ascending line order, the event counts probeLine would draw
 * (CacheArray::sampleSweepLine): sampleProbe's draw for a folded line,
 * one uniform for a faint one, which folds it only when that uniform
 * exceeds 1 - 2^-38. The counts, the draws and their order are those
 * of folding every weak line and drawing it with sampleProbe. Write:
 * every weak line, deconfigured or not, is left holding what the last
 * pass stored; lines with no weak cell cannot err and are left
 * untouched.
 */

#ifndef VSPEC_CACHE_SWEEP_HH
#define VSPEC_CACHE_SWEEP_HH

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "cache/cache_array.hh"
#include "common/rng.hh"

namespace vspec
{

/** Per-line outcome of a sweep at one voltage. */
struct SweepResult
{
    /** Correctable event counts per (set, way). */
    std::map<std::pair<std::uint64_t, unsigned>, std::uint64_t>
        correctablePerLine;
    std::uint64_t totalCorrectable = 0;
    bool uncorrectable = false;
    std::uint64_t linesTested = 0;

    /** The line with the most correctable events, if any erred. */
    bool anyErrors() const { return totalCorrectable > 0; }
    std::pair<std::uint64_t, unsigned> worstLine() const;
};

/**
 * The straight-line instruction template of Fig. 6: a line-sized block
 * of filler ALU operations ending in a conditional branch that either
 * falls through to the next replica or returns to the caller. We model
 * the encoded bytes of the template as the data pattern written into
 * the instruction array during the sweep.
 */
class InstructionTemplate
{
  public:
    /** Build a template for a line of the given word count. */
    explicit InstructionTemplate(unsigned words_per_line);

    /** Encoded 64-bit words of the template (one cache line). */
    const std::vector<std::uint64_t> &words() const { return encoded; }

    /** Symbolic opcodes used by the template (for documentation). */
    static constexpr std::uint64_t opAdd = 0x8000000010200000ULL;
    static constexpr std::uint64_t opSub = 0x8000000010300000ULL;
    static constexpr std::uint64_t opCmp = 0x8000000010400000ULL;
    static constexpr std::uint64_t opBnz = 0x4000000020000000ULL;
    static constexpr std::uint64_t opBrExit = 0x4000000030000000ULL;

  private:
    std::vector<std::uint64_t> encoded;
};

namespace sweep
{

/** March-style data patterns used by the data-side sweep. */
constexpr std::array<std::uint64_t, 4> dataPatterns = {
    0x0000000000000000ULL,
    0xFFFFFFFFFFFFFFFFULL,
    0xAAAAAAAAAAAAAAAAULL,
    0x5555555555555555ULL,
};

/**
 * Sweep every line of a data array at effective supply v_eff: each
 * march pattern in turn is written to every line and read
 * @p reads_per_pattern times. Cell failures are content-independent,
 * so the patterns share one probability fold; afterwards every weak
 * line holds the last pattern (dataPatterns.back()).
 */
SweepResult dataSweep(CacheArray &array, Millivolt v_eff,
                      std::uint64_t reads_per_pattern, Rng &rng);

/**
 * Sweep every line of an instruction array: the replicated template is
 * written to each line (as the firmware's memory copy would place it)
 * and then fetched @p reads_per_line times; afterwards every weak line
 * holds the template.
 */
SweepResult instructionSweep(CacheArray &array, Millivolt v_eff,
                             std::uint64_t reads_per_line, Rng &rng);

} // namespace sweep

} // namespace vspec

#endif // VSPEC_CACHE_SWEEP_HH
