#include "cache/sweep.hh"

#include "common/logging.hh"

namespace vspec
{

std::pair<std::uint64_t, unsigned>
SweepResult::worstLine() const
{
    std::pair<std::uint64_t, unsigned> worst{0, 0};
    std::uint64_t best_count = 0;
    for (const auto &[line, count] : correctablePerLine) {
        if (count > best_count) {
            best_count = count;
            worst = line;
        }
    }
    return worst;
}

InstructionTemplate::InstructionTemplate(unsigned words_per_line)
{
    if (words_per_line < 2)
        fatal("InstructionTemplate needs at least two words per line");

    // Fill the line with the ADD/SUB/CMP filler sequence and terminate
    // with the conditional branch to the next replica (Fig. 6). The
    // final word carries the exit branch encoding in its upper half so
    // every replica can return to the caller.
    for (unsigned w = 0; w + 1 < words_per_line; ++w) {
        switch (w % 3) {
          case 0:
            encoded.push_back(opAdd | w);
            break;
          case 1:
            encoded.push_back(opSub | w);
            break;
          default:
            encoded.push_back(opCmp | w);
            break;
        }
    }
    encoded.push_back(opBnz | (opBrExit >> 32));
}

namespace sweep
{

namespace
{

/**
 * The exact sweep (classify, draw, write; see sweep.hh): @p passes
 * passes of @p reads reads per weak line at v_eff, after which every
 * weak line holds @p final_words. Probes never read the store, so one
 * write per line leaves the per-pass writes' state.
 */
SweepResult
exactSweep(CacheArray &array, Millivolt v_eff, std::uint64_t reads,
           std::size_t passes, const std::vector<std::uint64_t> &final_words,
           Rng &rng)
{
    std::vector<SweepLine> lines;
    array.sweepLines(v_eff, reads, lines);

    SweepResult result;
    result.linesTested = array.geometry().numLines();
    for (std::size_t pass = 0; pass < passes; ++pass) {
        for (const SweepLine &line : lines) {
            const ProbeStats stats =
                array.sampleSweepLine(line, v_eff, reads, rng);
            if (stats.correctableEvents > 0) {
                result.correctablePerLine[{line.set, line.way}] +=
                    stats.correctableEvents;
                result.totalCorrectable += stats.correctableEvents;
            }
            if (stats.uncorrectableEvents > 0)
                result.uncorrectable = true;
        }
    }

    array.writeWeakLines(final_words);
    return result;
}

} // namespace

SweepResult
dataSweep(CacheArray &array, Millivolt v_eff,
          std::uint64_t reads_per_pattern, Rng &rng)
{
    return exactSweep(array, v_eff, reads_per_pattern, dataPatterns.size(),
                      std::vector<std::uint64_t>(
                          array.geometry().wordsPerLine(),
                          dataPatterns.back()),
                      rng);
}

SweepResult
instructionSweep(CacheArray &array, Millivolt v_eff,
                 std::uint64_t reads_per_line, Rng &rng)
{
    return exactSweep(array, v_eff, reads_per_line, 1,
                      InstructionTemplate(array.geometry().wordsPerLine())
                          .words(),
                      rng);
}

} // namespace sweep

} // namespace vspec
