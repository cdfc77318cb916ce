/**
 * @file
 * The uncached reference of CacheArray::readLine's flip draw, for the
 * SRAM and cache tests: one Bernoulli per weak cell on its failure
 * probability, computed afresh, in ascending cell index order.
 */

#ifndef VSPEC_TESTS_REFERENCE_FLIPS_HH
#define VSPEC_TESTS_REFERENCE_FLIPS_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "sram/sram_array.hh"

namespace vspec
{

/** Flips of one access to @p span at v_eff, as offsets from @p base. */
inline std::vector<std::uint64_t>
referenceFlips(const SramArray &sram, WeakCellSpan span,
               std::uint64_t base, Millivolt v_eff, Rng &rng)
{
    std::vector<std::uint64_t> flips;
    for (const WeakCell &cell : span) {
        if (rng.bernoulli(sram.failureProbability(cell, v_eff)))
            flips.push_back(cell.cellIndex - base);
    }
    return flips;
}

} // namespace vspec

#endif // VSPEC_TESTS_REFERENCE_FLIPS_HH
