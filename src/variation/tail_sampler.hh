/**
 * @file
 * Tail sampler: materializes only the cells that can matter.
 *
 * A 512 KB L2 array has ~4 million cells; simulating each explicitly is
 * wasteful when, by construction, all but a handful have critical
 * voltages far below any supply we will ever apply. The sampler draws
 * the number of cells whose Vc exceeds a floor of interest
 * (Binomial(N, q) with q the Gaussian tail mass) and then draws each
 * materialized Vc from the conditional tail distribution, assigning it
 * a uniformly random position in the array. Cells below the floor are
 * represented implicitly and never fail.
 *
 * This is statistically exact for every observable the experiments
 * measure, as long as the floor sits below the lowest voltage applied
 * (the platform enforces this with a guard margin).
 */

#ifndef VSPEC_VARIATION_TAIL_SAMPLER_HH
#define VSPEC_VARIATION_TAIL_SAMPLER_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "variation/process_variation.hh"

namespace vspec
{

/** One explicitly materialized (weak) cell. */
struct WeakCell
{
    /** Flat bit index within the owning array. */
    std::uint64_t cellIndex = 0;
    /** Critical voltage of this cell (mV). */
    Millivolt vc = 0.0;
};

namespace tail_sampler
{

/**
 * Materialize all cells of an n_cells-bit array whose critical voltage
 * exceeds v_floor, for cells distributed per @p dist.
 *
 * Positions are unique; the result is sorted by ascending cell index,
 * the order SramArray and MemArray keep their populations in.
 */
std::vector<WeakCell> sample(Rng &rng, std::uint64_t n_cells,
                             const VcDistribution &dist,
                             Millivolt v_floor);

/** Gaussian upper-tail mass P(Vc > v_floor) for the distribution. */
double tailProbability(const VcDistribution &dist, Millivolt v_floor);

} // namespace tail_sampler

} // namespace vspec

#endif // VSPEC_VARIATION_TAIL_SAMPLER_HH
