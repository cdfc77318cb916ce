/**
 * @file
 * Statistical SRAM array model.
 *
 * An SramArray represents the bit cells of one cache/register array.
 * Cells are Gaussian in critical voltage; only the distribution's upper
 * tail (the cells that can fail within the simulated voltage window) is
 * materialized explicitly via the tail sampler. An access to a cell with
 * critical voltage Vc at effective supply V fails with probability
 * Phi((Vc - V) / sigmaDynamic) — a per-access *timing/read-disturb*
 * failure, not a retention failure: idle cells never lose data, which
 * is exactly the §V-E characterization result.
 */

#ifndef VSPEC_SRAM_SRAM_ARRAY_HH
#define VSPEC_SRAM_SRAM_ARRAY_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "variation/process_variation.hh"
#include "variation/tail_sampler.hh"

namespace vspec
{

class StateWriter;
class StateReader;

/**
 * Non-owning view over a contiguous run of materialized weak cells,
 * sorted by ascending cell index. The allocation-free currency of the
 * fault-sampling hot path: producers resolve a [lo, hi) cell range (or
 * a precomputed per-line index entry) to a span once, and consumers
 * iterate in place.
 */
class WeakCellSpan
{
  public:
    WeakCellSpan() = default;
    WeakCellSpan(const WeakCell *first, const WeakCell *last)
        : first_(first), last_(last)
    {
    }

    const WeakCell *begin() const { return first_; }
    const WeakCell *end() const { return last_; }
    bool empty() const { return first_ == last_; }
    std::size_t size() const { return std::size_t(last_ - first_); }
    const WeakCell &operator[](std::size_t i) const { return first_[i]; }
    const WeakCell &front() const { return *first_; }

  private:
    const WeakCell *first_ = nullptr;
    const WeakCell *last_ = nullptr;
};

/**
 * One SRAM bit array with statistically materialized weak cells.
 */
class SramArray
{
  public:
    /**
     * @param name human-readable array name (for logs)
     * @param n_cells total number of bit cells
     * @param dist critical-voltage distribution of the population
     * @param v_floor lowest supply voltage the experiments will apply;
     *        cells with Vc below (v_floor - headroom) stay implicit
     * @param aging_headroom extra materialization margin so future
     *        aging shifts can promote latent cells (mV)
     * @param rng generator used to draw the weak-cell population
     */
    SramArray(std::string name, std::uint64_t n_cells,
              const VcDistribution &dist, Millivolt v_floor,
              Millivolt aging_headroom, Rng &rng);

    const std::string &name() const { return arrayName; }
    std::uint64_t numCells() const { return cellCount; }
    const VcDistribution &distribution() const { return cellDist; }

    /** All materialized weak cells, sorted by ascending cell index. */
    const std::vector<WeakCell> &weakCells() const { return cells; }

    /**
     * Allocation-free view of the weak cells in [lo, hi): both bounds
     * resolved by binary search over the sorted population. This (and
     * the per-line index CacheArray builds on top of it) replaces the
     * old copy-returning range query on every hot path.
     */
    WeakCellSpan weakCellSpan(std::uint64_t lo, std::uint64_t hi) const;

    /** Weak cells whose index falls in [lo, hi), copied out. */
    std::vector<WeakCell> weakCellsInRange(std::uint64_t lo,
                                           std::uint64_t hi) const;

    /** Highest critical voltage in [lo, hi); -inf if none weak. */
    Millivolt weakestVcInRange(std::uint64_t lo, std::uint64_t hi) const;

    /** Highest critical voltage in the whole array. */
    Millivolt weakestVc() const;

    /**
     * Per-access failure probability of one cell at effective supply
     * v_eff.
     */
    double failureProbability(const WeakCell &cell, Millivolt v_eff) const;

    /**
     * Sample which cells in [lo, hi) flip during a single access at
     * v_eff. Returns indices relative to lo.
     */
    std::vector<std::uint64_t> sampleAccessFlips(std::uint64_t lo,
                                                 std::uint64_t hi,
                                                 Millivolt v_eff,
                                                 Rng &rng) const;

    /**
     * Allocation-free flavor: sample flips over an already-resolved
     * span, appending cell indices relative to @p base into @p out
     * (cleared first). Draw order matches sampleAccessFlips exactly —
     * one Bernoulli per weak cell, ascending index — so the two paths
     * consume identical RNG streams.
     */
    void sampleAccessFlipsInto(WeakCellSpan span, std::uint64_t base,
                               Millivolt v_eff, Rng &rng,
                               std::vector<std::uint64_t> &out) const;

    /**
     * Shift every materialized cell's critical voltage by an
     * independent draw from N(mean_shift, sigma_shift) — the aging hook
     * (cells only degrade; negative draws are clamped to zero).
     * Bumps generation(), invalidating derived probability caches.
     */
    void applyAgingShift(Millivolt mean_shift, Millivolt sigma_shift,
                         Rng &rng);

    /**
     * Monotonic counter bumped whenever cell critical voltages change
     * (aging). Consumers caching probabilities derived from the cells
     * (CacheArray's per-line LUT) compare it to detect staleness.
     */
    std::uint64_t generation() const { return generation_; }

    /**
     * Serialize the mutable population state: per-cell critical
     * voltages (aging shifts them) and the generation counter. Cell
     * *positions* are construction state — rebuilt identically from
     * the seed on restore — so loadState only verifies the count.
     */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    std::string arrayName;
    std::uint64_t cellCount;
    VcDistribution cellDist;
    /** Sorted by ascending cellIndex. */
    std::vector<WeakCell> cells;
    std::uint64_t generation_ = 0;
};

} // namespace vspec

#endif // VSPEC_SRAM_SRAM_ARRAY_HH
