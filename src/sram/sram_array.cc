#include "sram/sram_array.hh"

#include "snapshot/state_io.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace vspec
{

SramArray::SramArray(std::string name, std::uint64_t n_cells,
                     const VcDistribution &dist, Millivolt v_floor,
                     Millivolt aging_headroom, Rng &rng)
    : arrayName(std::move(name)), cellCount(n_cells), cellDist(dist)
{
    if (n_cells == 0)
        fatal("SramArray '", arrayName, "' must have at least one cell");
    if (dist.sigmaDynamic <= 0.0)
        fatal("SramArray '", arrayName, "' needs a positive sigmaDynamic");

    cells = tail_sampler::sample(rng, n_cells, dist,
                                 v_floor - aging_headroom);
}

WeakCellSpan
SramArray::weakCellSpan(std::uint64_t lo, std::uint64_t hi) const
{
    const auto by_index = [](const WeakCell &c, std::uint64_t v) {
        return c.cellIndex < v;
    };
    auto first =
        std::lower_bound(cells.begin(), cells.end(), lo, by_index);
    auto last = std::lower_bound(first, cells.end(), hi, by_index);
    return WeakCellSpan(cells.data() + (first - cells.begin()),
                        cells.data() + (last - cells.begin()));
}

std::vector<WeakCell>
SramArray::weakCellsInRange(std::uint64_t lo, std::uint64_t hi) const
{
    const WeakCellSpan span = weakCellSpan(lo, hi);
    return std::vector<WeakCell>(span.begin(), span.end());
}

Millivolt
SramArray::weakestVcInRange(std::uint64_t lo, std::uint64_t hi) const
{
    Millivolt best = -std::numeric_limits<double>::infinity();
    for (const auto &cell : weakCellSpan(lo, hi))
        best = std::max(best, cell.vc);
    return best;
}

Millivolt
SramArray::weakestVc() const
{
    Millivolt best = -std::numeric_limits<double>::infinity();
    for (const auto &cell : cells)
        best = std::max(best, cell.vc);
    return best;
}

double
SramArray::failureProbability(const WeakCell &cell, Millivolt v_eff) const
{
    return math::normalCdf((cell.vc - v_eff) / cellDist.sigmaDynamic);
}

void
SramArray::applyAgingShift(Millivolt mean_shift, Millivolt sigma_shift,
                           Rng &rng)
{
    for (auto &cell : cells) {
        const Millivolt shift =
            std::max(0.0, rng.gaussian(mean_shift, sigma_shift));
        cell.vc += shift;
    }
    ++generation_;
}

void
SramArray::saveState(StateWriter &w) const
{
    w.putString(arrayName);
    w.putU64(cells.size());
    std::vector<double> vcs;
    vcs.reserve(cells.size());
    for (const WeakCell &cell : cells)
        vcs.push_back(cell.vc);
    w.putDoubleVector(vcs);
    w.putU64(generation_);
}

void
SramArray::loadState(StateReader &r)
{
    const std::string name = r.getString();
    if (name != arrayName)
        throw SnapshotError("SRAM array name mismatch: snapshot has '" +
                            name + "', restoring into '" + arrayName +
                            "'");
    const std::uint64_t count = r.getU64();
    if (count != cells.size())
        throw SnapshotError(
            "SRAM array '" + arrayName + "' weak-cell count mismatch (" +
            std::to_string(count) + " in snapshot, " +
            std::to_string(cells.size()) + " materialized)");
    const std::vector<double> vcs = r.getDoubleVector();
    if (vcs.size() != cells.size())
        throw SnapshotError("SRAM array '" + arrayName +
                            "' vc vector length mismatch");
    for (std::size_t i = 0; i < cells.size(); ++i)
        cells[i].vc = vcs[i];
    generation_ = r.getU64();
}

} // namespace vspec
