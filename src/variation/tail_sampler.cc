#include "variation/tail_sampler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace vspec
{

namespace tail_sampler
{

double
tailProbability(const VcDistribution &dist, Millivolt v_floor)
{
    if (dist.sigmaRandom <= 0.0)
        return v_floor < dist.mean ? 1.0 : 0.0;
    const double z = (v_floor - dist.mean) / dist.sigmaRandom;
    return 1.0 - math::normalCdf(z);
}

std::vector<WeakCell>
sample(Rng &rng, std::uint64_t n_cells, const VcDistribution &dist,
       Millivolt v_floor)
{
    const double q = tailProbability(dist, v_floor);
    if (q * double(n_cells) > 1e6)
        fatal("tail sampler asked to materialize ~", q * double(n_cells),
              " cells; raise the floor (floor=", v_floor, " mV, mean=",
              dist.mean, " mV)");

    const std::uint64_t count = rng.binomial(n_cells, q);

    std::vector<WeakCell> cells;
    cells.reserve(count);

    // Positions drawn so far: an open-addressed set, linear probing at a
    // load of at most 1/2. uniformInt never returns ~0, the empty mark.
    constexpr std::uint64_t empty = ~std::uint64_t(0);
    std::size_t mask = 15;
    while (mask < 2 * count)
        mask = 2 * mask + 1;
    std::vector<std::uint64_t> used(mask + 1, empty);
    const auto insert = [&](std::uint64_t pos) {
        for (std::size_t h = mix64(pos) & mask;; h = (h + 1) & mask) {
            if (used[h] == empty) {
                used[h] = pos;
                return true;
            }
            if (used[h] == pos)
                return false;
        }
    };

    for (std::uint64_t i = 0; i < count; ++i) {
        // Conditional tail draw: u ~ U(0, 1), Vc at quantile 1 - u*q.
        const double u = rng.uniform();
        const double p = 1.0 - u * q;
        const double z = math::normalQuantile(p);

        WeakCell cell;
        cell.vc = dist.mean + dist.sigmaRandom * z;

        // Unique position (collisions vanishingly rare; retry).
        std::uint64_t pos;
        do {
            pos = rng.uniformInt(n_cells);
        } while (!insert(pos));
        cell.cellIndex = pos;

        cells.push_back(cell);
    }

    std::sort(cells.begin(), cells.end(),
              [](const WeakCell &a, const WeakCell &b) {
                  return a.cellIndex < b.cellIndex;
              });
    return cells;
}

} // namespace tail_sampler

} // namespace vspec
