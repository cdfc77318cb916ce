#include "core/calibrator.hh"

#include "cache/sweep.hh"
#include "common/logging.hh"

namespace vspec
{

Calibrator::Calibrator() : Calibrator(Config()) {}

Calibrator::Calibrator(Config config)
    : cfg(config)
{
    if (cfg.stepMv <= 0.0 || cfg.readsPerPattern == 0)
        fatal("Calibrator: step and reads per pattern must be positive");
}

std::optional<WeakLineTarget>
Calibrator::calibrateDomain(const std::vector<Core *> &domain_cores,
                            Millivolt start_vdd, Rng &rng) const
{
    if (domain_cores.empty())
        fatal("Calibrator: domain has no cores");

    std::optional<WeakLineTarget> best;

    for (Millivolt v = start_vdd; v > start_vdd - cfg.maxDepthMv;
         v -= cfg.stepMv) {
        for (Core *core : domain_cores) {
            struct Side
            {
                CacheArray *array;
                bool instruction;
            };
            const Side sides[] = {{&core->l2iArray(), true},
                                  {&core->l2dArray(), false}};

            for (const Side &side : sides) {
                const SweepResult result =
                    side.instruction
                        ? sweep::instructionSweep(*side.array, v,
                                                  cfg.readsPerPattern *
                                                      sweep::dataPatterns
                                                          .size(),
                                                  rng)
                        : sweep::dataSweep(*side.array, v,
                                           cfg.readsPerPattern, rng);

                if (result.uncorrectable)
                    warn("calibration sweep hit an uncorrectable error "
                         "at ", v, " mV on core ", core->id(),
                         " — model calibration is too aggressive");

                if (result.anyErrors() && !best) {
                    const auto [set, way] = result.worstLine();
                    WeakLineTarget target;
                    target.coreId = core->id();
                    target.cacheName = side.array->geometry().name;
                    target.array = side.array;
                    target.set = set;
                    target.way = way;
                    target.firstErrorVdd = v;
                    best = target;
                }
            }
        }

        if (best)
            return best;
    }
    return std::nullopt;
}

} // namespace vspec
