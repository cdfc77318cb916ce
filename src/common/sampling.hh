/**
 * @file
 * Traffic-sampling fidelity knob of the Simulator tick and the fleets.
 * It selects only the tick: calibration sweeps and single-line probes
 * always draw exactly.
 *
 * The exact mode reproduces the historical draw-for-draw behaviour:
 * one Poisson/binomial draw per weak line per tick, so experiment
 * outputs are byte-identical across code versions. The chip-batched
 * mode exploits two closure properties of the error model — sums of
 * independent Poisson processes are Poisson, and "no uncorrectable on
 * any line" is the product of per-line survival probabilities — to
 * replace the per-line draws of a tick, evaluated at quantized
 * voltages, with a single draw from the aggregate. The sampled
 * distributions are unchanged (statistical regression tests pin this);
 * the RNG draw sequence is not, which is why chip-batched is opt-in.
 */

#ifndef VSPEC_COMMON_SAMPLING_HH
#define VSPEC_COMMON_SAMPLING_HH

#include <cstdint>
#include <string>

#include "snapshot/state_io.hh"

namespace vspec
{

enum class SamplingMode
{
    /**
     * Per-line, per-pattern draws with exact-voltage probability
     * lookups — bit-identical to the pre-LUT implementation.
     */
    exact = 0,
    /**
     * Chip/slice-granularity batching: one aggregate correctable draw
     * and one survival draw per chip per tick, summing each core's
     * rates at its own domain's bucket-center (quantized) voltage
     * (per-fleet-slice bucket pooling in ShardedFleet). Statistically
     * equivalent to exact, not draw-for-draw identical; events are
     * attributed back to lines/cores by thinning and per-line ECC
     * event log attribution is skipped.
     *
     * Value 1 belonged to the retired per-array "batched" mode; the
     * value stays pinned at 2 so chip-batched snapshots still restore.
     */
    chipBatched = 2,
};

/** Human-readable mode name (for bench/CLI output). */
inline const char *
samplingModeName(SamplingMode mode)
{
    switch (mode) {
      case SamplingMode::exact:
        return "exact";
      case SamplingMode::chipBatched:
        return "chip-batched";
    }
    return "unknown";
}

/**
 * Decode a sampling-mode byte read from a snapshot. Throws
 * SnapshotError naming the value for anything but exact (0) or
 * chip-batched (2), including the retired batched mode (1).
 */
inline SamplingMode
samplingModeFromByte(std::uint8_t byte)
{
    switch (byte) {
      case std::uint8_t(SamplingMode::exact):
        return SamplingMode::exact;
      case std::uint8_t(SamplingMode::chipBatched):
        return SamplingMode::chipBatched;
      case 1:
        throw SnapshotError("sampling mode 1 (batched) was retired; "
                            "resume with exact or chip-batched");
    }
    throw SnapshotError("invalid sampling mode " +
                        std::to_string(unsigned(byte)));
}

} // namespace vspec

#endif // VSPEC_COMMON_SAMPLING_HH
