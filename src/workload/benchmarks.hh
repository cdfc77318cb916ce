/**
 * @file
 * Table-driven benchmark models for the suites of Table II: CoreMark,
 * SPECjbb2005, SPECint2000, SPECfp2000, and the server stress test.
 *
 * Each benchmark is reduced to the observables that matter to the
 * speculation system (see workload.hh): switching activity, IPC, L2
 * access rates and working-set coverage, plus mild periodic phase
 * structure. The per-application values are hand-assigned to match the
 * qualitative characters the paper leans on (e.g. mcf is memory-bound
 * with low activity and heavy L2D traffic; crafty is compute-bound with
 * high activity and light traffic).
 */

#ifndef VSPEC_WORKLOAD_BENCHMARKS_HH
#define VSPEC_WORKLOAD_BENCHMARKS_HH

#include <memory>
#include <string>
#include <vector>

#include "workload/workload.hh"

namespace vspec
{

/** Static description of one benchmark application. */
struct BenchmarkProfile
{
    std::string name;
    Suite suite = Suite::synthetic;
    /** Mean switching activity in [0, 1]. */
    double activity = 0.5;
    /** Committed IPC. */
    double ipc = 1.0;
    /** L2 data-side accesses per second (at the low frequency point). */
    double l2dAccessesPerSec = 1.0e6;
    /** L2 instruction-side accesses per second. */
    double l2iAccessesPerSec = 2.0e5;
    /** Fraction of cache lines in the working set. */
    double coverage = 0.7;
    /** Amplitude of slow activity phases in [0, 1]. */
    double phaseSwing = 0.1;
    /** Period of those phases (s). */
    Seconds phasePeriod = 20.0;
};

/**
 * Workload driven by a BenchmarkProfile. Activity oscillates slowly
 * around the profile mean with the configured phase structure (too slow
 * to excite PDN resonance; that needs the virus).
 */
class BenchmarkWorkload : public Workload
{
  public:
    explicit BenchmarkWorkload(BenchmarkProfile profile);

    const std::string &name() const override { return prof.name; }
    Suite suite() const override { return prof.suite; }
    WorkloadSample sampleAt(Seconds t) const override;

    const BenchmarkProfile &profile() const { return prof; }

  protected:
    double workingSetCoverage() const override { return prof.coverage; }

  private:
    BenchmarkProfile prof;
    /** Phase offset (s), deterministic per benchmark name. */
    Seconds phaseOffset;
};

namespace benchmarks
{

/** CoreMark kernels: list processing, matrix, state machine, CRC. */
std::vector<BenchmarkProfile> coreMark();
/** SPECjbb2005, 8 warehouses. */
std::vector<BenchmarkProfile> specJbb2005();
/** SPECint2000 applications run in the paper. */
std::vector<BenchmarkProfile> specInt2000();
/** SPECfp2000 applications run in the paper. */
std::vector<BenchmarkProfile> specFp2000();
/** The HP server stress test (CPU + cache/memory kernels). */
std::vector<BenchmarkProfile> stressTest();

/** All profiles from all suites. */
std::vector<BenchmarkProfile> all();

/** Profiles of one suite. */
std::vector<BenchmarkProfile> ofSuite(Suite suite);

/** Find a profile by name; fatal() if unknown. */
BenchmarkProfile lookup(const std::string &name);

/**
 * Convenience: build a looping back-to-back sequence over a whole
 * suite (how the evaluation runs each suite per core).
 */
std::shared_ptr<Workload> suiteSequence(Suite suite,
                                        Seconds per_benchmark = 60.0);

} // namespace benchmarks

} // namespace vspec

#endif // VSPEC_WORKLOAD_BENCHMARKS_HH
