/**
 * @file
 * google-benchmark microbenchmarks of the substrate hot paths: the
 * SECDED codec, the targeted line probe, the bit-accurate read path,
 * the per-tick traffic sampler, and the whole-chip simulator tick.
 */

#include <benchmark/benchmark.h>

#include "vspec/vspec.hh"

using namespace vspec;

namespace
{

void
BM_SecdedEncode(benchmark::State &state)
{
    const SecdedCodec &codec = secded72();
    std::uint64_t data = 0x0123456789ABCDEFULL;
    for (auto _ : state) {
        benchmark::DoNotOptimize(codec.encode(data));
        data = data * 6364136223846793005ULL + 1;
    }
}
BENCHMARK(BM_SecdedEncode);

void
BM_SecdedDecodeClean(benchmark::State &state)
{
    const SecdedCodec &codec = secded72();
    const Codeword word = codec.encode(0xDEADBEEFCAFEF00DULL);
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.decode(word));
}
BENCHMARK(BM_SecdedDecodeClean);

void
BM_SecdedDecodeCorrect(benchmark::State &state)
{
    const SecdedCodec &codec = secded72();
    Codeword word = codec.encode(0xDEADBEEFCAFEF00DULL);
    word.flipBit(17);
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.decode(word));
}
BENCHMARK(BM_SecdedDecodeCorrect);

struct ArrayFixture
{
    ArrayFixture()
        : rng(1),
          array(itanium9560::l2Data(),
                VcDistribution{300.0, 55.0, 10.0}, 465.0, rng),
          line(array.weakestLine()), draw(2)
    {
    }
    Rng rng;
    CacheArray array;
    WeakLineInfo line;
    Rng draw;
};

void
BM_ProbeLineBurst(benchmark::State &state)
{
    static ArrayFixture fix;
    const Millivolt v = fix.line.weakestVc + 20.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(fix.array.probeLine(
            fix.line.set, fix.line.way, v, 500, fix.draw));
    }
}
BENCHMARK(BM_ProbeLineBurst);

void
BM_BitAccurateLineRead(benchmark::State &state)
{
    static ArrayFixture fix;
    const Millivolt v = fix.line.weakestVc + 20.0;
    LineReadResult read;
    for (auto _ : state) {
        fix.array.readLine(fix.line.set, fix.line.way, v, fix.draw, read);
        benchmark::DoNotOptimize(read.data.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_BitAccurateLineRead);

void
BM_LineEventProbabilities(benchmark::State &state)
{
    static ArrayFixture fix;
    const Millivolt v = fix.line.weakestVc + 20.0;
    double pc, pu;
    for (auto _ : state) {
        fix.array.lineEventProbabilities(fix.line.set, fix.line.way, v,
                                         pc, pu);
        benchmark::DoNotOptimize(pc);
    }
}
BENCHMARK(BM_LineEventProbabilities);

void
BM_SimulatorTick(benchmark::State &state)
{
    setInformEnabled(false);
    static ChipConfig cfg = [] {
        ChipConfig c;
        c.seed = 42;
        return c;
    }();
    static Chip chip(cfg);
    static bool armed = false;
    static std::unique_ptr<HardwareSpeculationSetup> setup;
    if (!armed) {
        setup = std::make_unique<HardwareSpeculationSetup>(
            harness::armHardware(chip));
        harness::assignSuite(chip, Suite::coreMark, 20.0);
        armed = true;
    }
    static Simulator sim(chip, 0.001);
    static bool attached = false;
    if (!attached) {
        sim.attachControlSystem(setup->control.get());
        attached = true;
    }
    for (auto _ : state)
        sim.run(0.001);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorTick);

void
BM_CalibrationSweepLevel(benchmark::State &state)
{
    static ArrayFixture fix;
    Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sweep::dataSweep(
            fix.array, fix.line.weakestVc + 10.0, 100, rng));
    }
}
BENCHMARK(BM_CalibrationSweepLevel);

} // namespace

BENCHMARK_MAIN();
