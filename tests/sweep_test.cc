/**
 * @file
 * Tests for the calibration sweep engines (Fig. 6): the sweeps must
 * locate the genuinely weakest line and report per-line error counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "cache/geometry.hh"
#include "cache/sweep.hh"
#include "common/rng.hh"
#include "snapshot/state_io.hh"

namespace vspec
{
namespace
{

VcDistribution
noisyDist()
{
    VcDistribution d;
    d.mean = 300.0;
    d.sigmaRandom = 55.0;
    d.sigmaDynamic = 10.0;
    return d;
}

CacheGeometry
l2Geometry()
{
    return itanium9560::l2Data();
}

TEST(InstructionTemplate, ShapeAndTerminator)
{
    const InstructionTemplate tmpl(16);
    ASSERT_EQ(tmpl.words().size(), 16u);
    // Filler rotation ADD/SUB/CMP.
    EXPECT_EQ(tmpl.words()[0] & ~0xFFFFULL, InstructionTemplate::opAdd);
    EXPECT_EQ(tmpl.words()[1] & ~0xFFFFULL, InstructionTemplate::opSub);
    EXPECT_EQ(tmpl.words()[2] & ~0xFFFFULL, InstructionTemplate::opCmp);
    // The last word carries the conditional branch.
    EXPECT_EQ(tmpl.words().back() & InstructionTemplate::opBnz,
              InstructionTemplate::opBnz);
}

TEST(Sweep, FindsWeakestLine)
{
    Rng rng(1);
    CacheArray array(l2Geometry(), noisyDist(), 465.0, rng);
    const WeakLineInfo weakest = array.weakestLine();
    ASSERT_GT(weakest.weakCellCount, 0u);

    // Sweep a few mV below the weakest cell's Vc: only the weakest
    // line (and perhaps a runner-up) can err; the worst line must be
    // the true weakest.
    Rng draw(2);
    const SweepResult result =
        sweep::dataSweep(array, weakest.weakestVc - 5.0, 2000, draw);
    ASSERT_TRUE(result.anyErrors());
    const auto [set, way] = result.worstLine();
    EXPECT_EQ(set, weakest.set);
    EXPECT_EQ(way, weakest.way);
    EXPECT_EQ(result.linesTested, array.geometry().numLines());
}

TEST(Sweep, InstructionSweepFindsWeakestLine)
{
    Rng rng(3);
    CacheArray array(itanium9560::l2Instruction(), noisyDist(), 465.0,
                     rng);
    const WeakLineInfo weakest = array.weakestLine();
    Rng draw(4);
    const SweepResult result = sweep::instructionSweep(
        array, weakest.weakestVc - 5.0, 8000, draw);
    ASSERT_TRUE(result.anyErrors());
    const auto [set, way] = result.worstLine();
    EXPECT_EQ(set, weakest.set);
    EXPECT_EQ(way, weakest.way);
}

TEST(Sweep, SilentAtGenerousVoltage)
{
    Rng rng(5);
    CacheArray array(l2Geometry(), noisyDist(), 465.0, rng);
    Rng draw(6);
    const SweepResult result = sweep::dataSweep(
        array, array.sram().weakestVc() + 120.0, 500, draw);
    EXPECT_FALSE(result.anyErrors());
    EXPECT_FALSE(result.uncorrectable);
}

TEST(Sweep, ErrorCountGrowsAsVoltageDrops)
{
    Rng rng(7);
    CacheArray array(l2Geometry(), noisyDist(), 465.0, rng);
    const Millivolt top = array.sram().weakestVc();
    Rng draw(8);
    const auto high =
        sweep::dataSweep(array, top + 10.0, 1000, draw);
    const auto low = sweep::dataSweep(array, top - 20.0, 1000, draw);
    EXPECT_GT(low.totalCorrectable, high.totalCorrectable);
}

/** FNV-1a fold of 64-bit values. */
struct SweepDigest
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;

    void fold(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    }

    void fold(const SweepResult &result)
    {
        for (const auto &[line, count] : result.correctablePerLine) {
            fold(line.first);
            fold(line.second);
            fold(count);
        }
        fold(result.totalCorrectable);
        fold(result.uncorrectable);
        fold(result.linesTested);
    }
};

/**
 * Read every line back at a generous supply and check the store the
 * sweeps leave: lines with a weak cell hold @p weak_words, the others
 * still hold the construction-time zeros.
 */
void
expectSweptStore(const CacheArray &array,
                 const std::vector<std::uint64_t> &weak_words)
{
    const auto &geo = array.geometry();
    const std::vector<std::uint64_t> zeros(geo.wordsPerLine(), 0);
    Rng draw(99);
    LineReadResult read;
    for (std::uint64_t set = 0; set < geo.numSets(); ++set) {
        for (unsigned way = 0; way < geo.associativity; ++way) {
            array.readLine(set, way, 2000.0, draw, read);
            const bool weak = !array.lineWeakSpan(set, way).empty();
            ASSERT_TRUE(read.events.empty());
            ASSERT_EQ(read.data, weak ? weak_words : zeros)
                << "set " << set << " way " << way;
        }
    }
}

/**
 * Exact data and instruction sweeps of one L2 die per codec at the
 * given offsets from the weakest cell (by default three, from 5 mV
 * above it down 60 mV below it), with @p data_reads reads per pattern
 * and @p instr_reads reads per line: per-line counts, totals, the next
 * draw after each sweep (the draw count and order) and the saved array
 * state (the store) are pinned to recorded values.
 */
std::uint64_t
exactSweepDigest(EccScheme scheme,
                 std::vector<Millivolt> offsets = {5.0, -27.5, -60.0},
                 std::uint64_t data_reads = 200,
                 std::uint64_t instr_reads = 800)
{
    SweepDigest digest;
    for (const bool data : {true, false}) {
        CacheGeometry geo = data ? itanium9560::l2Data()
                                 : itanium9560::l2Instruction();
        geo.eccScheme = scheme;
        Rng rng(data ? 51 : 52);
        // At a 480 mV floor ~4% of the lines hold no weak cell, so the
        // store check covers lines the sweeps must leave untouched.
        CacheArray array(geo, noisyDist(), 480.0, rng);
        const Millivolt top = array.weakestLine().weakestVc;

        Rng draw(53);
        for (Millivolt offset : offsets) {
            const SweepResult result =
                data ? sweep::dataSweep(array, top + offset, data_reads,
                                        draw)
                     : sweep::instructionSweep(array, top + offset,
                                               instr_reads, draw);
            EXPECT_EQ(result.linesTested, geo.numLines());
            digest.fold(result);
            digest.fold(draw.next());
        }

        StateWriter w;
        w.beginSection("array");
        array.saveState(w);
        w.endSection();
        for (std::uint8_t byte : w.finish())
            digest.fold(byte);

        if (data) {
            expectSweptStore(array, std::vector<std::uint64_t>(
                                        geo.wordsPerLine(),
                                        sweep::dataPatterns.back()));
        } else {
            expectSweptStore(array,
                             InstructionTemplate(geo.wordsPerLine()).words());
        }
    }
    return digest.hash;
}

TEST(Sweep, ExactSweepsArePinned)
{
    EXPECT_EQ(exactSweepDigest(EccScheme::hamming),
              0x37e295c467b849c8ULL);
    EXPECT_EQ(exactSweepDigest(EccScheme::hsiao),
              0x10f41c4a6299d644ULL);
    EXPECT_EQ(exactSweepDigest(EccScheme::bch2),
              0x5b02ceb5e2d4826dULL);
    EXPECT_EQ(exactSweepDigest(EccScheme::bch3), 0x55b8ed435c3c6598ULL);
    // 400 mV above the weakest cell no cell's failure probability is
    // representable, so that sweep draws nothing; 150 mV above it
    // every cell's is below 2^-54. At 260 and 300 mV the lines' weakest
    // cells straddle the point (z ~ -38.5) where Phi reaches 0.
    EXPECT_EQ(exactSweepDigest(EccScheme::hamming, {400.0, 150.0}),
              0x552dbb028656da87ULL);
    EXPECT_EQ(exactSweepDigest(EccScheme::hamming, {300.0, 260.0}),
              0x3ada59d1a6ef0462ULL);
    // At most 32 reads per pass the binomial draws Bernoulli trials.
    EXPECT_EQ(exactSweepDigest(EccScheme::hamming, {5.0, -27.5, 150.0},
                               8, 32),
              0xa317c1193ff8e025ULL);
}

/**
 * The exact sweep drawn the plain way: every weak line folded at v_eff,
 * then probeLine's draw rule per line per pass, in ascending line
 * order.
 */
SweepResult
foldEverythingSweep(const CacheArray &array, Millivolt v_eff,
                    std::uint64_t reads, std::size_t passes, Rng &rng)
{
    const auto &geo = array.geometry();
    SweepResult result;
    result.linesTested = geo.numLines();
    for (std::size_t pass = 0; pass < passes; ++pass) {
        for (std::uint64_t set = 0; set < geo.numSets(); ++set) {
            for (unsigned way = 0; way < geo.associativity; ++way) {
                if (array.lineWeakSpan(set, way).empty())
                    continue;
                double p_corr = 0.0, p_uncorr = 0.0;
                array.lineEventProbabilities(set, way, v_eff, p_corr,
                                             p_uncorr);
                const ProbeStats stats = CacheArray::sampleProbe(
                    p_corr, p_uncorr, reads, rng);
                if (stats.correctableEvents > 0) {
                    result.correctablePerLine[{set, way}] +=
                        stats.correctableEvents;
                    result.totalCorrectable += stats.correctableEvents;
                }
                if (stats.uncorrectableEvents > 0)
                    result.uncorrectable = true;
            }
        }
    }
    return result;
}

void
expectSameSweep(const SweepResult &got, const SweepResult &want)
{
    EXPECT_EQ(got.correctablePerLine, want.correctablePerLine);
    EXPECT_EQ(got.totalCorrectable, want.totalCorrectable);
    EXPECT_EQ(got.uncorrectable, want.uncorrectable);
    EXPECT_EQ(got.linesTested, want.linesTested);
}

/** Multiplicative inverse of an odd @p a modulo 2^64 (Newton). */
std::uint64_t
inverseMod64(std::uint64_t a)
{
    std::uint64_t x = a;  // Correct to 3 bits for odd a.
    for (int i = 0; i < 5; ++i)
        x *= 2 - a * x;
    return x;
}

/**
 * A generator whose next() returns @p output: xoshiro256**'s output
 * function rotl(s[1] * 5, 7) * 9 inverted for s[1], restored through
 * loadState. The other state words are arbitrary nonzero values.
 */
Rng
rngWithNextOutput(std::uint64_t output)
{
    const std::uint64_t x = output * inverseMod64(9);
    const std::uint64_t y = (x >> 7) | (x << 57);
    StateWriter w;
    w.beginSection("rng");
    w.putU64(0x0123456789abcdefULL);
    w.putU64(y * inverseMod64(5));
    w.putU64(0x9e3779b97f4a7c15ULL);
    w.putU64(0xd1b54a32d192ed03ULL);
    w.putDouble(0.0);
    w.putBool(false);
    w.endSection();
    StateReader r(w.finish());
    r.beginSection("rng");
    Rng rng;
    rng.loadState(r);
    r.endSection();
    return rng;
}

TEST(Sweep, RareUniformOnAFaintLineMatchesTheFold)
{
    // The first weak line, in line order, sits 150 mV (15 dynamic
    // sigma) above v_eff, so no cell of it fails with a probability
    // near double rounding, while the lines 50+ mV weaker than it fold
    // as usual. The generator's next uniform is 1 - 2^-53, above every
    // bound a shortcut for such a line can use, so the sweep must
    // finish that draw the fold's way.
    Rng build(71);
    CacheArray array(l2Geometry(), noisyDist(), 480.0, build);
    const auto &geo = array.geometry();
    Millivolt first_vc = 0.0;
    bool found = false;
    for (std::uint64_t line = 0; line < geo.numLines() && !found; ++line) {
        const WeakCellSpan span = array.lineWeakSpan(
            line / geo.associativity, unsigned(line % geo.associativity));
        if (span.empty())
            continue;
        first_vc = span.front().vc;
        for (const WeakCell &cell : span)
            first_vc = std::max(first_vc, cell.vc);
        found = true;
    }
    ASSERT_TRUE(found);
    const Millivolt v_eff = first_vc + 150.0;
    ASSERT_GT(array.weakestLine().weakestVc, v_eff - 100.0);

    {
        Rng probe = rngWithNextOutput(~std::uint64_t(0));
        ASSERT_EQ(probe.uniform(), 1.0 - 0x1p-53);
    }
    for (const bool data : {true, false}) {
        Rng rng = rngWithNextOutput(~std::uint64_t(0));
        Rng reference = rngWithNextOutput(~std::uint64_t(0));
        const SweepResult got =
            data ? sweep::dataSweep(array, v_eff, 2500, rng)
                 : sweep::instructionSweep(array, v_eff, 10000, rng);
        const SweepResult want = foldEverythingSweep(
            array, v_eff, data ? 2500 : 10000,
            data ? sweep::dataPatterns.size() : 1, reference);
        expectSameSweep(got, want);
        EXPECT_EQ(rng.next(), reference.next());
    }
}

TEST(Sweep, RestoredArraySweepsLikeAFreshTwin)
{
    // The restored state holds critical voltages 100 mV higher under
    // the same SRAM generation the array had before the restore, so a
    // line classed from a stale weakest Vc would draw as a faint line
    // where it errs. Nothing derived from the old voltages may survive
    // loadState.
    const auto aged = [](Millivolt shift) {
        Rng build(72);
        auto array = std::make_unique<CacheArray>(l2Geometry(),
                                                  noisyDist(), 480.0,
                                                  build);
        Rng age(1);
        array->sram().applyAgingShift(shift, 0.0, age);
        return array;
    };
    const auto restored = aged(0.0);
    const auto twin = aged(100.0);
    ASSERT_EQ(restored->sram().generation(), twin->sram().generation());
    const Millivolt top = twin->weakestLine().weakestVc;
    const Millivolt offsets[] = {150.0, 60.0, 5.0, -27.5};
    {
        Rng draw(73);
        for (Millivolt offset : offsets) {
            sweep::dataSweep(*restored, top + offset, 2500, draw);
            sweep::instructionSweep(*restored, top + offset, 10000, draw);
        }
    }

    StateWriter w;
    w.beginSection("array");
    twin->saveState(w);
    w.endSection();
    {
        StateReader r(w.finish());
        r.beginSection("array");
        restored->loadState(r);
        r.endSection();
    }
    const auto fresh = aged(100.0);

    Rng draw_restored(74), draw_fresh(74);
    for (Millivolt offset : offsets) {
        expectSameSweep(
            sweep::dataSweep(*restored, top + offset, 2500, draw_restored),
            sweep::dataSweep(*fresh, top + offset, 2500, draw_fresh));
        expectSameSweep(sweep::instructionSweep(*restored, top + offset,
                                                10000, draw_restored),
                        sweep::instructionSweep(*fresh, top + offset,
                                                10000, draw_fresh));
        EXPECT_EQ(draw_restored.next(), draw_fresh.next()) << offset;
    }
}

TEST(SweepResult, WorstLineOfEmptyIsDefault)
{
    SweepResult empty;
    EXPECT_FALSE(empty.anyErrors());
    const auto [set, way] = empty.worstLine();
    EXPECT_EQ(set, 0u);
    EXPECT_EQ(way, 0u);
}

} // namespace
} // namespace vspec
