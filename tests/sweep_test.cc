/**
 * @file
 * Tests for the calibration sweep engines (Fig. 6): the sweeps must
 * locate the genuinely weakest line and report per-line error counts.
 */

#include <gtest/gtest.h>

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
 * Three exact data and instruction sweeps of one L2 die per codec,
 * from 5 mV above the weakest cell down 60 mV below it: per-line
 * counts, totals, the next draw after each sweep (the draw count and
 * order) and the saved array state (the store) are pinned to recorded
 * values.
 */
std::uint64_t
exactSweepDigest(EccScheme scheme)
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
        for (Millivolt offset : {5.0, -27.5, -60.0}) {
            const SweepResult result =
                data ? sweep::dataSweep(array, top + offset, 200, draw)
                     : sweep::instructionSweep(array, top + offset, 800,
                                               draw);
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
