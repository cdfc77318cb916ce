/**
 * @file
 * Tests for the ECC-protected cache data array and the functional
 * cache (tags, LRU, deconfiguration).
 */

#include <cmath>
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/cache_array.hh"
#include "cache/geometry.hh"
#include "common/rng.hh"
#include "reference_flips.hh"
#include "snapshot/state_io.hh"

namespace vspec
{
namespace
{

VcDistribution
quietDist()
{
    // Cells so strong that nothing ever fails in the tested range.
    VcDistribution d;
    d.mean = 100.0;
    d.sigmaRandom = 5.0;
    d.sigmaDynamic = 5.0;
    return d;
}

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
smallGeometry()
{
    CacheGeometry g;
    g.name = "small";
    g.sizeBytes = 32 * 1024;
    g.associativity = 4;
    g.lineBytes = 128;
    g.cellClass = CellClass::denseL2;
    g.validate();
    return g;
}

TEST(CacheGeometry, Table1Presets)
{
    const auto l1d = itanium9560::l1Data();
    EXPECT_EQ(l1d.sizeBytes, 16u * 1024);
    EXPECT_EQ(l1d.associativity, 4u);
    EXPECT_EQ(l1d.numSets(), 64u);

    const auto l2i = itanium9560::l2Instruction();
    EXPECT_EQ(l2i.sizeBytes, 512u * 1024);
    EXPECT_EQ(l2i.associativity, 8u);
    EXPECT_EQ(l2i.numLines(), 4096u);
    EXPECT_EQ(l2i.numSets(), 512u);
    EXPECT_EQ(l2i.wordsPerLine(), 16u);
    // 16 codewords of 72 bits per 128 B line.
    EXPECT_EQ(l2i.cellsPerLine(), 16u * 72);

    const auto l2d = itanium9560::l2Data();
    EXPECT_EQ(l2d.sizeBytes, 256u * 1024);
    EXPECT_EQ(l2d.numSets(), 256u);

    const auto l3 = itanium9560::l3Unified();
    EXPECT_EQ(l3.sizeBytes, 32ull * 1024 * 1024);
    EXPECT_EQ(l3.associativity, 32u);
}

TEST(CacheArray, CleanReadAtSafeVoltage)
{
    Rng rng(1);
    CacheArray array(smallGeometry(), quietDist(), 150.0, rng);
    std::vector<std::uint64_t> words(array.geometry().wordsPerLine());
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] = 0x1111111111111111ULL * i;
    array.writeLine(3, 2, words);

    Rng draw(2);
    LineReadResult read;
    array.readLine(3, 2, 800.0, draw, read);
    EXPECT_FALSE(read.uncorrectable);
    EXPECT_TRUE(read.events.empty());
    EXPECT_EQ(read.data, words);
}

/**
 * readLine overwrites every field of a reused result: a read of a
 * clean line into a buffer left by an uncorrectable read (or filled
 * with junk) reports the clean line alone.
 */
TEST(CacheArray, ReadLineOverwritesAReusedResult)
{
    Rng rng(24);
    CacheArray array(smallGeometry(), quietDist(), 150.0, rng);
    std::vector<std::uint64_t> words(array.geometry().wordsPerLine());
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] = 0x0F0F0F0F0F0F0F0FULL + i;
    array.writeLine(2, 1, words);
    array.writePattern(4, 3, 0x77);
    array.flipStoredBit(4, 3, 9);
    array.flipStoredBit(4, 3, 10);

    LineReadResult read;
    read.data.assign(3, 0xDEAD);
    read.events.resize(40);
    read.uncorrectable = true;
    Rng draw(25);
    array.readLine(2, 1, 800.0, draw, read);
    EXPECT_EQ(read.data, words);
    EXPECT_TRUE(read.events.empty());
    EXPECT_FALSE(read.uncorrectable);

    array.readLine(4, 3, 800.0, draw, read);
    EXPECT_TRUE(read.uncorrectable);
    ASSERT_EQ(read.events.size(), 1u);
    EXPECT_EQ(read.events[0].word, 0u);
    EXPECT_EQ(read.data.size(), words.size());

    array.readLine(2, 1, 800.0, draw, read);
    EXPECT_EQ(read.data, words);
    EXPECT_TRUE(read.events.empty());
    EXPECT_FALSE(read.uncorrectable);
}

TEST(CacheArray, WeakLineErrsAndCorrects)
{
    Rng rng(3);
    CacheArray array(smallGeometry(), noisyDist(), 465.0, rng);
    const WeakLineInfo weakest = array.weakestLine();
    ASSERT_GT(weakest.weakCellCount, 0u);

    array.writePattern(weakest.set, weakest.way, 0xAAAAAAAAAAAAAAAAULL);

    // Far below the weakest cell's Vc: the read must report at least
    // one correctable event — and the *data* must still decode to the
    // written pattern (ECC corrected it).
    Rng draw(4);
    bool saw_event = false;
    LineReadResult read;
    for (int i = 0; i < 50 && !saw_event; ++i) {
        array.readLine(weakest.set, weakest.way, weakest.weakestVc - 30.0,
                       draw, read);
        for (const auto &event : read.events) {
            if (event.status == EccStatus::correctedSingle) {
                saw_event = true;
                EXPECT_EQ(read.data[event.word],
                          0xAAAAAAAAAAAAAAAAULL);
            }
        }
    }
    EXPECT_TRUE(saw_event);
}

TEST(CacheArray, ProbeMatchesBitAccuratePath)
{
    // The aggregate probe path and the bit-accurate read path are two
    // implementations over the same weak cells; their correctable
    // event rates must agree statistically.
    Rng rng(5);
    CacheArray array(smallGeometry(), noisyDist(), 465.0, rng);
    const WeakLineInfo weakest = array.weakestLine();
    const Millivolt v = weakest.weakestVc + 5.0;

    Rng draw_a(6), draw_b(7);
    const std::uint64_t n = 20000;
    const ProbeStats probe =
        array.probeLine(weakest.set, weakest.way, v, n, draw_a);

    std::uint64_t events = 0;
    LineReadResult read;
    for (std::uint64_t i = 0; i < n; ++i) {
        array.readLine(weakest.set, weakest.way, v, draw_b, read);
        for (const auto &event : read.events)
            events += (event.status == EccStatus::correctedSingle);
    }

    const double rate_probe = double(probe.correctableEvents) / n;
    const double rate_read = double(events) / n;
    const double sigma =
        std::sqrt(std::max(rate_read, 1e-6) / double(n));
    EXPECT_NEAR(rate_probe, rate_read, 6.0 * sigma + 0.01);
}

TEST(CacheArray, EventProbabilitiesMonotoneInVoltage)
{
    Rng rng(8);
    CacheArray array(smallGeometry(), noisyDist(), 465.0, rng);
    const WeakLineInfo weakest = array.weakestLine();

    double prev_corr = 2.0, prev_unc = 2.0;
    for (Millivolt v = weakest.weakestVc - 40.0;
         v <= weakest.weakestVc + 60.0; v += 5.0) {
        double pc = 0.0, pu = 0.0;
        array.lineEventProbabilities(weakest.set, weakest.way, v, pc, pu);
        EXPECT_LE(pu, prev_unc + 1e-12);
        prev_unc = pu;
        EXPECT_GE(pc, 0.0);
        EXPECT_GE(pu, 0.0);
        (void)prev_corr;
    }
}

TEST(CacheArray, WeakLinesSortedAndComplete)
{
    Rng rng(9);
    CacheArray array(smallGeometry(), noisyDist(), 465.0, rng);
    const auto lines = array.weakLines();
    ASSERT_FALSE(lines.empty());
    std::size_t cells = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (i > 0)
            EXPECT_LE(lines[i].weakestVc, lines[i - 1].weakestVc);
        cells += lines[i].weakCellCount;
        EXPECT_EQ(array.lineWeakSpan(lines[i].set, lines[i].way).size(),
                  lines[i].weakCellCount);
    }
    EXPECT_EQ(cells, array.sram().weakCells().size());
}

TEST(CacheArray, DeconfigurationFlags)
{
    Rng rng(10);
    CacheArray array(smallGeometry(), quietDist(), 150.0, rng);
    EXPECT_FALSE(array.isDeconfigured(5, 1));
    array.deconfigureLine(5, 1);
    EXPECT_TRUE(array.isDeconfigured(5, 1));
    array.reconfigureLine(5, 1);
    EXPECT_FALSE(array.isDeconfigured(5, 1));
}

TEST(CacheArray, OutOfRangeLocationsPanic)
{
    // Every located access checks its bounds against the set count:
    // one past the last set, one past the last way and a wrapped-around
    // set all panic, through the tick's probability lookup and the
    // deconfiguration query alike.
    Rng rng(10);
    const CacheArray array(smallGeometry(), quietDist(), 150.0, rng);
    const std::uint64_t sets = array.geometry().numSets();
    const unsigned ways = array.geometry().associativity;
    double pc = 0.0, pu = 0.0;
    EXPECT_DEATH(array.lineEventProbabilities(sets, 0, 700.0, pc, pu),
                 "out of range");
    EXPECT_DEATH(array.lineEventProbabilities(0, ways, 700.0, pc, pu),
                 "out of range");
    EXPECT_DEATH(array.lineEventProbabilities(UINT64_MAX, 0, 700.0, pc,
                                              pu),
                 "out of range");
    EXPECT_DEATH((void)array.isDeconfigured(sets, 0), "out of range");
    EXPECT_DEATH((void)array.isDeconfigured(0, ways), "out of range");
    EXPECT_DEATH((void)array.isDeconfigured(UINT64_MAX, 0), "out of range");
    // The last valid location still answers.
    array.lineEventProbabilities(sets - 1, ways - 1, 700.0, pc, pu);
    EXPECT_FALSE(array.isDeconfigured(sets - 1, ways - 1));
}

TEST(Cache, AddressMappingRoundTrip)
{
    Rng rng(11);
    Cache cache(smallGeometry(), quietDist(), 150.0, rng);
    const auto &geo = cache.geometry();
    for (std::uint64_t addr : {0ull, 128ull, 12800ull, 999936ull}) {
        const std::uint64_t line = addr / geo.lineBytes;
        EXPECT_EQ(cache.setOf(addr), line % geo.numSets());
        EXPECT_EQ(cache.tagOf(addr), line / geo.numSets());
    }
}

/**
 * setOf/tagOf over the Table I presets and one shape whose set count
 * is not a power of two (3-way, 48 sets): each checked against the
 * shape's literal line size and set count, and the whole mapping
 * pinned by a digest over a fixed address stream.
 */
TEST(Cache, SetAndTagOfArePinned)
{
    CacheGeometry odd;
    odd.name = "odd";
    odd.associativity = 3;
    odd.lineBytes = 64;
    odd.sizeBytes = 3 * 48 * 64;
    odd.validate();

    struct Shape
    {
        CacheGeometry geo;
        std::uint64_t lineBytes;
        std::uint64_t sets;
        std::uint64_t digest;
    };
    const Shape shapes[] = {
        {itanium9560::l1Data(), 64, 64, 0xd304f1097f3f7b44ULL},
        {itanium9560::l2Data(), 128, 256, 0x524b64d0ddf42591ULL},
        {itanium9560::l2Instruction(), 128, 512, 0xb751592813c8384dULL},
        {itanium9560::l3Unified(), 128, 8192, 0x69f8934a2dd10a28ULL},
        {odd, 64, 48, 0x6fe9f11f82a5e593ULL},
    };
    for (const Shape &shape : shapes) {
        Rng rng(20);
        const Cache cache(shape.geo, quietDist(), 150.0, rng);
        std::uint64_t hash = 0xcbf29ce484222325ULL;
        std::uint64_t addr = 0;
        for (int i = 0; i < 4096; ++i) {
            // Small addresses first, then a 64-bit mixing walk that
            // reaches the top of the address space.
            addr = i < 1024 ? std::uint64_t(i) * 37
                            : addr * 6364136223846793005ULL +
                                  1442695040888963407ULL;
            const std::uint64_t set = cache.setOf(addr);
            const std::uint64_t tag = cache.tagOf(addr);
            EXPECT_EQ(set, (addr / shape.lineBytes) % shape.sets)
                << shape.geo.name << " addr " << addr;
            EXPECT_EQ(tag, (addr / shape.lineBytes) / shape.sets)
                << shape.geo.name << " addr " << addr;
            hash = (hash ^ set) * 0x100000001b3ULL;
            hash = (hash ^ tag) * 0x100000001b3ULL;
        }
        EXPECT_EQ(hash, shape.digest) << shape.geo.name;
    }
}

TEST(Cache, HitAfterFill)
{
    Rng rng(12);
    Cache cache(smallGeometry(), quietDist(), 150.0, rng);
    Rng draw(13);
    const CacheAccess miss = cache.access(0x4000, 800.0, draw);
    EXPECT_FALSE(miss.hit);
    const CacheAccess hit = cache.access(0x4000, 800.0, draw);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.set, miss.set);
    EXPECT_EQ(hit.way, miss.way);
    EXPECT_EQ(cache.hitCount(), 1u);
    EXPECT_EQ(cache.missCount(), 1u);
}

TEST(Cache, LruEvictsOldest)
{
    Rng rng(14);
    Cache cache(smallGeometry(), quietDist(), 150.0, rng);
    Rng draw(15);
    const auto &geo = cache.geometry();
    const std::uint64_t span = geo.numSets() * geo.lineBytes;

    // Fill all 4 ways of set 0, then touch the first three again so
    // address 0 + 3*span is LRU... actually re-touch all but way of
    // address with i == 1; then a conflicting fill must evict it.
    std::vector<std::uint64_t> addrs;
    for (unsigned i = 0; i < geo.associativity; ++i)
        addrs.push_back(i * span);
    for (std::uint64_t a : addrs)
        cache.access(a, 800.0, draw);
    for (std::uint64_t a : addrs) {
        if (a != addrs[1])
            cache.access(a, 800.0, draw);
    }
    cache.access(geo.associativity * span, 800.0, draw);  // Evicts.
    EXPECT_FALSE(cache.accessIfHit(addrs[1], 800.0, draw).has_value());
    for (std::uint64_t a : addrs) {
        if (a != addrs[1]) {
            EXPECT_TRUE(cache.accessIfHit(a, 800.0, draw).has_value());
        }
    }
}

/**
 * accessIfHit on a miss changes nothing: no counter, no LRU stamp, no
 * draw. A twin that never made the call evicts the same way next.
 */
TEST(Cache, AccessIfHitLeavesAMissUnchanged)
{
    Rng rng_a(21), rng_b(21);
    Cache probed(smallGeometry(), quietDist(), 150.0, rng_a);
    Cache twin(smallGeometry(), quietDist(), 150.0, rng_b);
    const auto &geo = probed.geometry();
    const std::uint64_t span = geo.numSets() * geo.lineBytes;

    Rng draw_a(22), draw_b(22);
    for (unsigned i = 0; i < geo.associativity; ++i) {
        probed.access(i * span, 800.0, draw_a);
        twin.access(i * span, 800.0, draw_b);
    }
    const std::uint64_t absent = geo.associativity * span;
    EXPECT_FALSE(probed.accessIfHit(absent, 800.0, draw_a).has_value());
    EXPECT_EQ(probed.hitCount(), 0u);
    EXPECT_EQ(probed.missCount(), geo.associativity);

    const CacheAccess got = probed.access(absent, 800.0, draw_a);
    const CacheAccess want = twin.access(absent, 800.0, draw_b);
    EXPECT_FALSE(got.hit);
    EXPECT_EQ(got.way, want.way);
    EXPECT_EQ(draw_a.next(), draw_b.next());
}

TEST(Cache, DeconfiguredWayNeverAllocated)
{
    Rng rng(16);
    Cache cache(smallGeometry(), quietDist(), 150.0, rng);
    Rng draw(17);
    cache.deconfigureLine(0, 2);

    const auto &geo = cache.geometry();
    const std::uint64_t span = geo.numSets() * geo.lineBytes;
    for (unsigned i = 0; i < 16; ++i) {
        const CacheAccess access = cache.access(i * span, 800.0, draw);
        EXPECT_NE(access.way, 2u);
    }
}

TEST(Cache, InvalidateAllDropsResidency)
{
    Rng rng(18);
    Cache cache(smallGeometry(), quietDist(), 150.0, rng);
    Rng draw(19);
    cache.access(0x1000, 800.0, draw);
    EXPECT_TRUE(cache.accessIfHit(0x1000, 800.0, draw).has_value());
    cache.invalidateAll();
    EXPECT_FALSE(cache.accessIfHit(0x1000, 800.0, draw).has_value());
}

/**
 * The LUT bucket convention (round-half-up): a voltage landing exactly
 * on a bucket edge — an odd multiple of probQuantMv / 2 — maps to the
 * upper bucket on BOTH sides of zero, and voltages epsilon either side
 * of the edge land in adjacent buckets. Negative inputs matter: an
 * aged cell population can push (v_eff - reference) offsets below
 * zero, where llround's half-away-from-zero convention would disagree.
 */
TEST(CacheArray, ProbBucketIndexEdgeConvention)
{
    constexpr Millivolt q = CacheArray::probQuantMv;
    ASSERT_DOUBLE_EQ(q, 0.25);

    // Bucket centers map to themselves.
    EXPECT_EQ(CacheArray::probBucketIndex(0.0), 0);
    EXPECT_EQ(CacheArray::probBucketIndex(q), 1);
    EXPECT_EQ(CacheArray::probBucketIndex(-q), -1);
    EXPECT_EQ(CacheArray::probBucketIndex(600.0), 2400);

    // Exact edges go UP, on both sides of zero.
    EXPECT_EQ(CacheArray::probBucketIndex(0.125), 1);
    EXPECT_EQ(CacheArray::probBucketIndex(-0.125), 0);
    EXPECT_EQ(CacheArray::probBucketIndex(0.375), 2);
    EXPECT_EQ(CacheArray::probBucketIndex(-0.375), -1);
    EXPECT_EQ(CacheArray::probBucketIndex(600.125), 2401);
    EXPECT_EQ(CacheArray::probBucketIndex(-600.125), -2400);

    // Epsilon on each side of an edge lands in adjacent buckets.
    EXPECT_EQ(CacheArray::probBucketIndex(0.125 - 1e-9), 0);
    EXPECT_EQ(CacheArray::probBucketIndex(0.125 + 1e-9), 1);
    EXPECT_EQ(CacheArray::probBucketIndex(-0.125 - 1e-9), -1);
    EXPECT_EQ(CacheArray::probBucketIndex(-0.125 + 1e-9), 0);

    // A bucket's center is a multiple of q and maps back to the bucket.
    for (const Millivolt v : {0.0, 0.125, -0.125, 0.37, -0.37, 600.125,
                              -600.125, 612.3456, -612.3456}) {
        const Millivolt c = CacheArray::probBucketCenter(v);
        EXPECT_EQ(c, q * double(CacheArray::probBucketIndex(v))) << v;
        EXPECT_EQ(CacheArray::probBucketIndex(c),
                  CacheArray::probBucketIndex(v))
            << v;
    }
}

/**
 * Exact and quantized probability lookups must agree on the bucket of
 * the same v_eff: a voltage just below an edge and the center of its
 * bucket produce identical quantized probabilities, while the far
 * side of the edge may differ. This is the determinism the
 * chip-batched sampling mode's byte-identical replay rests on.
 */
TEST(CacheArray, QuantizedProbabilitiesShareBucketAcrossEdge)
{
    Rng rng(23);
    CacheArray array(smallGeometry(), noisyDist(), 465.0, rng);
    const WeakLineInfo weakest = array.weakestLine();
    ASSERT_GT(weakest.weakCellCount, 0u);
    array.writePattern(weakest.set, weakest.way, 0);

    // The quantized lookup: the exact lookup at the bucket center.
    const auto quantized = [&](Millivolt v, double &pc, double &pu) {
        array.lineEventProbabilities(weakest.set, weakest.way,
                                     CacheArray::probBucketCenter(v), pc,
                                     pu);
    };

    constexpr Millivolt q = CacheArray::probQuantMv;
    const Millivolt center = 480.0;  // A bucket center (multiple of q).
    const Millivolt edge = center + q / 2;
    EXPECT_EQ(CacheArray::probBucketCenter(edge - 1e-6), center);
    EXPECT_EQ(CacheArray::probBucketCenter(edge), center + q);

    double pc_center, pu_center, pc_below, pu_below, pc_edge, pu_edge;
    quantized(center, pc_center, pu_center);
    quantized(edge - 1e-6, pc_below, pu_below);
    quantized(edge, pc_edge, pu_edge);

    // Just-below-edge shares center's bucket bit-for-bit...
    EXPECT_EQ(pc_below, pc_center);
    EXPECT_EQ(pu_below, pu_center);
    // ...and the exact edge belongs to the upper bucket (center + q).
    double pc_up, pu_up;
    quantized(center + q, pc_up, pu_up);
    EXPECT_EQ(pc_edge, pc_up);
    EXPECT_EQ(pu_edge, pu_up);
}

/** A codec-aware array: BCH-2 geometry yields 79-bit codewords. */
TEST(CacheArray, Bch2GeometryAndDecode)
{
    CacheGeometry geo = smallGeometry();
    geo.eccScheme = EccScheme::bch2;
    geo.validate();
    EXPECT_EQ(geo.cellsPerLine(), geo.wordsPerLine() * 79u);

    Rng rng(31);
    CacheArray array(geo, quietDist(), 150.0, rng);
    EXPECT_EQ(array.codec().traits().scheme, EccScheme::bch2);
    EXPECT_EQ(array.codec().codewordBits(), 79u);

    std::vector<std::uint64_t> words(geo.wordsPerLine());
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] = 0x0123456789ABCDEFULL * (i + 1);
    array.writeLine(1, 1, words);

    // Two flips in one codeword: fatal for SECDED, corrected by BCH-2.
    array.flipStoredBit(1, 1, 5);
    array.flipStoredBit(1, 1, 41);
    Rng draw(32);
    LineReadResult read;
    array.readLine(1, 1, 800.0, draw, read);
    EXPECT_FALSE(read.uncorrectable);
    ASSERT_EQ(read.events.size(), 1u);
    EXPECT_EQ(read.events[0].status, EccStatus::correctedSingle);
    EXPECT_EQ(read.data, words);

    // A third flip in the same codeword exceeds the radius.
    array.flipStoredBit(1, 1, 63);
    Rng draw2(33);
    array.readLine(1, 1, 800.0, draw2, read);
    EXPECT_TRUE(read.uncorrectable);
}

/** FNV-1a fold of bit-accurate reads: every event and data word. */
struct ReadDigest
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    std::uint64_t corrected = 0;
    std::uint64_t uncorrectable = 0;

    void fold(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    }
};

/** How weakestL2DataReads fills the line under test. */
enum class LineFill
{
    /** writeLine with a distinct word per codeword. */
    distinctWords,
    /**
     * writePattern (every word one codeword), then one stored bit of
     * word 5 flipped: runs of identical codewords, broken once.
     */
    patternWithStoredFlip,
};

/**
 * 5 voltages x 200 reads of the weakest L2D line under @p scheme,
 * from the weakest cell's Vc down 150 mV, deep into the uncorrectable
 * regime (the line holds 117 weak cells).
 */
ReadDigest
weakestL2DataReads(EccScheme scheme,
                   LineFill fill = LineFill::distinctWords)
{
    CacheGeometry geo = itanium9560::l2Data();
    geo.eccScheme = scheme;
    Rng rng(41);
    CacheArray array(geo, noisyDist(), 400.0, rng);
    const WeakLineInfo weakest = array.weakestLine();

    if (fill == LineFill::distinctWords) {
        std::vector<std::uint64_t> words(geo.wordsPerLine());
        for (std::size_t i = 0; i < words.size(); ++i)
            words[i] = 0x9E3779B97F4A7C15ULL * (i + 1);
        array.writeLine(weakest.set, weakest.way, words);
    } else {
        array.writePattern(weakest.set, weakest.way,
                           0x9E3779B97F4A7C15ULL);
        array.flipStoredBit(weakest.set, weakest.way,
                            5 * array.codec().codewordBits() + 3);
    }

    ReadDigest digest;
    Rng draw(42);
    LineReadResult read;
    for (Millivolt offset : {0.0, -40.0, -80.0, -120.0, -150.0}) {
        for (int i = 0; i < 200; ++i) {
            array.readLine(weakest.set, weakest.way,
                           weakest.weakestVc + offset, draw, read);
            for (const EccEvent &event : read.events) {
                digest.fold(event.word);
                digest.fold(std::uint64_t(event.status));
                digest.corrected +=
                    event.status == EccStatus::correctedSingle;
                digest.uncorrectable +=
                    event.status == EccStatus::uncorrectable;
            }
            for (std::uint64_t word : read.data)
                digest.fold(word);
        }
    }
    return digest;
}

/**
 * The bit-accurate read path (flip sampling, codeword decode, event
 * and data reporting) pinned to recorded values, corrected and
 * uncorrectable words included, for the SECDED and BCH codecs.
 */
TEST(CacheArray, WeakestL2DataLineReadsArePinned)
{
    const ReadDigest hamming = weakestL2DataReads(EccScheme::hamming);
    const ReadDigest hsiao = weakestL2DataReads(EccScheme::hsiao);
    const ReadDigest bch2 = weakestL2DataReads(EccScheme::bch2);
    const ReadDigest bch3 = weakestL2DataReads(EccScheme::bch3);
    EXPECT_EQ(hamming.hash, 0xd520b8acef50438eULL);
    EXPECT_EQ(hamming.corrected, 1981u);
    EXPECT_EQ(hamming.uncorrectable, 256u);
    EXPECT_EQ(hsiao.hash, 0xcd20a72b524e4df7ULL);
    EXPECT_EQ(hsiao.corrected, 1974u);
    EXPECT_EQ(hsiao.uncorrectable, 263u);
    EXPECT_EQ(bch2.hash, 0x38e34409999f16dcULL);
    EXPECT_EQ(bch2.corrected, 2836u);
    EXPECT_EQ(bch2.uncorrectable, 42u);
    EXPECT_EQ(bch3.hash, 0xabb1daf27bf63b92ULL);
    EXPECT_EQ(bch3.corrected, 4032u);
    EXPECT_EQ(bch3.uncorrectable, 122u);
}

/**
 * The same reads of a pattern-filled line, whose words all hold one
 * codeword except word 5, corrupted by a stored flip: decode results
 * shared along a run of identical observed codewords, and a run
 * broken by a stored flip, are pinned for every word-level codec.
 */
TEST(CacheArray, PatternLineWithStoredFlipReadsArePinned)
{
    struct Pin
    {
        EccScheme scheme;
        std::uint64_t hash;
        std::uint64_t corrected;
        std::uint64_t uncorrectable;
    };
    for (const Pin &pin : {
             Pin{EccScheme::hamming, 0x4a8898382a6b830aULL, 2969u, 262u},
             Pin{EccScheme::hsiao, 0xab31ca918d0aeea3ULL, 2962u, 269u},
             Pin{EccScheme::bch2, 0x86fdf952099a1864ULL, 3664u, 42u},
             Pin{EccScheme::bch3, 0x9fb980dbcb834a2ULL, 4987u, 122u},
         }) {
        const ReadDigest digest = weakestL2DataReads(
            pin.scheme, LineFill::patternWithStoredFlip);
        EXPECT_EQ(digest.hash, pin.hash) << schemeName(pin.scheme);
        EXPECT_EQ(digest.corrected, pin.corrected)
            << schemeName(pin.scheme);
        EXPECT_EQ(digest.uncorrectable, pin.uncorrectable)
            << schemeName(pin.scheme);
    }
}

/** Fold @p reads reads of @p line at v_eff into @p digest. */
void
foldReads(const CacheArray &array, const WeakLineInfo &line,
          Millivolt v_eff, int reads, Rng &draw, ReadDigest &digest)
{
    LineReadResult read;
    for (int i = 0; i < reads; ++i) {
        array.readLine(line.set, line.way, v_eff, draw, read);
        for (const EccEvent &event : read.events) {
            digest.fold(event.word);
            digest.fold(std::uint64_t(event.status));
            digest.corrected += event.status == EccStatus::correctedSingle;
            digest.uncorrectable +=
                event.status == EccStatus::uncorrectable;
        }
        for (std::uint64_t word : read.data)
            digest.fold(word);
    }
}

void
expectSameReads(const ReadDigest &got, const ReadDigest &want)
{
    EXPECT_EQ(got.hash, want.hash);
    EXPECT_EQ(got.corrected, want.corrected);
    EXPECT_EQ(got.uncorrectable, want.uncorrectable);
}

/**
 * readLine's probability memo keys on the SRAM generation: reads at
 * one v_eff before and after an aging shift draw, after it, exactly
 * what a twin aged the same way draws with no read before the shift.
 */
TEST(CacheArray, ReadMemoFollowsAgingShift)
{
    const auto build = [] {
        Rng rng(51);
        return std::make_unique<CacheArray>(smallGeometry(), noisyDist(),
                                            465.0, rng);
    };
    const auto read_before = build();
    const auto twin = build();
    const WeakLineInfo line = twin->weakestLine();
    ASSERT_GT(line.weakCellCount, 1u);
    const Millivolt v = line.weakestVc - 10.0;
    for (CacheArray *array : {read_before.get(), twin.get()})
        array->writePattern(line.set, line.way, 0x5A5A5A5A5A5A5A5AULL);

    ReadDigest before;
    Rng warm(52);
    foldReads(*read_before, line, v, 100, warm, before);
    ASSERT_GT(before.corrected, 0u);

    for (CacheArray *array : {read_before.get(), twin.get()}) {
        Rng age(53);
        array->sram().applyAgingShift(20.0, 5.0, age);
    }
    ReadDigest got, want;
    Rng draw(54), reference(54);
    foldReads(*read_before, line, v, 100, draw, got);
    foldReads(*twin, line, v, 100, reference, want);
    expectSameReads(got, want);
    EXPECT_EQ(draw.next(), reference.next());
}

/**
 * A restore that brings back the generation the memo was filled at,
 * with critical voltages 100 mV higher, reads like the fresh twin the
 * state came from: nothing derived from the old voltages may survive
 * loadState.
 */
TEST(CacheArray, ReadMemoDroppedOnAliasedRestore)
{
    const auto aged = [](Millivolt shift) {
        Rng build(55);
        auto array = std::make_unique<CacheArray>(
            smallGeometry(), noisyDist(), 465.0, build);
        Rng age(1);
        array->sram().applyAgingShift(shift, 0.0, age);
        return array;
    };
    const auto restored = aged(0.0);
    const auto twin = aged(100.0);
    ASSERT_EQ(restored->sram().generation(), twin->sram().generation());
    const WeakLineInfo line = twin->weakestLine();
    const Millivolt v = line.weakestVc - 10.0;
    twin->writePattern(line.set, line.way, 0x5A5A5A5A5A5A5A5AULL);

    // Before the restore every cell of the line sits 90+ mV below v.
    ReadDigest before;
    Rng warm(56);
    foldReads(*restored, line, v, 20, warm, before);
    ASSERT_EQ(before.corrected + before.uncorrectable, 0u);

    StateWriter w;
    w.beginSection("array");
    twin->saveState(w);
    w.endSection();
    StateReader r(w.finish());
    r.beginSection("array");
    restored->loadState(r);
    r.endSection();
    ASSERT_EQ(restored->sram().generation(), twin->sram().generation());

    ReadDigest got, want;
    Rng draw(57), reference(57);
    foldReads(*restored, line, v, 100, draw, got);
    foldReads(*twin, line, v, 100, reference, want);
    ASSERT_GT(want.corrected, 0u);
    expectSameReads(got, want);
    EXPECT_EQ(draw.next(), reference.next());
}

/**
 * Reads at v1, v2 and v1 again decode exactly what the uncached
 * reference draw gives: the same flips from the same stream, read
 * after read, so the memo refills on every change of voltage.
 */
TEST(CacheArray, ReadsAcrossVoltagesMatchUncachedDraws)
{
    Rng rng(58);
    CacheArray array(smallGeometry(), noisyDist(), 465.0, rng);
    const WeakLineInfo line = array.weakestLine();
    const std::uint64_t pattern = 0x3C3C3C3C3C3C3C3CULL;
    array.writePattern(line.set, line.way, pattern);
    const Codeword stored = array.codec().encode(pattern);
    const unsigned cw_bits = array.codec().codewordBits();
    const WeakCellSpan span = array.lineWeakSpan(line.set, line.way);
    const std::uint64_t base = array.lineCellBase(line.set, line.way);

    Rng draw(59), reference(59);
    LineReadResult read;
    std::uint64_t events = 0;
    for (Millivolt v : {line.weakestVc - 5.0, line.weakestVc - 30.0,
                        line.weakestVc - 5.0}) {
        for (int i = 0; i < 100; ++i) {
            array.readLine(line.set, line.way, v, draw, read);
            std::vector<Codeword> observed(read.data.size(), stored);
            for (std::uint64_t flip :
                 referenceFlips(array.sram(), span, base, v, reference))
                observed[flip / cw_bits].flipBit(unsigned(flip % cw_bits));

            std::size_t next_event = 0;
            for (std::size_t w = 0; w < observed.size(); ++w) {
                const DecodeResult want = array.codec().decode(observed[w]);
                EXPECT_EQ(read.data[w], want.data);
                if (want.status == EccStatus::ok)
                    continue;
                ASSERT_LT(next_event, read.events.size());
                EXPECT_EQ(read.events[next_event].word, w);
                EXPECT_EQ(read.events[next_event].status, want.status);
                ++next_event;
            }
            EXPECT_EQ(next_event, read.events.size());
            events += read.events.size();
        }
    }
    EXPECT_GT(events, 0u);
    EXPECT_EQ(draw.next(), reference.next());
}

} // namespace
} // namespace vspec
