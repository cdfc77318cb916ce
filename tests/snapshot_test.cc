/**
 * @file
 * Tests for the snapshot/restore subsystem: the StateWriter/StateReader
 * container (round-trips, checksums, hostile input), RNG stream
 * restoration including the Box-Muller cache, and bit-identical replay
 * of Simulator and Fleet snapshots across sampling modes and
 * worker-thread counts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "cache/cache_array.hh"
#include "cache/geometry.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/sampling.hh"
#include "fleet/fleet.hh"
#include "platform/chip.hh"
#include "platform/experiment_pool.hh"
#include "platform/harness.hh"
#include "platform/simulator.hh"
#include "resilience/fault_injector.hh"
#include "resilience/recovery_manager.hh"
#include "snapshot/state_io.hh"

namespace vspec
{
namespace
{

// ---------------------------------------------------------------------
// Container round-trips and hostile input.

TEST(StateIo, RoundTripsEveryValueType)
{
    StateWriter w;
    w.beginSection("alpha");
    w.putBool(true);
    w.putBool(false);
    w.putU8(0xAB);
    w.putU32(0xDEADBEEFu);
    w.putU64(0x0123456789ABCDEFull);
    w.putI64(-42);
    w.putDouble(3.14159);
    w.putString("hello snapshot");
    w.putU64Vector({1, 2, 3});
    w.putDoubleVector({0.5, -0.5});
    w.endSection();
    w.beginSection("beta");
    w.putU64(7);
    w.endSection();

    StateReader r(w.finish());
    r.beginSection("alpha");
    EXPECT_TRUE(r.getBool());
    EXPECT_FALSE(r.getBool());
    EXPECT_EQ(r.getU8(), 0xAB);
    EXPECT_EQ(r.getU32(), 0xDEADBEEFu);
    EXPECT_EQ(r.getU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.getI64(), -42);
    EXPECT_DOUBLE_EQ(r.getDouble(), 3.14159);
    EXPECT_EQ(r.getString(), "hello snapshot");
    EXPECT_EQ(r.getU64Vector(), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(r.getDoubleVector(), (std::vector<double>{0.5, -0.5}));
    r.endSection();
    r.beginSection("beta");
    EXPECT_EQ(r.getU64(), 7u);
    r.endSection();
    EXPECT_TRUE(r.atEnd());
}

std::vector<std::uint8_t>
sampleContainer()
{
    StateWriter w;
    w.beginSection("section");
    w.putU64(123456789);
    w.putString("payload under test");
    w.putDoubleVector({1.0, 2.0, 3.0});
    w.endSection();
    return w.finish();
}

TEST(StateIo, RejectsABitFlippedPayload)
{
    // Flip one bit in the last payload byte: the per-section CRC32
    // must catch it at construction (eager validation).
    auto bytes = sampleContainer();
    bytes.back() ^= 0x01;
    EXPECT_THROW(StateReader reader(std::move(bytes)), SnapshotError);
}

TEST(StateIo, RejectsTruncationAtEveryLength)
{
    // Cutting the container anywhere must throw — never crash, never
    // read out of bounds (the asan suite runs this whole binary).
    const auto bytes = sampleContainer();
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.begin() + std::ptrdiff_t(n));
        EXPECT_THROW(StateReader reader(std::move(cut)), SnapshotError)
            << "truncation to " << n << " bytes was accepted";
    }
}

TEST(StateIo, RejectsWrongMagicAndWrongVersion)
{
    auto wrong_magic = sampleContainer();
    wrong_magic[0] ^= 0xFF;
    EXPECT_THROW(StateReader reader(std::move(wrong_magic)),
                 SnapshotError);

    auto wrong_version = sampleContainer();
    wrong_version[8] += 1; // u32 format version follows the 8-byte magic
    try {
        StateReader reader(std::move(wrong_version));
        FAIL() << "wrong format version was accepted";
    } catch (const SnapshotError &e) {
        // The diagnostic must name the version mismatch, not crash.
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST(StateIo, VersionRefusalNamesBothVersions)
{
    // Forward-compat diagnostics: a reader refusing a different-version
    // file must name BOTH versions, so skew across a fleet of
    // checkpoint artifacts is debuggable from the message alone.
    auto wrong_version = sampleContainer();
    wrong_version[8] += 2;
    const auto file_version = snapshotFormatVersion + 2;
    try {
        StateReader reader(std::move(wrong_version));
        FAIL() << "wrong format version was accepted";
    } catch (const SnapshotError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(std::to_string(file_version)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(std::to_string(snapshotFormatVersion)),
                  std::string::npos)
            << what;
    }
}

TEST(StateIo, UnknownSectionNamesTagAndVersionPair)
{
    // A same-version container with an unexpected section layout is
    // how a *newer* writer's extra sections show up; the diagnostic
    // must name the section tags and the format-version pair.
    auto bytes = sampleContainer();
    StateReader r(std::move(bytes));
    EXPECT_EQ(r.formatVersion(), snapshotFormatVersion);
    try {
        r.beginSection("mem0");
        FAIL() << "mismatched section tag was accepted";
    } catch (const SnapshotError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'mem0'"), std::string::npos) << what;
        EXPECT_NE(what.find("'section'"), std::string::npos) << what;
        EXPECT_NE(what.find("file format version " +
                            std::to_string(snapshotFormatVersion)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("reader expects " +
                            std::to_string(snapshotFormatVersion)),
                  std::string::npos)
            << what;
    }

    // Running off the end of the container is the other face of the
    // same skew; it carries the same version pair.
    auto more = sampleContainer();
    StateReader r2(std::move(more));
    r2.beginSection("section");
    (void)r2.getU64();
    (void)r2.getString();
    (void)r2.getDoubleVector();
    r2.endSection();
    try {
        r2.beginSection("mem1");
        FAIL() << "section past the end was accepted";
    } catch (const SnapshotError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'mem1'"), std::string::npos) << what;
        EXPECT_NE(what.find("file format version"), std::string::npos)
            << what;
    }
}

TEST(StateIo, RejectsTypeConfusionAndOverreads)
{
    auto bytes = sampleContainer();
    StateReader r(std::move(bytes));
    r.beginSection("section");
    EXPECT_THROW(r.getString(), SnapshotError); // next value is a u64
}

TEST(StateIo, EndSectionDemandsFullConsumption)
{
    auto bytes = sampleContainer();
    StateReader r(std::move(bytes));
    r.beginSection("section");
    (void)r.getU64();
    EXPECT_THROW(r.endSection(), SnapshotError); // string + vector unread
}

TEST(StateIo, SectionNameMismatchIsDiagnosed)
{
    auto bytes = sampleContainer();
    StateReader r(std::move(bytes));
    EXPECT_THROW(r.beginSection("elsewhere"), SnapshotError);
}

TEST(StateIo, MissingFileIsACleanError)
{
    EXPECT_THROW(StateReader::fromFile("/nonexistent/vspec.snap"),
                 SnapshotError);
}

TEST(StateIo, WriteFileRoundTripsThroughDisk)
{
    const std::string path = ::testing::TempDir() + "state_io_rt.snap";
    StateWriter w;
    w.beginSection("disk");
    w.putU64(0xFEEDF00Dull);
    w.endSection();
    w.writeFile(path);

    StateReader r = StateReader::fromFile(path);
    r.beginSection("disk");
    EXPECT_EQ(r.getU64(), 0xFEEDF00Dull);
    r.endSection();
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// RNG stream restoration.

TEST(RngSnapshot, RestoredStreamIsBitIdentical)
{
    Rng rng(0x5EED);
    for (int i = 0; i < 100; ++i)
        (void)rng.uniform();

    StateWriter w;
    w.beginSection("rng");
    rng.saveState(w);
    w.endSection();
    const auto bytes = w.finish();

    std::vector<double> want;
    for (int i = 0; i < 50; ++i)
        want.push_back(rng.uniform());

    Rng other(0xD1FF); // different seed: loadState must fully overlay
    StateReader r(bytes);
    r.beginSection("rng");
    other.loadState(r);
    r.endSection();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(other.uniform(), want[std::size_t(i)]);
}

TEST(RngSnapshot, MidGaussianPairSurvivesTheSnapshot)
{
    // gaussian() draws Box-Muller pairs and caches the second value.
    // Snapshot after an odd number of draws: the restored stream must
    // first replay the cached half of the in-flight pair.
    Rng rng(0xBEEF);
    (void)rng.gaussian(); // half of a pair is now cached

    StateWriter w;
    w.beginSection("rng");
    rng.saveState(w);
    w.endSection();
    const auto bytes = w.finish();

    const double want_cached = rng.gaussian();
    const double want_next = rng.gaussian();

    Rng restored(1);
    StateReader r(bytes);
    r.beginSection("rng");
    restored.loadState(r);
    r.endSection();
    EXPECT_EQ(restored.gaussian(), want_cached);
    EXPECT_EQ(restored.gaussian(), want_next);
}

// ---------------------------------------------------------------------
// Simulator snapshot/restore replay.

struct CampaignSim
{
    std::unique_ptr<Chip> chip;
    HardwareSpeculationSetup setup;
    std::unique_ptr<RecoveryManager> recovery;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<Simulator> sim;
};

CampaignSim
buildCampaign(SamplingMode sampling)
{
    CampaignSim c;
    ChipConfig cfg;
    cfg.seed = 42;
    c.chip = std::make_unique<Chip>(cfg);
    c.setup = harness::armHardware(*c.chip);
    harness::assignSuite(*c.chip, Suite::coreMark, 5.0);

    RecoveryManager::Config recovery_cfg;
    recovery_cfg.checkpointInterval = 0.5;
    recovery_cfg.recoveryLatency = 0.1;
    c.recovery = harness::armRecovery(*c.chip, recovery_cfg);

    c.sim = std::make_unique<Simulator>(*c.chip, 0.005);
    c.sim->setSamplingMode(sampling);
    c.sim->enableTrace(0.1);
    c.sim->attachControlSystem(c.setup.control.get());

    FaultInjector::Config faults;
    faults.bitFlipsPerHour = 2000.0;
    faults.dueFlipsPerHour = 600.0;
    faults.droopsPerHour = 1200.0;
    faults.droopMagnitudeMv = 25.0;
    faults.droopDuration = 0.05;
    faults.monitorDropoutsPerHour = 300.0;
    faults.dropoutDuration = 0.3;
    faults.stuckRegulatorsPerHour = 300.0;
    faults.stuckDuration = 0.3;
    c.injector = harness::armFaultInjector(*c.chip, faults,
                                           &c.sim->eventLog());
    c.sim->attachFaultInjector(c.injector.get());
    c.sim->attachRecoveryManager(c.recovery.get());
    return c;
}

std::vector<std::uint8_t>
simState(const Simulator &sim)
{
    StateWriter w;
    sim.snapshot(w);
    return w.finish();
}

class SimulatorReplay : public ::testing::TestWithParam<SamplingMode>
{
};

TEST_P(SimulatorReplay, RestorePlusNTicksMatchesUninterruptedRun)
{
    const SamplingMode sampling = GetParam();

    CampaignSim ref = buildCampaign(sampling);
    ref.sim->runTicks(700);
    const auto want = simState(*ref.sim);

    CampaignSim victim = buildCampaign(sampling);
    victim.sim->runTicks(333);
    const auto mid = simState(*victim.sim);

    CampaignSim revived = buildCampaign(sampling);
    StateReader r(mid);
    revived.sim->restore(r);
    EXPECT_DOUBLE_EQ(revived.sim->now(), victim.sim->now());
    revived.sim->runTicks(700 - 333);
    EXPECT_EQ(simState(*revived.sim), want);
}

TEST_P(SimulatorReplay, SnapshotAtEveryPhaseBoundaryStillReplays)
{
    // Kill at several different ticks of the same campaign; each
    // restore must land on the identical end state.
    const SamplingMode sampling = GetParam();

    CampaignSim ref = buildCampaign(sampling);
    ref.sim->runTicks(400);
    const auto want = simState(*ref.sim);

    for (std::uint64_t kill : {1ull, 57ull, 200ull, 399ull}) {
        CampaignSim victim = buildCampaign(sampling);
        victim.sim->runTicks(kill);
        const auto mid = simState(*victim.sim);

        CampaignSim revived = buildCampaign(sampling);
        StateReader r(mid);
        revived.sim->restore(r);
        revived.sim->runTicks(400 - kill);
        EXPECT_EQ(simState(*revived.sim), want)
            << "kill at tick " << kill << " diverged";
    }
}

INSTANTIATE_TEST_SUITE_P(SamplingModes, SimulatorReplay,
                         ::testing::Values(SamplingMode::exact,
                                           SamplingMode::chipBatched));

TEST(SimulatorSnapshot, RestoreVerifiesTickSize)
{
    CampaignSim a = buildCampaign(SamplingMode::exact);
    a.sim->runTicks(10);
    const auto bytes = simState(*a.sim);

    // Same chip construction, different tick: must be rejected with a
    // diagnostic, not silently replayed on the wrong grid.
    CampaignSim b = buildCampaign(SamplingMode::exact);
    b.sim = std::make_unique<Simulator>(*b.chip, 0.001);
    b.sim->setSamplingMode(SamplingMode::exact);
    b.sim->enableTrace(0.1);
    b.sim->attachControlSystem(b.setup.control.get());
    b.sim->attachFaultInjector(b.injector.get());
    b.sim->attachRecoveryManager(b.recovery.get());
    StateReader r(bytes);
    EXPECT_THROW(b.sim->restore(r), SnapshotError);
}

TEST(SimulatorSnapshot, RestoreVerifiesAttachmentPresence)
{
    CampaignSim a = buildCampaign(SamplingMode::exact);
    a.sim->runTicks(10);
    const auto bytes = simState(*a.sim);

    // A simulator without the control system attached cannot absorb a
    // snapshot that carries control state.
    ChipConfig cfg;
    cfg.seed = 42;
    Chip bare_chip(cfg);
    harness::assignSuite(bare_chip, Suite::coreMark, 5.0);
    Simulator bare(bare_chip, 0.005);
    bare.enableTrace(0.1);
    StateReader r(bytes);
    EXPECT_THROW(bare.restore(r), SnapshotError);
}

TEST(SimulatorSnapshot, CorruptedSimStateIsRejectedNotReplayed)
{
    CampaignSim a = buildCampaign(SamplingMode::exact);
    a.sim->runTicks(20);
    auto bytes = simState(*a.sim);
    bytes[bytes.size() / 2] ^= 0x40;
    EXPECT_THROW(StateReader reader(std::move(bytes)), SnapshotError);
}

/** The SnapshotError message samplingModeFromByte raises for @p byte
 *  (empty if the byte decodes). */
std::string
samplingRefusal(std::uint8_t byte)
{
    try {
        (void)samplingModeFromByte(byte);
    } catch (const SnapshotError &e) {
        return e.what();
    }
    return "";
}

TEST(SamplingModeDecode, AcceptsLiveModesAndNamesEveryRefusedValue)
{
    EXPECT_EQ(samplingModeFromByte(0), SamplingMode::exact);
    EXPECT_EQ(samplingModeFromByte(2), SamplingMode::chipBatched);
    EXPECT_NE(samplingRefusal(1).find("sampling mode 1 (batched) was "
                                      "retired"),
              std::string::npos)
        << samplingRefusal(1);
    EXPECT_NE(samplingRefusal(3).find("invalid sampling mode 3"),
              std::string::npos)
        << samplingRefusal(3);
    EXPECT_NE(samplingRefusal(255).find("invalid sampling mode 255"),
              std::string::npos)
        << samplingRefusal(255);
}

TEST(SimulatorSnapshot, RetiredBatchedModeByteIsRefused)
{
    CampaignSim a = buildCampaign(SamplingMode::exact);
    a.sim->runTicks(20);
    auto bytes = simState(*a.sim);

    // The "sim" section comes first: [magic 8][version 4][count 4]
    // [name length 4]["sim"][payload length 8][CRC 4][payload], and the
    // payload opens with two tagged doubles (time, tick) and then the
    // tagged sampling-mode byte. Rewrite that byte to the retired
    // batched value and re-seal the CRC, so only the value is hostile.
    const std::size_t len_at = 16 + 4 + 3;
    const std::size_t crc_at = len_at + 8;
    const std::size_t payload_at = crc_at + 4;
    const std::size_t mode_at = payload_at + 2 * (1 + 8) + 1;
    ASSERT_EQ(std::string(bytes.begin() + 20, bytes.begin() + len_at),
              "sim");
    ASSERT_EQ(bytes[mode_at - 1], '1');  // u8 type tag
    ASSERT_EQ(bytes[mode_at], std::uint8_t(SamplingMode::exact));
    bytes[mode_at] = 1;
    std::uint64_t payload_len = 0;
    for (unsigned i = 0; i < 8; ++i)
        payload_len |= std::uint64_t(bytes[len_at + i]) << (8 * i);
    const std::uint32_t crc = crc32(bytes.data() + payload_at, payload_len);
    for (unsigned i = 0; i < 4; ++i)
        bytes[crc_at + i] = std::uint8_t(crc >> (8 * i));

    CampaignSim b = buildCampaign(SamplingMode::exact);
    StateReader r(std::move(bytes));
    try {
        b.sim->restore(r);
        FAIL() << "a batched-mode snapshot was restored";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("retired"), std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// Fleet snapshot/restore replay.

FleetConfig
replayFleetConfig()
{
    FleetConfig cfg;
    cfg.numChips = 2;
    cfg.seed = 42;
    cfg.policy = SchedulerPolicy::marginAware;
    cfg.jobs.arrivalsPerSecond = 10.0;
    cfg.jobs.firstArrival = 0.2;
    cfg.jobs.seed = 0xCAFE;
    cfg.governor.fleetBudget = 44.0;
    cfg.governor.interval = 0.5;
    cfg.governor.minChipCap = 5.0;
    cfg.recovery.checkpointInterval = 0.5;
    cfg.recovery.recoveryLatency = 0.1;
    cfg.faults.dueFlipsPerHour = 600.0;
    cfg.faults.bitFlipsPerHour = 2000.0;
    return cfg;
}

std::vector<std::uint8_t>
fleetState(const Fleet &fleet)
{
    StateWriter w;
    fleet.snapshot(w);
    return w.finish();
}

TEST(FleetSnapshot, RestorePlusNSlicesMatchesUninterruptedRun)
{
    const FleetConfig cfg = replayFleetConfig();
    ExperimentPool pool(2);

    Fleet ref(cfg);
    ref.run(3.0, pool);
    const auto want = fleetState(ref);

    Fleet victim(cfg);
    victim.run(1.3, pool);
    const auto mid = fleetState(victim);

    // Restore on a pool with a different worker count: fleet replay
    // must be thread-count invariant.
    ExperimentPool other_pool(4);
    Fleet revived(cfg);
    StateReader r(mid);
    revived.restore(r, other_pool);
    revived.run(3.0 - revived.now(), other_pool);
    EXPECT_EQ(fleetState(revived), want);
}

TEST(FleetSnapshot, ChipBatchedSamplingReplaysToo)
{
    FleetConfig cfg = replayFleetConfig();
    cfg.sampling = SamplingMode::chipBatched;
    ExperimentPool pool(2);

    Fleet ref(cfg);
    ref.run(2.0, pool);
    const auto want = fleetState(ref);

    Fleet victim(cfg);
    victim.run(0.85, pool);
    const auto mid = fleetState(victim);

    Fleet revived(cfg);
    StateReader r(mid);
    revived.restore(r, pool);
    revived.run(2.0 - revived.now(), pool);
    EXPECT_EQ(fleetState(revived), want);
}

TEST(FleetSnapshot, SnapshotBeforeRunIsRefused)
{
    const FleetConfig cfg = replayFleetConfig();
    Fleet fleet(cfg);
    StateWriter w;
    EXPECT_DEATH((void)fleet.snapshot(w), "nodes");
}

// ---------------------------------------------------------------------
// Codec identity guard: stored codewords only mean something to the
// codec that produced them.

CacheGeometry
codecTestGeometry(EccScheme scheme)
{
    CacheGeometry g;
    g.name = "codec-guard";
    g.sizeBytes = 32 * 1024;
    g.associativity = 4;
    g.lineBytes = 128;
    g.cellClass = CellClass::denseL2;
    g.eccScheme = scheme;
    g.validate();
    return g;
}

VcDistribution
codecTestDist()
{
    VcDistribution d;
    d.mean = 300.0;
    d.sigmaRandom = 55.0;
    d.sigmaDynamic = 10.0;
    return d;
}

TEST(CodecSnapshot, SameTierRoundTripsExactly)
{
    Rng rng(0x7E57);
    CacheArray a(codecTestGeometry(EccScheme::bch2), codecTestDist(),
                 465.0, rng);
    a.writePattern(3, 1, 0xA5A5A5A5A5A5A5A5ULL);
    a.deconfigureLine(5, 0);

    StateWriter w;
    w.beginSection("array");
    a.saveState(w);
    w.endSection();

    Rng rng2(0x7E57);
    CacheArray b(codecTestGeometry(EccScheme::bch2), codecTestDist(),
                 465.0, rng2);
    StateReader r(w.finish());
    r.beginSection("array");
    b.loadState(r);
    r.endSection();
    EXPECT_TRUE(b.isDeconfigured(5, 0));
    Rng draw(1);
    LineReadResult read;
    b.readLine(3, 1, 800.0, draw, read);
    for (std::uint64_t word : read.data)
        EXPECT_EQ(word, 0xA5A5A5A5A5A5A5A5ULL);
}

/**
 * A tier-A snapshot must refuse to land in a tier-B array: the stored
 * codewords would decode as garbage under the other codec. Both
 * directions, and also across same-shape SECDED variants (hamming and
 * hsiao share (72, 64) but scramble each other's check equations).
 */
TEST(CodecSnapshot, CrossTierRestoreIsRefused)
{
    const std::pair<EccScheme, EccScheme> pairs[] = {
        {EccScheme::hamming, EccScheme::bch2},
        {EccScheme::bch2, EccScheme::hamming},
        {EccScheme::hamming, EccScheme::hsiao},
        {EccScheme::bch3, EccScheme::bch2},
    };
    for (const auto &[from, to] : pairs) {
        Rng rng(0x7E58);
        CacheArray a(codecTestGeometry(from), codecTestDist(), 465.0,
                     rng);
        StateWriter w;
        w.beginSection("array");
        a.saveState(w);
        w.endSection();

        Rng rng2(0x7E58);
        CacheArray b(codecTestGeometry(to), codecTestDist(), 465.0,
                     rng2);
        StateReader r(w.finish());
        r.beginSection("array");
        EXPECT_THROW(b.loadState(r), SnapshotError)
            << schemeName(from) << " -> " << schemeName(to);
    }
}

/**
 * A codeword run carrying bits at or beyond codewordBits() is rejected
 * even when the codec identity matches — defense in depth against a
 * snapshot assembled by a newer/wider writer. The section is built
 * by hand: real SRAM state, then one run whose second word sets bit
 * 72 of a 72-bit hamming codeword.
 */
TEST(CodecSnapshot, StrayBitsBeyondCodewordAreRefused)
{
    const CacheGeometry geo = codecTestGeometry(EccScheme::hamming);
    Rng rng(0x7E59);
    CacheArray a(geo, codecTestDist(), 465.0, rng);
    const std::uint64_t store_words =
        std::uint64_t(geo.numLines()) * geo.wordsPerLine();

    StateWriter w;
    w.beginSection("array");
    w.putU8(std::uint8_t(EccScheme::hamming));
    w.putU8(std::uint8_t(geo.eccDataBits));
    a.sram().saveState(w);
    w.putU64(store_words);
    // One run filling the store; word1 bit 8 is codeword bit 72.
    w.putU64Vector({store_words, 0, std::uint64_t(1) << 8});
    w.putU64(geo.numLines());
    w.putU64Vector({});
    w.endSection();

    Rng rng2(0x7E59);
    CacheArray b(geo, codecTestDist(), 465.0, rng2);
    StateReader r(w.finish());
    r.beginSection("array");
    EXPECT_THROW(b.loadState(r), SnapshotError);

    // The same container with the stray bit cleared is accepted — the
    // rejection above is the width check, not a framing accident.
    StateWriter w2;
    w2.beginSection("array");
    w2.putU8(std::uint8_t(EccScheme::hamming));
    w2.putU8(std::uint8_t(geo.eccDataBits));
    a.sram().saveState(w2);
    w2.putU64(store_words);
    w2.putU64Vector({store_words, 0, std::uint64_t(0xFF)});
    w2.putU64(geo.numLines());
    w2.putU64Vector({});
    w2.endSection();
    Rng rng3(0x7E59);
    CacheArray c(geo, codecTestDist(), 465.0, rng3);
    StateReader r2(w2.finish());
    r2.beginSection("array");
    c.loadState(r2);
    r2.endSection();
}

/**
 * The guard holds at chip scale: a simulation armed on a BCH-2 chip
 * cannot absorb a hamming chip's snapshot, even with identical seeds
 * and shapes everywhere else.
 */
TEST(CodecSnapshot, ChipTierMismatchIsRefused)
{
    ChipConfig cfg_a;
    cfg_a.seed = 42;
    Chip chip_a(cfg_a);
    auto setup_a = harness::armHardware(chip_a);
    harness::assignSuite(chip_a, Suite::coreMark, 5.0);
    Simulator sim_a(chip_a, 0.005);
    sim_a.attachControlSystem(setup_a.control.get());
    sim_a.runTicks(10);
    StateWriter w;
    sim_a.snapshot(w);
    const auto bytes = w.finish();

    ChipConfig cfg_b;
    cfg_b.seed = 42;
    cfg_b.eccScheme = EccScheme::bch2;
    Chip chip_b(cfg_b);
    auto setup_b = harness::armHardware(chip_b);
    harness::assignSuite(chip_b, Suite::coreMark, 5.0);
    Simulator sim_b(chip_b, 0.005);
    sim_b.attachControlSystem(setup_b.control.get());
    StateReader r(bytes);
    EXPECT_THROW(sim_b.restore(r), SnapshotError);
}

} // namespace
} // namespace vspec
