/**
 * @file
 * Checkpoint/restore battery (PR 7).
 *
 * Two halves. The format half fault-injects the snapshot container:
 * truncation at every byte, a bit flip in every byte, stale versions,
 * duplicated/missing/reordered chunks, trailing garbage, and simulated
 * crashes between temp-write and rename — every case must be detected
 * and surfaced as a recoverable util::Expected error, never a fatal.
 *
 * The state half locks round-trip bit-identity: checkpoints are taken
 * at deliberately adversarial points (mid-tenancy with a resident
 * design, pending journal runs spilled into the arena, an open
 * timeline segment, un-flushed deferred idle time) and every delay,
 * temperature, and RNG draw after restore must EQ — not NEAR — the
 * straight-through run. Satellites ride along: the AgingStore rehash
 * round trip past one slab chunk, and the journal's compaction-pin
 * rebase / applyServiceWear orderings immediately after restore.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cloud/platform.hpp"
#include "core/presets.hpp"
#include "fabric/design.hpp"
#include "fabric/device.hpp"
#include "fabric/route.hpp"
#include "util/expected.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"

namespace pc = pentimento::cloud;
namespace pf = pentimento::fabric;
namespace pp = pentimento::phys;
namespace pu = pentimento::util;

namespace {

constexpr std::uint32_t kTag1 = pu::snapshotTag('T', 'S', '1', '!');
constexpr std::uint32_t kTag2 = pu::snapshotTag('T', 'S', '2', '!');
constexpr std::uint32_t kDevTag = pu::snapshotTag('D', 'E', 'V', '!');

/** Two-chunk sample image exercising every primitive. */
std::vector<std::uint8_t>
sampleImage()
{
    pu::SnapshotWriter writer;
    writer.beginChunk(kTag1);
    writer.u8(7);
    writer.u32(0xdeadbeefu);
    writer.u64(0x0123456789abcdefULL);
    writer.f64(-3.5e-9);
    writer.str("pentimento");
    writer.endChunk();
    writer.beginChunk(kTag2);
    writer.u64(42);
    writer.u64(43);
    writer.endChunk();
    return writer.finish();
}

/** Full strict parse of the sample image; false on any defect. */
bool
sampleParses(std::vector<std::uint8_t> image)
{
    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(std::move(image));
    if (!made.ok()) {
        return false;
    }
    pu::SnapshotReader &r = made.value();
    if (!r.enterChunk(kTag1)) {
        return false;
    }
    (void)r.u8();
    (void)r.u32();
    (void)r.u64();
    (void)r.f64();
    (void)r.str();
    if (!r.leaveChunk() || !r.enterChunk(kTag2)) {
        return false;
    }
    (void)r.u64();
    (void)r.u64();
    return r.leaveChunk() && r.expectEnd();
}

struct ChunkSpan
{
    std::size_t begin;
    std::size_t end;
};

/** Byte extents of every chunk (incl. END), by walking the headers. */
std::vector<ChunkSpan>
chunkSpans(const std::vector<std::uint8_t> &image)
{
    std::vector<ChunkSpan> spans;
    std::size_t off = 16;
    while (off + 20 <= image.size()) {
        std::uint64_t len = 0;
        std::memcpy(&len, image.data() + off + 8, sizeof(len));
        const std::size_t end = off + 16 + len + 4;
        spans.push_back({off, end});
        off = end;
    }
    return spans;
}

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + leaf;
}

void
writeRawFile(const std::string &path, const std::string &bytes)
{
    std::FILE *fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), fp);
    std::fclose(fp);
}

bool
fileExists(const std::string &path)
{
    std::FILE *fp = std::fopen(path.c_str(), "rb");
    if (fp == nullptr) {
        return false;
    }
    std::fclose(fp);
    return true;
}

/** One-chunk image carrying a single marker value. */
std::vector<std::uint8_t>
markerImage(std::uint64_t marker)
{
    pu::SnapshotWriter writer;
    writer.beginChunk(kTag1);
    writer.u64(marker);
    writer.endChunk();
    return writer.finish();
}

std::uint64_t
readMarker(pu::SnapshotReader &reader)
{
    EXPECT_TRUE(reader.enterChunk(kTag1));
    const std::uint64_t marker = reader.u64();
    EXPECT_TRUE(reader.leaveChunk());
    EXPECT_TRUE(reader.expectEnd());
    return marker;
}

} // namespace

// --------------------------------------------------- container format

TEST(SnapshotFormat, PrimitiveRoundTrip)
{
    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(sampleImage());
    ASSERT_TRUE(made.ok()) << made.error();
    pu::SnapshotReader &r = made.value();
    ASSERT_TRUE(r.enterChunk(kTag1));
    EXPECT_EQ(r.u8(), 7u);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.f64(), -3.5e-9);
    EXPECT_EQ(r.str(), "pentimento");
    ASSERT_TRUE(r.leaveChunk());
    ASSERT_TRUE(r.enterChunk(kTag2));
    EXPECT_EQ(r.u64(), 42u);
    EXPECT_EQ(r.u64(), 43u);
    ASSERT_TRUE(r.leaveChunk());
    EXPECT_TRUE(r.expectEnd());
    EXPECT_TRUE(r.ok()) << r.error();
}

TEST(SnapshotFormat, EveryTruncationDetected)
{
    const std::vector<std::uint8_t> image = sampleImage();
    for (std::size_t len = 0; len < image.size(); ++len) {
        std::vector<std::uint8_t> cut(image.begin(),
                                      image.begin() +
                                          static_cast<std::ptrdiff_t>(len));
        EXPECT_FALSE(sampleParses(std::move(cut)))
            << "truncation to " << len << " bytes went undetected";
    }
}

TEST(SnapshotFormat, EveryBitFlipDetected)
{
    const std::vector<std::uint8_t> image = sampleImage();
    for (std::size_t i = 0; i < image.size(); ++i) {
        for (const std::uint8_t bit : {std::uint8_t{0x01},
                                       std::uint8_t{0x80}}) {
            std::vector<std::uint8_t> flipped = image;
            flipped[i] ^= bit;
            EXPECT_FALSE(sampleParses(std::move(flipped)))
                << "bit flip at byte " << i << " went undetected";
        }
    }
}

TEST(SnapshotFormat, StaleVersionRejected)
{
    std::vector<std::uint8_t> image = sampleImage();
    image[8] = static_cast<std::uint8_t>(pu::kSnapshotVersion + 1);
    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(std::move(image));
    ASSERT_FALSE(made.ok());
    EXPECT_NE(made.error().find("version"), std::string::npos)
        << made.error();
}

TEST(SnapshotFormat, ReservedFlagsRejected)
{
    std::vector<std::uint8_t> image = sampleImage();
    image[13] = 0x40;
    EXPECT_FALSE(pu::SnapshotReader::fromBuffer(std::move(image)).ok());
}

TEST(SnapshotFormat, DuplicateChunkDetected)
{
    std::vector<std::uint8_t> image = sampleImage();
    const std::vector<ChunkSpan> spans = chunkSpans(image);
    ASSERT_EQ(spans.size(), 3u); // TS1, TS2, END
    // Splice a byte-identical copy of chunk 0 (its own CRC intact)
    // right after the original.
    std::vector<std::uint8_t> dup(image.begin(),
                                  image.begin() +
                                      static_cast<std::ptrdiff_t>(
                                          spans[0].end));
    dup.insert(dup.end(),
               image.begin() +
                   static_cast<std::ptrdiff_t>(spans[0].begin),
               image.begin() + static_cast<std::ptrdiff_t>(spans[0].end));
    dup.insert(dup.end(),
               image.begin() + static_cast<std::ptrdiff_t>(spans[0].end),
               image.end());

    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(std::move(dup));
    ASSERT_TRUE(made.ok());
    pu::SnapshotReader &r = made.value();
    ASSERT_TRUE(r.enterChunk(kTag1));
    (void)r.u8();
    (void)r.u32();
    (void)r.u64();
    (void)r.f64();
    (void)r.str();
    ASSERT_TRUE(r.leaveChunk());
    EXPECT_FALSE(r.enterChunk(kTag1));
    EXPECT_NE(r.error().find("sequence"), std::string::npos) << r.error();
}

TEST(SnapshotFormat, MissingChunkDetected)
{
    std::vector<std::uint8_t> image = sampleImage();
    const std::vector<ChunkSpan> spans = chunkSpans(image);
    ASSERT_EQ(spans.size(), 3u);
    image.erase(image.begin() +
                    static_cast<std::ptrdiff_t>(spans[1].begin),
                image.begin() + static_cast<std::ptrdiff_t>(spans[1].end));
    EXPECT_FALSE(sampleParses(std::move(image)));
}

TEST(SnapshotFormat, ReorderedChunksDetected)
{
    const std::vector<std::uint8_t> image = sampleImage();
    const std::vector<ChunkSpan> spans = chunkSpans(image);
    ASSERT_EQ(spans.size(), 3u);
    std::vector<std::uint8_t> swapped(image.begin(), image.begin() + 16);
    const auto append = [&](const ChunkSpan &span) {
        swapped.insert(swapped.end(),
                       image.begin() +
                           static_cast<std::ptrdiff_t>(span.begin),
                       image.begin() +
                           static_cast<std::ptrdiff_t>(span.end));
    };
    append(spans[1]);
    append(spans[0]);
    append(spans[2]);
    EXPECT_FALSE(sampleParses(std::move(swapped)));
}

TEST(SnapshotFormat, TrailingGarbageRejected)
{
    std::vector<std::uint8_t> image = sampleImage();
    image.push_back(0xab);
    EXPECT_FALSE(sampleParses(std::move(image)));
}

TEST(SnapshotFormat, WrongTagAndUnderconsumptionDetected)
{
    {
        pu::Expected<pu::SnapshotReader> made =
            pu::SnapshotReader::fromBuffer(sampleImage());
        ASSERT_TRUE(made.ok());
        EXPECT_FALSE(made.value().enterChunk(kTag2));
        EXPECT_NE(made.value().error().find("tag"), std::string::npos);
    }
    {
        pu::Expected<pu::SnapshotReader> made =
            pu::SnapshotReader::fromBuffer(markerImage(9));
        ASSERT_TRUE(made.ok());
        pu::SnapshotReader &r = made.value();
        ASSERT_TRUE(r.enterChunk(kTag1));
        EXPECT_FALSE(r.leaveChunk()); // u64 payload never consumed
        EXPECT_FALSE(r.ok());
    }
}

TEST(SnapshotFormat, StickyErrorReturnsZeroes)
{
    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(markerImage(77));
    ASSERT_TRUE(made.ok());
    pu::SnapshotReader &r = made.value();
    ASSERT_TRUE(r.enterChunk(kTag1));
    EXPECT_EQ(r.u64(), 77u);
    EXPECT_EQ(r.u64(), 0u); // past payload end: fails, returns zero
    EXPECT_FALSE(r.ok());
    const std::string first = r.error();
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_EQ(r.f64(), 0.0);
    EXPECT_EQ(r.error(), first) << "later failures must not overwrite";
    EXPECT_FALSE(r.status().ok());
}

// ------------------------------------------- atomic commit & fallback

TEST(SnapshotFormat, CommitIsAtomicAndReopens)
{
    const std::string path = tempPath("snap_commit.bin");
    std::remove(path.c_str());
    pu::SnapshotWriter writer;
    writer.beginChunk(kTag1);
    writer.u64(123);
    writer.endChunk();
    const pu::Expected<void> committed = writer.commit(path);
    ASSERT_TRUE(committed.ok()) << committed.error();
    EXPECT_FALSE(fileExists(path + ".tmp"));

    pu::Expected<pu::SnapshotReader> made = pu::SnapshotReader::open(path);
    ASSERT_TRUE(made.ok()) << made.error();
    EXPECT_EQ(readMarker(made.value()), 123u);
    std::remove(path.c_str());
}

TEST(SnapshotFormat, RotatingCommitSurvivesCorruptPrimary)
{
    const std::string path = tempPath("snap_rotate.bin");
    const std::string prev = path + ".prev";
    std::remove(path.c_str());
    std::remove(prev.c_str());

    {
        pu::SnapshotWriter gen1;
        gen1.beginChunk(kTag1);
        gen1.u64(1);
        gen1.endChunk();
        ASSERT_TRUE(gen1.commitRotating(path).ok());
        EXPECT_TRUE(fileExists(path));
        EXPECT_FALSE(fileExists(prev));
    }
    {
        pu::SnapshotWriter gen2;
        gen2.beginChunk(kTag1);
        gen2.u64(2);
        gen2.endChunk();
        ASSERT_TRUE(gen2.commitRotating(path).ok());
        EXPECT_TRUE(fileExists(prev));
    }
    // Both generations intact and distinguishable.
    bool used_fallback = true;
    pu::Expected<pu::SnapshotReader> fresh =
        pu::SnapshotReader::openWithFallback(path, &used_fallback);
    ASSERT_TRUE(fresh.ok());
    EXPECT_FALSE(used_fallback);
    EXPECT_EQ(readMarker(fresh.value()), 2u);

    // Corrupt the primary (torn/garbage write): fallback recovers the
    // previous good generation.
    writeRawFile(path, "not a snapshot");
    pu::Expected<pu::SnapshotReader> recovered =
        pu::SnapshotReader::openWithFallback(path, &used_fallback);
    ASSERT_TRUE(recovered.ok()) << recovered.error();
    EXPECT_TRUE(used_fallback);
    EXPECT_EQ(readMarker(recovered.value()), 1u);

    std::remove(path.c_str());
    std::remove(prev.c_str());
}

TEST(SnapshotFormat, CrashBetweenTempWriteAndRenameIsHarmless)
{
    const std::string path = tempPath("snap_crash.bin");
    const std::string prev = path + ".prev";
    std::remove(path.c_str());
    std::remove(prev.c_str());

    pu::SnapshotWriter gen1;
    gen1.beginChunk(kTag1);
    gen1.u64(1);
    gen1.endChunk();
    ASSERT_TRUE(gen1.commitRotating(path).ok());

    // Crash while writing the next generation: a torn .tmp exists but
    // neither published file was touched.
    writeRawFile(path + ".tmp", "PNTM torn half-written image");
    bool used_fallback = true;
    pu::Expected<pu::SnapshotReader> primary =
        pu::SnapshotReader::openWithFallback(path, &used_fallback);
    ASSERT_TRUE(primary.ok());
    EXPECT_FALSE(used_fallback);
    EXPECT_EQ(readMarker(primary.value()), 1u);
    std::remove((path + ".tmp").c_str());

    // Crash between the two renames of a rotating commit: the primary
    // is already rotated away, .prev still loads.
    ASSERT_EQ(std::rename(path.c_str(), prev.c_str()), 0);
    pu::Expected<pu::SnapshotReader> fallback =
        pu::SnapshotReader::openWithFallback(path, &used_fallback);
    ASSERT_TRUE(fallback.ok()) << fallback.error();
    EXPECT_TRUE(used_fallback);
    EXPECT_EQ(readMarker(fallback.value()), 1u);

    // Both generations gone: a recoverable error naming both paths.
    std::remove(prev.c_str());
    pu::Expected<pu::SnapshotReader> neither =
        pu::SnapshotReader::openWithFallback(path, &used_fallback);
    EXPECT_FALSE(neither.ok());
    EXPECT_NE(neither.error().find("fallback"), std::string::npos);
}

#if defined(PENTIMENTO_FAULT_INJECTION)

// Failed-commit hygiene, driven through the same injection points a
// PENTIMENTO_FAULTS schedule arms: a commit that fails for *any*
// reason must leave no stale .tmp behind and must not have touched the
// published generations — .prev still rescues after a torn rename.
TEST(SnapshotFormat, InjectedCommitFailuresLeaveNoTmpAndKeepPrev)
{
    const std::string path = tempPath("snap_fault.bin");
    const std::string prev = path + ".prev";
    std::remove(path.c_str());
    std::remove(prev.c_str());
    std::remove((path + ".tmp").c_str());

    pu::SnapshotWriter gen1;
    gen1.beginChunk(kTag1);
    gen1.u64(1);
    gen1.endChunk();
    ASSERT_TRUE(gen1.commitRotating(path).ok());

    const char *failures[] = {"snapshot.commit.enospc",
                              "snapshot.commit.short_write",
                              "snapshot.commit.rename"};
    for (const char *point : failures) {
        const pu::Expected<pu::fault::Schedule> schedule =
            pu::fault::parseSchedule(std::string("seed=1;") + point +
                                     ":max=1");
        ASSERT_TRUE(schedule.ok()) << schedule.error();
        pu::fault::arm(schedule.value());

        pu::SnapshotWriter gen2;
        gen2.beginChunk(kTag1);
        gen2.u64(2);
        gen2.endChunk();
        const pu::Expected<void> committed = gen2.commitRotating(path);
        pu::fault::disarm();
        ASSERT_FALSE(committed.ok()) << point << " did not fire";
        // No half-written temp file may survive the failure.
        EXPECT_FALSE(fileExists(path + ".tmp")) << point;
        // The rotation already moved gen1 to .prev; the fallback chain
        // must still deliver it.
        bool used_fallback = false;
        pu::Expected<pu::SnapshotReader> recovered =
            pu::SnapshotReader::openWithFallback(path, &used_fallback);
        ASSERT_TRUE(recovered.ok()) << point << ": " << recovered.error();
        EXPECT_TRUE(used_fallback) << point;
        EXPECT_EQ(readMarker(recovered.value()), 1u) << point;

        // Reset for the next failure mode: republish gen1 as primary.
        std::remove(path.c_str());
        std::remove(prev.c_str());
        pu::SnapshotWriter again;
        again.beginChunk(kTag1);
        again.u64(1);
        again.endChunk();
        ASSERT_TRUE(again.commitRotating(path).ok());
    }
    std::remove(path.c_str());
    std::remove(prev.c_str());
}

// A torn rename is worse than a clean failure: the rename itself
// succeeds, so the *published primary* is truncated mid-image (the
// crash-between-fwrite-and-fsync shape) and commit reports it only
// after the fact. CRC validation must reject the primary and the
// rotating fallback must deliver the previous generation.
TEST(SnapshotFormat, InjectedTornRenamePublishesCorruptPrimaryPrevRescues)
{
    const std::string path = tempPath("snap_torn.bin");
    const std::string prev = path + ".prev";
    std::remove(path.c_str());
    std::remove(prev.c_str());

    pu::SnapshotWriter gen1;
    gen1.beginChunk(kTag1);
    gen1.u64(1);
    gen1.endChunk();
    ASSERT_TRUE(gen1.commitRotating(path).ok());

    const pu::Expected<pu::fault::Schedule> schedule =
        pu::fault::parseSchedule(
            "seed=1;snapshot.commit.torn_rename:max=1");
    ASSERT_TRUE(schedule.ok()) << schedule.error();
    pu::fault::arm(schedule.value());
    pu::SnapshotWriter gen2;
    gen2.beginChunk(kTag1);
    gen2.u64(2);
    gen2.endChunk();
    const pu::Expected<void> committed = gen2.commitRotating(path);
    pu::fault::disarm();

    // The write went through rename before the failure surfaced.
    ASSERT_FALSE(committed.ok());
    EXPECT_NE(committed.error().find("torn rename"), std::string::npos)
        << committed.error();
    EXPECT_FALSE(fileExists(path + ".tmp"));
    // Header-only open() cannot see the damage (the first 16 bytes
    // survived the tear) — the fallback chain's full CRC walk must.
    EXPECT_TRUE(pu::SnapshotReader::open(path).ok());

    bool used_fallback = false;
    pu::Expected<pu::SnapshotReader> recovered =
        pu::SnapshotReader::openWithFallback(path, &used_fallback);
    ASSERT_TRUE(recovered.ok()) << recovered.error();
    EXPECT_TRUE(used_fallback);
    EXPECT_EQ(readMarker(recovered.value()), 1u);

    std::remove(path.c_str());
    std::remove(prev.c_str());
}

// The load-side bit-rot point: a good image on disk, corrupted once in
// flight. The first open (of the primary) rejects; the fallback open
// of .prev succeeds because max=1 spends the fault on the primary.
TEST(SnapshotFormat, InjectedLoadCorruptionFallsBackToPrev)
{
    const std::string path = tempPath("snap_rot.bin");
    const std::string prev = path + ".prev";
    std::remove(path.c_str());
    std::remove(prev.c_str());

    for (std::uint64_t marker : {1ULL, 2ULL}) {
        pu::SnapshotWriter writer;
        writer.beginChunk(kTag1);
        writer.u64(marker);
        writer.endChunk();
        ASSERT_TRUE(writer.commitRotating(path).ok());
    }

    const pu::Expected<pu::fault::Schedule> schedule =
        pu::fault::parseSchedule("seed=1;snapshot.load.corrupt_crc:max=1");
    ASSERT_TRUE(schedule.ok()) << schedule.error();
    pu::fault::arm(schedule.value());
    bool used_fallback = false;
    pu::Expected<pu::SnapshotReader> recovered =
        pu::SnapshotReader::openWithFallback(path, &used_fallback);
    pu::fault::disarm();
    ASSERT_TRUE(recovered.ok()) << recovered.error();
    EXPECT_TRUE(used_fallback);
    EXPECT_EQ(readMarker(recovered.value()), 1u);

    std::remove(path.c_str());
    std::remove(prev.c_str());
}

#endif // PENTIMENTO_FAULT_INJECTION

TEST(SnapshotFormat, ExpectedBasics)
{
    pu::Expected<int> value = 5;
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(value.value(), 5);
    pu::Expected<int> error = pu::unexpected("boom");
    ASSERT_FALSE(error.ok());
    EXPECT_EQ(error.error(), "boom");
    pu::Expected<void> fine;
    EXPECT_TRUE(fine.ok());
}

// ------------------------------------------------ device round trips

namespace {

pf::DeviceConfig
tinyConfig(std::uint64_t seed)
{
    pf::DeviceConfig config;
    config.tiles_x = 8;
    config.tiles_y = 8;
    config.nodes_per_tile = 32;
    config.seed = seed;
    config.service_age_h = 20000.0;
    return config;
}

std::vector<std::uint8_t>
saveDeviceImage(const pf::Device &device)
{
    pu::SnapshotWriter writer;
    writer.beginChunk(kDevTag);
    device.saveState(writer);
    writer.endChunk();
    return writer.finish();
}

pu::Expected<void>
restoreDeviceImage(std::vector<std::uint8_t> image, pf::Device &device,
                   bool *had_design = nullptr)
{
    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(std::move(image));
    if (!made.ok()) {
        return pu::unexpected(made.error());
    }
    pu::SnapshotReader &reader = made.value();
    if (!reader.enterChunk(kDevTag)) {
        return reader.status();
    }
    const pu::Expected<void> restored =
        device.restoreState(reader, had_design);
    if (!restored.ok()) {
        return restored;
    }
    if (!reader.leaveChunk() || !reader.expectEnd()) {
        return reader.status();
    }
    return {};
}

/** Route delays for both polarities at two temperatures. */
void
observeRoute(pf::Device &device, const pf::RouteSpec &spec,
             std::vector<double> &out)
{
    pf::Route route(device, spec);
    out.push_back(route.delayPs(pp::Transition::Rising, 348.15));
    out.push_back(route.delayPs(pp::Transition::Falling, 348.15));
    out.push_back(route.delayPs(pp::Transition::Rising, 353.0));
    out.push_back(route.delayPs(pp::Transition::Falling, 353.0));
}

void
expectSameSeries(const std::vector<double> &straight,
                 const std::vector<double> &resumed)
{
    ASSERT_EQ(straight.size(), resumed.size());
    for (std::size_t i = 0; i < straight.size(); ++i) {
        EXPECT_EQ(straight[i], resumed[i])
            << "observation " << i << " diverged after restore";
    }
}

} // namespace

TEST(SnapshotDevice, MidTenancyRoundTripIsBitIdentical)
{
    // Straight-through twin: two tenancies, a design replace without a
    // wipe, pending journal runs and an open timeline segment at the
    // cut point — nothing observed yet, so nothing is materialised.
    pf::Device straight(tinyConfig(77));
    const pf::RouteSpec ra = straight.allocateRoute("a", 600.0);
    const pf::RouteSpec rb = straight.allocateRoute("b", 400.0);
    const pf::RouteSpec rc = straight.allocateRoute("c", 500.0);
    auto d1 = std::make_shared<pf::Design>("t1");
    d1->setRouteValue(ra, true);
    d1->setRouteToggling(rb, 0.3);
    straight.loadDesign(d1);
    straight.advanceAt(37.0, 348.15);
    auto d2 = std::make_shared<pf::Design>("t2");
    d2->setRouteValue(ra, false);
    d2->setRouteValue(rc, true);
    straight.loadDesign(d2);
    straight.advanceAt(11.5, 351.0); // leaves the segment open

    const std::size_t journaled_before = straight.journaledKeyCount();
    ASSERT_GT(journaled_before, 0u);
    const std::vector<std::uint8_t> image = saveDeviceImage(straight);
    // Save is strictly non-flushing: nothing materialised, journal
    // untouched.
    EXPECT_EQ(straight.journaledKeyCount(), journaled_before);
    EXPECT_EQ(straight.materializedCount(), 0u);

    pf::Device restored(tinyConfig(77));
    bool had_design = false;
    const pu::Expected<void> result =
        restoreDeviceImage(image, restored, &had_design);
    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_TRUE(had_design);
    EXPECT_EQ(restored.journaledKeyCount(), journaled_before);

    // Identical continuation on both twins. Designs are code, not
    // board state: the restored twin re-loads the resident design
    // first (draw-neutral on the straight twin, which already has it).
    const auto continuation = [&](pf::Device &device) {
        std::vector<double> obs;
        device.loadDesign(d2);
        device.advanceAt(5.0, 350.0);
        observeRoute(device, ra, obs);
        observeRoute(device, rb, obs);
        observeRoute(device, rc, obs);
        device.advanceAt(7.0, 349.0);
        observeRoute(device, ra, obs);
        observeRoute(device, rc, obs);
        device.applyServiceWear(2.0);
        observeRoute(device, ra, obs);
        observeRoute(device, rb, obs);
        obs.push_back(static_cast<double>(device.materializedCount()));
        obs.push_back(static_cast<double>(device.journaledKeyCount()));
        obs.push_back(static_cast<double>(device.timelineSegments()));
        return obs;
    };
    expectSameSeries(continuation(straight), continuation(restored));
}

TEST(SnapshotDevice, RestoreRequiresPristineTarget)
{
    pf::Device source(tinyConfig(5));
    source.advanceAt(3.0, 349.0);
    const std::vector<std::uint8_t> image = saveDeviceImage(source);

    pf::Device used(tinyConfig(5));
    used.advanceAt(1.0, 349.0);
    const pu::Expected<void> result = restoreDeviceImage(image, used);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().find("pristine"), std::string::npos);
}

TEST(SnapshotDevice, ConfigFingerprintSkewRejected)
{
    pf::Device source(tinyConfig(5));
    source.advanceAt(3.0, 349.0);
    const std::vector<std::uint8_t> image = saveDeviceImage(source);

    pf::Device other_seed(tinyConfig(6));
    const pu::Expected<void> result =
        restoreDeviceImage(image, other_seed);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().find("fingerprint"), std::string::npos);
}

TEST(SnapshotDevice, CorruptImageNeverAborts)
{
    pf::Device source(tinyConfig(9));
    const pf::RouteSpec r = source.allocateRoute("r", 500.0);
    auto d = std::make_shared<pf::Design>("d");
    d->setRouteValue(r, true);
    source.loadDesign(d);
    source.advanceAt(20.0, 350.0);
    const std::vector<std::uint8_t> image = saveDeviceImage(source);

    // A flip anywhere in the device chunk must surface as an Expected
    // error (CRC), not reach any constructor fatal.
    for (std::size_t i = 20; i < image.size(); i += 97) {
        std::vector<std::uint8_t> corrupt = image;
        corrupt[i] ^= 0x20;
        pf::Device target(tinyConfig(9));
        EXPECT_FALSE(restoreDeviceImage(std::move(corrupt), target).ok())
            << "flip at byte " << i;
    }
    // Truncations likewise.
    for (const std::size_t len :
         {image.size() / 4, image.size() / 2, image.size() - 5}) {
        std::vector<std::uint8_t> cut(
            image.begin(),
            image.begin() + static_cast<std::ptrdiff_t>(len));
        pf::Device target(tinyConfig(9));
        EXPECT_FALSE(restoreDeviceImage(std::move(cut), target).ok())
            << "truncation to " << len;
    }
}

TEST(SnapshotDevice, AgingStoreRehashRoundTrip)
{
    // Materialise past one slab chunk (1024) so the open-addressing
    // index has grown through at least one rehash before the save.
    pf::Device straight(tinyConfig(55));
    std::vector<pf::ResourceId> ids;
    for (std::uint16_t x = 0; x < 8; ++x) {
        for (std::uint16_t y = 0; y < 8; ++y) {
            for (std::uint16_t i = 0; i < 20; ++i) {
                ids.push_back(pf::ResourceId{
                    x, y, pf::ResourceType::RoutingNode, i});
            }
        }
    }
    for (const pf::ResourceId &id : ids) {
        (void)straight.element(id);
    }
    straight.applyServiceWear(10.0);
    ASSERT_GT(straight.materializedCount(), 1024u);

    const std::vector<std::uint8_t> image = saveDeviceImage(straight);
    pf::Device restored(tinyConfig(55));
    const pu::Expected<void> result = restoreDeviceImage(image, restored);
    ASSERT_TRUE(result.ok()) << result.error();

    // Identical listing order and identical flat-index probes: every
    // id must land on the same dense handle it held before the save.
    const std::vector<pf::ResourceId> a = straight.materializedIds();
    const std::vector<pf::ResourceId> b = restored.materializedIds();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].key(), b[i].key()) << "listing order at " << i;
    }
    for (const pf::ResourceId &id : ids) {
        EXPECT_EQ(straight.bindElement(id), restored.bindElement(id));
    }
    const pf::DeviceConfig &cfg = straight.config();
    for (std::size_t i = 0; i < ids.size(); i += 97) {
        const double sa = straight.element(ids[i]).delayPs(
            cfg.bti, cfg.delay, pp::Transition::Rising, 348.15);
        const double sb = restored.element(ids[i]).delayPs(
            cfg.bti, cfg.delay, pp::Transition::Rising, 348.15);
        EXPECT_EQ(sa, sb);
    }
}

TEST(SnapshotDevice, SpillArenaRestoreThenLateKeyAndWear)
{
    // Five activity changes on the same never-observed key push its
    // run list past the two inline slots into the spill arena; the
    // checkpoint lands mid-pending.
    pf::Device straight(tinyConfig(99));
    const pf::RouteSpec rx = straight.allocateRoute("x", 500.0);
    std::vector<std::shared_ptr<pf::Design>> designs;
    for (int i = 0; i < 5; ++i) {
        auto d = std::make_shared<pf::Design>("d" + std::to_string(i));
        if (i % 2 == 0) {
            d->setRouteValue(rx, true);
        } else {
            d->setRouteToggling(rx, 0.2 + 0.1 * i);
        }
        straight.loadDesign(d);
        straight.advanceAt(6.0 + i, 348.0 + i);
        designs.push_back(d);
    }
    ASSERT_GT(straight.journaledKeyCount(), 0u);

    const std::vector<std::uint8_t> image = saveDeviceImage(straight);
    pf::Device restored(tinyConfig(99));
    const pu::Expected<void> result = restoreDeviceImage(image, restored);
    ASSERT_TRUE(result.ok()) << result.error();

    // Immediately after restore: configure a brand-new key alongside
    // the spilled one, then a whole-fabric service-wear sweep — the
    // orderings most likely to trip a mis-restored arena link or pin.
    const auto continuation = [&](pf::Device &device) {
        std::vector<double> obs;
        device.loadDesign(designs.back());
        const pf::RouteSpec ry = device.allocateRoute("y", 450.0);
        auto late = std::make_shared<pf::Design>("late");
        late->setRouteValue(rx, true);
        late->setRouteToggling(ry, 0.5);
        device.loadDesign(late);
        device.advanceAt(9.0, 352.0);
        device.applyServiceWear(4.0);
        observeRoute(device, rx, obs);
        observeRoute(device, ry, obs);
        obs.push_back(static_cast<double>(device.journaledKeyCount()));
        obs.push_back(static_cast<double>(device.materializedCount()));
        return obs;
    };
    expectSameSeries(continuation(straight), continuation(restored));
}

TEST(SnapshotDevice, CompactionPinRebaseAfterRestore)
{
    // Eighty distinct-temperature segments with a journal-deferred key
    // pinned at position zero: the restored timeline must compact with
    // the same prefix drop and pin rebase as the straight run once the
    // pin lifts.
    pf::Device straight(tinyConfig(101));
    const pf::RouteSpec rp = straight.allocateRoute("p", 500.0);
    auto dp = std::make_shared<pf::Design>("dp");
    dp->setRouteValue(rp, true);
    straight.loadDesign(dp);
    for (int i = 0; i < 80; ++i) {
        straight.advanceAt(1.0, 340.0 + static_cast<double>(i % 7));
    }
    ASSERT_GT(straight.journaledKeyCount(), 0u);

    const std::vector<std::uint8_t> image = saveDeviceImage(straight);
    pf::Device restored(tinyConfig(101));
    const pu::Expected<void> result = restoreDeviceImage(image, restored);
    ASSERT_TRUE(result.ok()) << result.error();

    const auto continuation = [&](pf::Device &device) {
        std::vector<double> obs;
        device.loadDesign(dp);
        const pf::RouteSpec rq = device.allocateRoute("q", 420.0);
        auto dq = std::make_shared<pf::Design>("dq");
        dq->setRouteValue(rp, false);
        dq->setRouteToggling(rq, 0.6);
        device.loadDesign(dq);
        device.advanceAt(30.0, 345.0);
        observeRoute(device, rp, obs); // materialise: replay + unpin
        observeRoute(device, rq, obs);
        device.advanceAt(40.0, 346.0);
        device.loadDesign(dp); // flip flush → compaction opportunity
        device.advanceAt(10.0, 347.0);
        observeRoute(device, rp, obs);
        observeRoute(device, rq, obs);
        obs.push_back(static_cast<double>(device.timelineSegments()));
        obs.push_back(static_cast<double>(device.materializedCount()));
        return obs;
    };
    expectSameSeries(continuation(straight), continuation(restored));
}

// ---------------------------------------------- platform round trips

namespace {

pc::PlatformConfig
smallRegion(std::size_t fleet, std::uint64_t seed)
{
    pc::PlatformConfig config = pentimento::core::awsF1Region(seed);
    config.fleet_size = fleet;
    config.device_template.tiles_x = 32;
    config.device_template.tiles_y = 32;
    return config;
}

std::vector<std::uint8_t>
savePlatformImage(const pc::CloudPlatform &platform)
{
    pu::SnapshotWriter writer;
    platform.saveState(writer);
    return writer.finish();
}

pu::Expected<void>
restorePlatformImage(std::vector<std::uint8_t> image,
                     pc::CloudPlatform &platform,
                     std::vector<std::string> *boards_with_design = nullptr)
{
    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(std::move(image));
    if (!made.ok()) {
        return pu::unexpected(made.error());
    }
    pu::SnapshotReader &reader = made.value();
    const pu::Expected<void> restored =
        platform.restoreState(reader, boards_with_design);
    if (!restored.ok()) {
        return restored;
    }
    if (!reader.expectEnd()) {
        return reader.status();
    }
    return {};
}

} // namespace

TEST(SnapshotPlatform, MidTenancyRoundTripIsBitIdentical)
{
    const pc::PlatformConfig config = smallRegion(3, 21);
    pc::CloudPlatform straight(config);
    const std::optional<std::string> board = straight.rent();
    ASSERT_TRUE(board.has_value());
    pf::Device &device = straight.instance(*board).device();
    const pf::RouteSpec r0 = device.allocateRoute("r0", 800.0);
    const pf::RouteSpec r1 = device.allocateRoute("r1", 650.0);
    auto design = std::make_shared<pf::Design>("tenant");
    design->setRouteValue(r0, true);
    design->setRouteToggling(r1, 0.4);
    design->setPowerW(20.0);
    ASSERT_TRUE(straight.loadDesign(*board, design).empty());
    straight.advanceHours(48.0); // idle boards defer, tenant walks

    const std::vector<std::uint8_t> image = savePlatformImage(straight);

    pc::CloudPlatform resumed(config);
    std::vector<std::string> with_design;
    const pu::Expected<void> result =
        restorePlatformImage(image, resumed, &with_design);
    ASSERT_TRUE(result.ok()) << result.error();
    ASSERT_EQ(with_design.size(), 1u);
    EXPECT_EQ(with_design[0], *board);
    EXPECT_EQ(resumed.nowHours(), straight.nowHours());

    const auto continuation = [&](pc::CloudPlatform &platform) {
        std::vector<double> doubles;
        std::vector<std::string> strings;
        EXPECT_TRUE(platform.loadDesign(*board, design).empty());
        platform.advanceHours(25.0);
        doubles.push_back(platform.nowHours());
        for (const std::string &id : platform.allInstanceIds()) {
            pc::FpgaInstance &inst = platform.instance(id);
            doubles.push_back(inst.dieTempK());
            doubles.push_back(inst.rng().uniform());
        }
        pf::Device &dev = platform.instance(*board).device();
        pf::Route a(dev, r0);
        pf::Route b(dev, r1);
        const double die = platform.instance(*board).dieTempK();
        doubles.push_back(a.delayPs(pp::Transition::Rising, die));
        doubles.push_back(a.delayPs(pp::Transition::Falling, die));
        doubles.push_back(b.delayPs(pp::Transition::Rising, die));
        doubles.push_back(b.delayPs(pp::Transition::Falling, die));
        platform.advanceHours(10.0);
        for (const std::string &id : platform.allInstanceIds()) {
            doubles.push_back(platform.instance(id).dieTempK());
        }
        const std::optional<std::string> next = platform.rent();
        strings.push_back(next.value_or("<none>"));
        return std::make_pair(doubles, strings);
    };
    const auto obs_straight = continuation(straight);
    const auto obs_resumed = continuation(resumed);
    expectSameSeries(obs_straight.first, obs_resumed.first);
    EXPECT_EQ(obs_straight.second, obs_resumed.second);
}

TEST(SnapshotPlatform, UnflushedDeferredIdleRoundTrips)
{
    const pc::PlatformConfig config = smallRegion(3, 22);
    pc::CloudPlatform straight(config);
    straight.advanceHours(500.0); // every board defers its walk

    const std::vector<std::uint8_t> image = savePlatformImage(straight);
    // Saving must not flush the deferred backlog.
    for (const std::string &id : straight.allInstanceIds()) {
        EXPECT_EQ(straight.instance(id).deferredIdleHours(), 500.0);
    }

    pc::CloudPlatform resumed(config);
    const pu::Expected<void> result = restorePlatformImage(image, resumed);
    ASSERT_TRUE(result.ok()) << result.error();
    for (const std::string &id : resumed.allInstanceIds()) {
        EXPECT_EQ(resumed.instance(id).deferredIdleHours(), 500.0);
    }

    const auto continuation = [](pc::CloudPlatform &platform) {
        std::vector<double> obs;
        for (const std::string &id : platform.allInstanceIds()) {
            obs.push_back(platform.instance(id).dieTempK()); // flushes
        }
        platform.advanceHours(100.0);
        for (const std::string &id : platform.allInstanceIds()) {
            obs.push_back(platform.instance(id).dieTempK());
            obs.push_back(platform.instance(id).rng().uniform());
        }
        return obs;
    };
    expectSameSeries(continuation(straight), continuation(resumed));
}

TEST(SnapshotPlatform, SchedulerRngStreamContinues)
{
    pc::PlatformConfig config = smallRegion(4, 23);
    config.policy = pc::AllocationPolicy::Random;
    pc::CloudPlatform straight(config);
    const std::optional<std::string> first = straight.rent();
    ASSERT_TRUE(first.has_value());
    straight.advanceHours(10.0);
    straight.release(*first);

    const std::vector<std::uint8_t> image = savePlatformImage(straight);
    pc::CloudPlatform resumed(config);
    const pu::Expected<void> result = restorePlatformImage(image, resumed);
    ASSERT_TRUE(result.ok()) << result.error();

    // The Random policy draws from the scheduler stream on every rent:
    // the restored platform must pick the exact same board sequence.
    const auto drain = [](pc::CloudPlatform &platform) {
        std::vector<std::string> order;
        while (const std::optional<std::string> id = platform.rent()) {
            order.push_back(*id);
        }
        return order;
    };
    EXPECT_EQ(drain(straight), drain(resumed));
}

TEST(SnapshotPlatform, ConfigSkewAndCorruptionRejectedGracefully)
{
    pc::CloudPlatform source(smallRegion(3, 31));
    source.advanceHours(24.0);
    const std::vector<std::uint8_t> image = savePlatformImage(source);

    {
        pc::CloudPlatform other(smallRegion(3, 32));
        const pu::Expected<void> result =
            restorePlatformImage(image, other);
        ASSERT_FALSE(result.ok());
        EXPECT_NE(result.error().find("fingerprint"), std::string::npos);
    }
    {
        std::vector<std::uint8_t> corrupt = image;
        corrupt[corrupt.size() / 2] ^= 0x10;
        pc::CloudPlatform target(smallRegion(3, 31));
        EXPECT_FALSE(restorePlatformImage(std::move(corrupt), target).ok());
    }
    {
        std::vector<std::uint8_t> cut(
            image.begin(),
            image.begin() +
                static_cast<std::ptrdiff_t>(image.size() * 2 / 3));
        pc::CloudPlatform target(smallRegion(3, 31));
        EXPECT_FALSE(restorePlatformImage(std::move(cut), target).ok());
    }
}
