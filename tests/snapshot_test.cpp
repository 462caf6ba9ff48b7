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

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/stat.h>

#include "cloud/platform.hpp"
#include "core/presets.hpp"
#include "fabric/activity_journal.hpp"
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
    writer.varint(0);
    writer.varint(300);
    writer.varint(~std::uint64_t{0});
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
    (void)r.varint();
    (void)r.varint();
    (void)r.varint();
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
    EXPECT_EQ(r.remaining(), 1u + 2u + 10u); // LEB128 widths
    EXPECT_EQ(r.varint(), 0u);
    EXPECT_EQ(r.varint(), 300u);
    EXPECT_EQ(r.varint(), ~std::uint64_t{0});
    EXPECT_EQ(r.remaining(), 0u);
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

// ------------------------------------------------- streamed commits

namespace {

/**
 * One kTag1 chunk per entry of `payloads`, each payload exactly that
 * many bytes (>= 8): a length-prefixed string of a chunk-specific
 * byte pattern.
 */
void
writeChunks(pu::SnapshotWriter &writer,
            const std::vector<std::size_t> &payloads)
{
    for (std::size_t c = 0; c < payloads.size(); ++c) {
        std::string payload(payloads[c] - 8, '\0');
        for (std::size_t i = 0; i < payload.size(); ++i) {
            payload[i] = static_cast<char>(i * 31 + c);
        }
        writer.beginChunk(kTag1);
        writer.str(payload);
        writer.endChunk();
    }
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::FILE *fp = std::fopen(path.c_str(), "rb");
    if (fp == nullptr) {
        return bytes;
    }
    std::uint8_t buffer[65536];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof(buffer), fp)) > 0) {
        bytes.insert(bytes.end(), buffer, buffer + got);
    }
    std::fclose(fp);
    return bytes;
}

/** Size of `path` in bytes, or -1 when it does not exist. */
long long
fileSize(const std::string &path)
{
    struct stat info{};
    return ::stat(path.c_str(), &info) == 0
               ? static_cast<long long>(info.st_size)
               : -1;
}

/** Streamed commit of a one-chunk marker image; waits for it. */
pu::Expected<void>
streamMarker(pu::SnapshotCommitter &committer, const std::string &path,
             std::uint64_t marker)
{
    {
        pu::SnapshotWriter writer(committer, path);
        writer.beginChunk(kTag1);
        writer.u64(marker);
        writer.endChunk();
        writer.finish();
    }
    return committer.drain();
}

} // namespace

// The committer writes exactly the bytes finish() would have returned,
// whatever the block boundaries: an image below one block, a chunk
// closing exactly at (and one byte short of) the flush threshold, one
// chunk larger than a block, and more blocks than the pool holds. Each
// lands as a rotating generation, so .prev holds the one before.
TEST(SnapshotCommitter, StreamedBytesEqualTheFinishedImage)
{
    // After the 16-byte file header, a chunk adds a 16-byte header and
    // a 4-byte CRC to its payload: a first payload of kBlockBytes - 36
    // closes exactly at the threshold.
    constexpr std::size_t kBlock = pu::SnapshotWriter::kBlockBytes;
    const std::vector<std::vector<std::size_t>> shapes = {
        {8, 100},
        {kBlock - 36, 8},
        {kBlock - 37, 8},
        {64, 3 * kBlock + 5, 64},
        std::vector<std::size_t>(40, 50000),
    };
    const std::string path = tempPath("snap_stream.bin");
    const std::string prev = path + ".prev";
    std::remove(path.c_str());
    std::remove(prev.c_str());

    pu::SnapshotCommitter committer;
    std::vector<std::uint8_t> previous;
    for (const std::vector<std::size_t> &shape : shapes) {
        pu::SnapshotWriter memory;
        writeChunks(memory, shape);
        const std::vector<std::uint8_t> image = memory.finish();
        {
            pu::SnapshotWriter streamed(committer, path);
            writeChunks(streamed, shape);
            EXPECT_TRUE(streamed.finish().empty());
        }
        const pu::Expected<void> landed = committer.drain();
        ASSERT_TRUE(landed.ok()) << landed.error();
        EXPECT_EQ(readFile(path), image)
            << shape.size() << " chunks, first " << shape[0] << " B";
        EXPECT_FALSE(fileExists(path + ".tmp"));
        if (!previous.empty()) {
            EXPECT_EQ(readFile(prev), previous);
        }
        previous = image;
    }
    std::remove(path.c_str());
    std::remove(prev.c_str());
}

// The image the campaign engine commits: a 112-board fleet after 180
// days of weekly tenancies, streamed and in memory, byte for byte.
TEST(SnapshotCommitter, FleetAtDay180StreamsTheFinishedImage)
{
    pc::PlatformConfig config;
    config.fleet_size = 112;
    config.region = "stream";
    config.seed = 180;
    pc::CloudPlatform platform(config);
    std::vector<std::pair<std::string, int>> rented; // board, end day
    for (int day = 0; day < 180; ++day) {
        for (std::size_t i = rented.size(); i-- > 0;) {
            if (rented[i].second <= day) {
                platform.release(rented[i].first);
                rented.erase(rented.begin() +
                             static_cast<std::ptrdiff_t>(i));
            }
        }
        if (day % 7 == 0) {
            for (int t = 0; t < 4; ++t) {
                const std::optional<std::string> board = platform.rent();
                ASSERT_TRUE(board.has_value());
                pf::Device &device = platform.instance(*board).device();
                std::vector<pf::RouteSpec> specs;
                for (int r = 0; r < 8; ++r) {
                    specs.push_back(device.allocateRoute(
                        *board + "_d" + std::to_string(day) + "_r" +
                            std::to_string(r),
                        2000.0));
                }
                auto design = std::make_shared<pf::TargetDesign>(
                    "t_" + *board + "_d" + std::to_string(day), specs,
                    std::vector<bool>(specs.size(), (day + t) % 2 == 0));
                ASSERT_TRUE(platform.loadDesign(*board, design).empty());
                rented.emplace_back(*board, day + 2 + 3 * t);
            }
        }
        platform.advanceHours(24.0);
    }

    pu::SnapshotWriter memory;
    platform.saveState(memory);
    const std::vector<std::uint8_t> image = memory.finish();
    ASSERT_GT(image.size(), 2 * pu::SnapshotWriter::kBlockBytes);

    const std::string path = tempPath("snap_fleet.bin");
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    pu::SnapshotCommitter committer;
    {
        pu::SnapshotWriter streamed(committer, path);
        platform.saveState(streamed);
        streamed.finish();
    }
    const pu::Expected<void> landed = committer.drain();
    ASSERT_TRUE(landed.ok()) << landed.error();
    EXPECT_EQ(readFile(path), image);
    std::remove(path.c_str());
}

// A writer destroyed before finish() — an exception mid-encode — never
// publishes. Its blocks already reached the .tmp; the committer
// removes it, the rotation left the older generation at .prev, and the
// next image commits normally.
TEST(SnapshotCommitter, UnfinishedImagePublishesNothing)
{
    const std::string path = tempPath("snap_unfinished.bin");
    const std::string prev = path + ".prev";
    const std::string tmp = path + ".tmp";
    std::remove(path.c_str());
    std::remove(prev.c_str());
    std::remove(tmp.c_str());

    pu::SnapshotCommitter committer;
    ASSERT_TRUE(streamMarker(committer, path, 1).ok());
    {
        constexpr std::size_t kBlock = pu::SnapshotWriter::kBlockBytes;
        pu::SnapshotWriter abandoned(committer, path);
        writeChunks(abandoned, {kBlock, kBlock, kBlock});
        // Blocks stream before finish(): wait until they are on disk.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (fileSize(tmp) < static_cast<long long>(2 * kBlock) &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        EXPECT_GE(fileSize(tmp), static_cast<long long>(2 * kBlock));
    }
    const pu::Expected<void> landed = committer.drain();
    EXPECT_TRUE(landed.ok()) << landed.error();
    EXPECT_FALSE(fileExists(tmp));
    EXPECT_FALSE(fileExists(path));
    bool used_fallback = false;
    pu::Expected<pu::SnapshotReader> older =
        pu::SnapshotReader::openWithFallback(path, &used_fallback);
    ASSERT_TRUE(older.ok()) << older.error();
    EXPECT_TRUE(used_fallback);
    EXPECT_EQ(readMarker(older.value()), 1u);

    ASSERT_TRUE(streamMarker(committer, path, 3).ok());
    pu::Expected<pu::SnapshotReader> next =
        pu::SnapshotReader::openWithFallback(path, &used_fallback);
    ASSERT_TRUE(next.ok()) << next.error();
    EXPECT_FALSE(used_fallback);
    EXPECT_EQ(readMarker(next.value()), 3u);
    std::remove(path.c_str());
    std::remove(prev.c_str());
}

#if defined(PENTIMENTO_FAULT_INJECTION)

// The committer thread runs the synchronous commit's fault points: each
// failure comes back from drain() once, leaves no .tmp, and the
// rotation-first .prev still rescues — also after a torn rename, which
// publishes a truncated primary.
TEST(SnapshotCommitter, InjectedCommitFailuresLeaveNoTmpAndKeepPrev)
{
    const std::string path = tempPath("snap_stream_fault.bin");
    const std::string prev = path + ".prev";
    std::remove(path.c_str());
    std::remove(prev.c_str());
    std::remove((path + ".tmp").c_str());

    pu::SnapshotCommitter committer;
    const char *failures[] = {"snapshot.commit.enospc",
                              "snapshot.commit.short_write",
                              "snapshot.commit.rename",
                              "snapshot.commit.torn_rename"};
    for (const char *point : failures) {
        std::remove(path.c_str());
        std::remove(prev.c_str());
        ASSERT_TRUE(streamMarker(committer, path, 1).ok()) << point;

        const pu::Expected<pu::fault::Schedule> schedule =
            pu::fault::parseSchedule(std::string("seed=1;") + point +
                                     ":max=1");
        ASSERT_TRUE(schedule.ok()) << schedule.error();
        pu::fault::arm(schedule.value());
        const pu::Expected<void> failed = streamMarker(committer, path, 2);
        pu::fault::disarm();
        ASSERT_FALSE(failed.ok()) << point << " did not fire";
        EXPECT_TRUE(committer.drain().ok()) << point << " reported twice";
        EXPECT_FALSE(fileExists(path + ".tmp")) << point;

        bool used_fallback = false;
        pu::Expected<pu::SnapshotReader> recovered =
            pu::SnapshotReader::openWithFallback(path, &used_fallback);
        ASSERT_TRUE(recovered.ok()) << point << ": " << recovered.error();
        EXPECT_TRUE(used_fallback) << point;
        EXPECT_EQ(readMarker(recovered.value()), 1u) << point;
    }
    std::remove(path.c_str());
    std::remove(prev.c_str());
}

#endif // PENTIMENTO_FAULT_INJECTION

namespace {

/** Bit-at-a-time CRC32C: the definition, independent of both paths. */
std::uint32_t
crc32cBitwise(std::uint32_t crc, std::uint8_t byte)
{
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
    return crc;
}

} // namespace

TEST(SnapshotFormat, Crc32cKnownAnswersAndPathsAgree)
{
    // RFC 3720 section B.4 test vectors. They pin the on-disk checksum,
    // so images written before the hardware path still load.
    const std::string check = "123456789";
    std::vector<std::uint8_t> zeros(32, 0x00);
    std::vector<std::uint8_t> ones(32, 0xff);
    std::vector<std::uint8_t> ascending(32);
    for (std::size_t i = 0; i < ascending.size(); ++i) {
        ascending[i] = static_cast<std::uint8_t>(i);
    }
    for (const auto crc : {pu::crc32c, pu::crc32cPortable}) {
        EXPECT_EQ(crc(check.data(), check.size(), 0), 0xE3069283u);
        EXPECT_EQ(crc(zeros.data(), zeros.size(), 0), 0x8A9136AAu);
        EXPECT_EQ(crc(ones.data(), ones.size(), 0), 0x62A8AB43u);
        EXPECT_EQ(crc(ascending.data(), ascending.size(), 0), 0x46DD794Eu);
        EXPECT_EQ(crc(nullptr, 0, 0), 0u);
    }

    // Every length 0..4096 at every start offset 0..7 (so the 8-byte
    // steps meet every alignment and every tail length): the dispatched
    // path, the table path and the bitwise definition agree.
    constexpr std::size_t kMaxLen = 4096;
    pu::Rng rng(0xc3c32c);
    std::vector<std::uint8_t> buffer(kMaxLen + 8);
    for (std::uint8_t &b : buffer) {
        b = static_cast<std::uint8_t>(rng());
    }
    for (std::size_t offset = 0; offset < 8; ++offset) {
        const std::uint8_t *data = buffer.data() + offset;
        std::uint32_t reference = ~0u;
        for (std::size_t len = 0; len <= kMaxLen; ++len) {
            if (len > 0) {
                reference = crc32cBitwise(reference, data[len - 1]);
            }
            const std::uint32_t fast = pu::crc32c(data, len);
            ASSERT_EQ(fast, ~reference)
                << "offset " << offset << " length " << len;
            ASSERT_EQ(pu::crc32cPortable(data, len), fast)
                << "offset " << offset << " length " << len;
        }
    }

    // Chaining through `seed` equals one pass over the concatenation,
    // on both paths and across every split point of a short range.
    constexpr std::size_t kChainLen = 77;
    const std::uint8_t *data = buffer.data() + 3;
    const std::uint32_t whole = pu::crc32cPortable(data, kChainLen);
    for (std::size_t split = 0; split <= kChainLen; ++split) {
        const std::uint32_t fast =
            pu::crc32c(data + split, kChainLen - split,
                       pu::crc32c(data, split));
        const std::uint32_t table = pu::crc32cPortable(
            data + split, kChainLen - split, pu::crc32cPortable(data, split));
        EXPECT_EQ(fast, whole) << "split " << split;
        EXPECT_EQ(table, whole) << "split " << split;
    }
}

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

/** The device chunk's payload inside a one-chunk image. */
std::vector<std::uint8_t>
devicePayload(const std::vector<std::uint8_t> &image)
{
    std::uint64_t payload_len = 0;
    std::memcpy(&payload_len, image.data() + 24, sizeof(payload_len));
    return std::vector<std::uint8_t>(
        image.begin() + 32,
        image.begin() + 32 + static_cast<std::ptrdiff_t>(payload_len));
}

/** Re-wrap an edited device payload (so its CRC is valid) and
 *  restore it into a fresh device built from tinyConfig(seed). */
pu::Expected<void>
restoreDevicePayload(const std::vector<std::uint8_t> &payload,
                     std::uint64_t seed)
{
    pu::SnapshotWriter writer;
    writer.beginChunk(kDevTag);
    for (const std::uint8_t byte : payload) {
        writer.u8(byte);
    }
    writer.endChunk();
    pf::Device target(tinyConfig(seed));
    return restoreDeviceImage(writer.finish(), target);
}

/** Overwrite every 8-byte occurrence of `from`'s bits in `payload`
 *  with `to`'s; returns how many were replaced. */
std::size_t
replaceF64(std::vector<std::uint8_t> &payload, double from, double to)
{
    std::uint8_t needle[8];
    std::uint8_t with[8];
    std::memcpy(needle, &from, sizeof(needle));
    std::memcpy(with, &to, sizeof(with));
    std::size_t replaced = 0;
    for (std::size_t i = 0; i + 8 <= payload.size(); ++i) {
        if (std::memcmp(payload.data() + i, needle, 8) == 0) {
            std::memcpy(payload.data() + i, with, 8);
            ++replaced;
            i += 7;
        }
    }
    return replaced;
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

namespace {

/** One hand-written journal entry: its key, run count (0 = spent),
 *  past two runs its spill chain's head and tail nodes, and the
 *  positions its inline runs start at. */
struct JournalEntry
{
    std::uint64_t key;
    std::uint32_t count;
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    std::uint32_t from[2] = {0, 0};
};

/** Kind-byte bit marking a run whose duty is exactly 0.5. */
constexpr std::uint8_t kJournalHalfDuty = 0x80;

/**
 * A journal chunk written field by field in ActivityJournal's layout:
 * index size, active count, the spill arena (one Hold1 run per node,
 * at the position `arena_from` gives it or 0, each with its saved
 * link: next node + 1, 0 = chain end), then the entries, each with up
 * to two inline Hold1 runs.
 */
std::vector<std::uint8_t>
journalImage(std::uint64_t index_size, std::uint64_t active,
             const std::vector<JournalEntry> &entries,
             const std::vector<std::uint64_t> &arena_links = {},
             const std::vector<std::uint32_t> &arena_from = {})
{
    const auto run = [](pu::SnapshotWriter &writer, std::uint32_t from) {
        writer.varint(from);
        writer.u8(static_cast<std::uint8_t>(pf::Activity::Hold1) |
                  kJournalHalfDuty);
    };
    pu::SnapshotWriter writer;
    writer.beginChunk(kDevTag);
    writer.varint(index_size);
    writer.varint(active);
    writer.varint(arena_links.size());
    for (std::size_t n = 0; n < arena_links.size(); ++n) {
        run(writer, n < arena_from.size() ? arena_from[n] : 0);
        writer.varint(arena_links[n]);
    }
    writer.varint(entries.size());
    for (const JournalEntry &entry : entries) {
        writer.u64(entry.key);
        writer.varint(entry.count);
        for (std::uint32_t r = 0; r < std::min(entry.count, 2u); ++r) {
            run(writer, entry.from[r]);
        }
        if (entry.count > 2) {
            writer.varint(entry.head);
            writer.varint(entry.tail);
        }
    }
    writer.endChunk();
    return writer.finish();
}

/** `n` distinct active one-run entries. */
std::vector<JournalEntry>
activeEntries(std::size_t n)
{
    std::vector<JournalEntry> entries;
    for (std::size_t i = 0; i < n; ++i) {
        entries.push_back({1000 + i, 1});
    }
    return entries;
}

/** Restore `image` into `journal` against a timeline of `positions`
 *  closed segments; returns the reader's status. */
pu::Expected<void>
restoreJournalImage(std::vector<std::uint8_t> image,
                    pf::ActivityJournal &journal,
                    std::uint64_t positions = 0)
{
    pu::Expected<pu::SnapshotReader> made =
        pu::SnapshotReader::fromBuffer(std::move(image));
    if (!made.ok()) {
        return pu::unexpected(made.error());
    }
    pu::SnapshotReader &reader = made.value();
    if (reader.enterChunk(kDevTag) &&
        journal.restoreState(reader, positions)) {
        reader.leaveChunk();
        reader.expectEnd();
    }
    return reader.status();
}

/** The journal's own chunk image. */
std::vector<std::uint8_t>
saveJournalImage(const pf::ActivityJournal &journal)
{
    pu::SnapshotWriter writer;
    writer.beginChunk(kDevTag);
    journal.saveState(writer);
    writer.endChunk();
    return writer.finish();
}

/** A refused restore must leave a journal that still records. */
void
expectStillRecords(pf::ActivityJournal &journal)
{
    EXPECT_TRUE(journal.recordIfChanged(
        77, pf::ElementActivity{pf::Activity::Hold0, 0.5}, 0));
    EXPECT_EQ(journal.activeKeyCount(), 1u);
    EXPECT_EQ(journal.current(77).kind, pf::Activity::Hold0);
}

} // namespace

TEST(SnapshotDevice, JournalGeometryAndDuplicatesRejected)
{
    // Control: the hand-written layout restores, spent marker and all,
    // and lists its active keys in entry order.
    {
        pf::ActivityJournal journal;
        const pu::Expected<void> restored = restoreJournalImage(
            journalImage(256, 2, {{1001, 1}, {1000, 2}, {1002, 0}}),
            journal);
        ASSERT_TRUE(restored.ok()) << restored.error();
        EXPECT_EQ(journal.activeKeys(),
                  (std::vector<std::uint64_t>{1001, 1000}));
        EXPECT_EQ(journal.current(1000).kind, pf::Activity::Hold1);
        EXPECT_EQ(journal.current(1002).kind, pf::Activity::Unused);
    }
    // Entries above half the index: the next record could fill it,
    // and probe() never ends on a full table. A completely full index
    // is the case that would hang.
    for (const std::size_t n : {std::size_t{129}, std::size_t{256}}) {
        pf::ActivityJournal journal;
        const pu::Expected<void> restored = restoreJournalImage(
            journalImage(256, n, activeEntries(n)), journal);
        ASSERT_FALSE(restored.ok()) << n << " entries";
        EXPECT_EQ(restored.error(),
                  "snapshot: journal holds more entries than half its "
                  "index");
        expectStillRecords(journal);
    }
    // Index sizes live growth can never leave.
    {
        pf::ActivityJournal journal;
        const pu::Expected<void> restored = restoreJournalImage(
            journalImage(384, 3, activeEntries(3)), journal);
        ASSERT_FALSE(restored.ok());
        EXPECT_EQ(restored.error(),
                  "snapshot: journal index size is not a table size");
    }
    {
        pf::ActivityJournal journal;
        const pu::Expected<void> restored = restoreJournalImage(
            journalImage(512, 3, activeEntries(3)), journal);
        ASSERT_FALSE(restored.ok());
        EXPECT_EQ(restored.error(),
                  "snapshot: journal index is larger than its entries "
                  "need");
    }
    // A duplicate key is refused after the index is built, and the
    // half-built state is discarded.
    {
        pf::ActivityJournal journal;
        const pu::Expected<void> restored = restoreJournalImage(
            journalImage(256, 2, {{1000, 1}, {1001, 0}, {1000, 2}}),
            journal);
        ASSERT_FALSE(restored.ok());
        EXPECT_EQ(restored.error(), "snapshot: journal key is duplicated");
        EXPECT_EQ(journal.activeKeyCount(), 0u);
        EXPECT_EQ(journal.current(1000).kind, pf::Activity::Unused);
        expectStillRecords(journal);
    }
    // Spill chains: a good one restores; a link past the arena, a
    // cycle, and a node two chains share are refused (consume() and
    // rebase() walk chains to their end).
    {
        pf::ActivityJournal journal;
        const pu::Expected<void> restored = restoreJournalImage(
            journalImage(256, 1, {{1000, 4, 0, 1}}, {2, 0}), journal);
        ASSERT_TRUE(restored.ok()) << restored.error();
        EXPECT_EQ(journal.consume(1000).size(), 4u);
    }
    {
        pf::ActivityJournal journal;
        const pu::Expected<void> restored = restoreJournalImage(
            journalImage(256, 1, {{1000, 3, 0, 0}}, {3, 0}), journal);
        ASSERT_FALSE(restored.ok());
        EXPECT_EQ(restored.error(),
                  "snapshot: journal arena link out of range");
    }
    for (const std::vector<JournalEntry> &chains :
         {std::vector<JournalEntry>{{1000, 4, 0, 1}},
          std::vector<JournalEntry>{{1000, 3, 1, 1}, {1001, 4, 0, 1}}}) {
        pf::ActivityJournal journal;
        const pu::Expected<void> restored = restoreJournalImage(
            journalImage(256, chains.size(), chains,
                         chains.size() == 1
                             ? std::vector<std::uint64_t>{2, 1}
                             : std::vector<std::uint64_t>{2, 0}),
            journal);
        ASSERT_FALSE(restored.ok());
        EXPECT_EQ(restored.error(),
                  "snapshot: journal spill chain is broken");
        expectStillRecords(journal);
    }
    // The saved active count must match the non-spent entries.
    {
        pf::ActivityJournal journal;
        const pu::Expected<void> restored = restoreJournalImage(
            journalImage(256, 3, {{1000, 1}, {1001, 0}, {1002, 2}}),
            journal);
        ASSERT_FALSE(restored.ok());
        EXPECT_EQ(restored.error(),
                  "snapshot: journal active-key count mismatch");
        expectStillRecords(journal);
    }
}

TEST(SnapshotDevice, JournalSaveRestoreSaveIsByteIdentical)
{
    // A seeded program of records, consumes, rebases and index
    // growths over a pool of keys, then save → restore → save.
    constexpr std::size_t kPool = 3000;
    constexpr std::uint64_t kBase = 0x0001000200030000ULL;
    pf::ActivityJournal journal;
    pu::Rng rng(20240514);
    std::vector<bool> spent(kPool, false);
    std::vector<std::size_t> runs(kPool, 0);
    std::uint32_t pos = 0;
    std::size_t off_half = 0;
    std::size_t consumed = 0;
    std::size_t rebases = 0;
    for (int step = 0; step < 40000; ++step) {
        const std::size_t k = rng.uniformIndex(kPool);
        const double op = rng.uniform();
        if (op < 0.0005) {
            // A compaction drops part of the pinned prefix.
            const std::uint32_t delta = journal.minActivePosition(pos) / 2;
            journal.rebase(delta);
            pos -= delta;
            rebases += delta != 0 ? 1 : 0;
        } else if (op < 0.02) {
            consumed += journal.consume(kBase + k).empty() ? 0 : 1;
            spent[k] = true;
        } else if (!spent[k]) {
            // Positions climb past 2^21, so their varints need 4 bytes.
            pos += static_cast<std::uint32_t>(rng.uniformIndex(600));
            const auto kind = static_cast<pf::Activity>(rng.uniformIndex(4));
            const double duty =
                rng.bernoulli(0.5) ? 0.5 : rng.uniform(0.05, 0.95);
            if (journal.recordIfChanged(
                    kBase + k, pf::ElementActivity{kind, duty}, pos)) {
                ++runs[k];
                off_half += duty != 0.5 ? 1 : 0;
            }
        }
    }
    std::size_t spilled = 0;
    for (std::size_t k = 0; k < kPool; ++k) {
        spilled += !spent[k] && runs[k] > 2 ? 1 : 0;
    }
    ASSERT_GT(spilled, 0u);
    ASSERT_GT(off_half, 0u);
    ASSERT_GT(consumed, 0u);
    ASSERT_GT(rebases, 0u);
    ASSERT_GE(pos, 1u << 21);
    ASSERT_GT(journal.activeKeyCount(), 512u); // index grew past 1024

    const std::vector<std::uint8_t> first = saveJournalImage(journal);
    pf::ActivityJournal restored;
    const pu::Expected<void> result =
        restoreJournalImage(first, restored, pos);
    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_EQ(saveJournalImage(restored), first);

    EXPECT_EQ(restored.activeKeys(), journal.activeKeys());
    EXPECT_EQ(restored.minActivePosition(pos),
              journal.minActivePosition(pos));
    for (std::size_t k = 0; k < kPool; ++k) {
        const pf::ElementActivity a = journal.current(kBase + k);
        const pf::ElementActivity b = restored.current(kBase + k);
        EXPECT_EQ(a.kind, b.kind) << "key " << k;
        EXPECT_EQ(a.duty_one, b.duty_one) << "key " << k;
    }
    for (std::size_t k = 0; k < kPool; ++k) {
        const std::vector<pf::JournalRun> a = journal.consume(kBase + k);
        const std::vector<pf::JournalRun> b = restored.consume(kBase + k);
        ASSERT_EQ(a.size(), b.size()) << "key " << k;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].from, b[i].from);
            EXPECT_TRUE(a[i].activity == b[i].activity);
        }
    }
}

TEST(SnapshotDevice, HugeCountsRejectedWithoutAllocating)
{
    // A pristine device's payload, spliced and re-wrapped so its CRC
    // is valid: every count below claims far more records than the
    // chunk holds and must fail before anything is sized by it. The
    // tail of a pristine payload is fixed: closed-segment count, the
    // open segment (33 bytes), element count, the empty journal
    // (index size, active count, arena count, entry count: 4 bytes),
    // then the BRAM design name, revision and block count.
    pf::Device pristine(tinyConfig(17));
    const std::vector<std::uint8_t> payload =
        devicePayload(saveDeviceImage(pristine));
    const std::size_t end = payload.size();
    const std::size_t closed_at = end - 77;
    const std::size_t elements_at = end - 36;
    const std::size_t journal_at = end - 28;
    const std::size_t bram_at = end - 8;

    const auto u64Bytes = [](std::uint64_t v) {
        std::vector<std::uint8_t> bytes(sizeof(v));
        std::memcpy(bytes.data(), &v, sizeof(v));
        return bytes;
    };
    const auto varintBytes = [](std::uint64_t v) {
        std::vector<std::uint8_t> bytes;
        while (v >= 0x80) {
            bytes.push_back(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        bytes.push_back(static_cast<std::uint8_t>(v));
        return bytes;
    };
    // Replace `width` bytes at `at`, then restore the re-wrapped image.
    const auto restoreSpliced = [&](std::size_t at, std::size_t width,
                                    const std::vector<std::uint8_t> &with) {
        std::vector<std::uint8_t> spliced = payload;
        spliced.erase(spliced.begin() + static_cast<std::ptrdiff_t>(at),
                      spliced.begin() +
                          static_cast<std::ptrdiff_t>(at + width));
        spliced.insert(spliced.begin() + static_cast<std::ptrdiff_t>(at),
                       with.begin(), with.end());
        return restoreDevicePayload(spliced, 17);
    };

    // The splice points hold what a pristine device saves.
    ASSERT_TRUE(restoreSpliced(0, 0, {}).ok());
    ASSERT_EQ(std::vector<std::uint8_t>(payload.begin() + closed_at,
                                        payload.begin() + closed_at + 8),
              u64Bytes(0));
    ASSERT_EQ(std::vector<std::uint8_t>(payload.begin() + journal_at,
                                        payload.begin() + journal_at + 2),
              (std::vector<std::uint8_t>{0, 0}));

    constexpr std::uint64_t kHuge = std::uint64_t{1} << 60;
    struct Case
    {
        const char *what;
        std::size_t at;
        std::size_t width;
        std::vector<std::uint8_t> with;
        const char *error;
    };
    const std::vector<Case> cases = {
        {"segments", closed_at, 8, u64Bytes(kHuge),
         "snapshot: timeline segment count overruns the chunk"},
        {"elements", elements_at, 8, u64Bytes(kHuge),
         "snapshot: element count overruns the chunk"},
        {"index", journal_at, 1, varintBytes(std::uint64_t{1} << 40),
         "snapshot: journal index is larger than its entries need"},
        {"arena", journal_at + 2, 1, varintBytes(kHuge),
         "snapshot: journal arena count overruns the chunk"},
        {"entries", journal_at + 3, 1, varintBytes(kHuge),
         "snapshot: journal entry count overruns the chunk"},
        {"bram", bram_at, 8, u64Bytes(kHuge),
         "snapshot: BRAM block count overruns the chunk"},
        {"varint", journal_at, 1,
         std::vector<std::uint8_t>(11, 0x80),
         "snapshot: varint overruns 10 bytes / 64 bits"},
    };
    for (const Case &c : cases) {
        const pu::Expected<void> restored =
            restoreSpliced(c.at, c.width, c.with);
        ASSERT_FALSE(restored.ok()) << c.what;
        EXPECT_EQ(restored.error(), c.error) << c.what;
    }
}

TEST(SnapshotDevice, JournalRunsPastTimelineOrOutOfOrderRejected)
{
    // Replay reads the closed segments between a key's consecutive
    // run starts, and the last run start becomes the element's synced
    // position. A run past the restored timeline, or runs out of
    // order, would index past the segment list at the first bind.
    {
        // Control: a run may start at the timeline's end.
        pf::ActivityJournal journal;
        const pu::Expected<void> restored = restoreJournalImage(
            journalImage(256, 1, {{1000, 2, 0, 0, {3, 5}}}), journal, 5);
        ASSERT_TRUE(restored.ok()) << restored.error();
        EXPECT_EQ(journal.minActivePosition(9), 3u);
    }
    struct Case
    {
        const char *what;
        std::vector<std::uint8_t> image;
        const char *error;
    };
    const std::vector<Case> cases = {
        {"first run past the end",
         journalImage(256, 1, {{1000, 1, 0, 0, {6, 0}}}),
         "snapshot: journal run is out of range"},
        {"second run past the end",
         journalImage(256, 1, {{1000, 2, 0, 0, {3, 6}}}),
         "snapshot: journal run is out of range"},
        {"spilled run past the end",
         journalImage(256, 1, {{1000, 3, 0, 0, {1, 2}}}, {0}, {6}),
         "snapshot: journal run is out of range"},
        {"inline runs out of order",
         journalImage(256, 1, {{1000, 2, 0, 0, {4, 3}}}),
         "snapshot: journal runs are out of order"},
        {"spilled run before the inline ones",
         journalImage(256, 1, {{1000, 3, 0, 0, {1, 4}}}, {0}, {3}),
         "snapshot: journal spill chain is broken"},
        {"spilled runs out of order",
         journalImage(256, 1, {{1000, 4, 0, 1, {1, 2}}}, {2, 0}, {5, 4}),
         "snapshot: journal spill chain is broken"},
    };
    for (const Case &c : cases) {
        pf::ActivityJournal journal;
        const pu::Expected<void> restored =
            restoreJournalImage(c.image, journal, 5);
        ASSERT_FALSE(restored.ok()) << c.what;
        EXPECT_EQ(restored.error(), c.error) << c.what;
        expectStillRecords(journal);
    }

    // The device checks its journal against its own timeline: cut the
    // closed segments of a saved image short under a deferred key.
    pf::Device device(tinyConfig(23));
    const pf::RouteSpec r = device.allocateRoute("r", 500.0);
    auto d = std::make_shared<pf::Design>("d");
    d->setRouteValue(r, true);
    device.loadDesign(d);
    for (int i = 0; i < 6; ++i) {
        device.advanceAt(2.0, 340.0 + i);
    }
    device.wipe(); // the released run starts past every cut below
    device.advanceAt(4.0, 320.0);
    device.advanceAt(4.0, 321.0);
    ASSERT_EQ(device.journaledKeyCount(), r.size());
    const std::vector<std::uint8_t> payload =
        devicePayload(saveDeviceImage(device));
    ASSERT_TRUE(restoreDevicePayload(payload, 23).ok());

    // The closed-segment count sits where a pristine payload, whose
    // fixed-size tail follows it, puts it.
    const std::size_t closed_at =
        devicePayload(saveDeviceImage(pf::Device(tinyConfig(23)))).size() -
        77;
    std::uint64_t closed = 0;
    std::memcpy(&closed, payload.data() + closed_at, sizeof(closed));
    ASSERT_GE(closed, 7u);
    // Segments are duration, stress, flag (+ recovery when flagged).
    std::vector<std::size_t> seg_at;
    std::size_t at = closed_at + 8;
    for (std::uint64_t i = 0; i < closed; ++i) {
        seg_at.push_back(at);
        at += payload[at + 16] != 0 ? 25 : 17;
    }
    seg_at.push_back(at);
    for (const std::uint64_t keep : {std::uint64_t{1}, std::uint64_t{4}}) {
        std::vector<std::uint8_t> cut = payload;
        cut.erase(cut.begin() + static_cast<std::ptrdiff_t>(seg_at[keep]),
                  cut.begin() + static_cast<std::ptrdiff_t>(seg_at.back()));
        std::memcpy(cut.data() + closed_at, &keep, sizeof(keep));
        const pu::Expected<void> restored = restoreDevicePayload(cut, 23);
        ASSERT_FALSE(restored.ok()) << keep << " segments kept";
        EXPECT_EQ(restored.error(), "snapshot: journal run is out of range")
            << keep << " segments kept";
    }
}

TEST(SnapshotDevice, CompactionPinRecomputedOnRestore)
{
    // The compaction pin is a memo of the smallest first-run position
    // among active keys. It is not saved, so a checkpoint cannot carry
    // a pin its runs contradict: two journals that differ only in
    // whether the memo is filled save the same bytes, and a restored
    // journal reports the pin its runs imply.
    const auto build = [](bool memo_filled) {
        pf::ActivityJournal journal;
        journal.recordIfChanged(
            10, pf::ElementActivity{pf::Activity::Hold1, 0.5}, 7);
        journal.recordIfChanged(
            11, pf::ElementActivity{pf::Activity::Hold0, 0.5}, 3);
        if (memo_filled) {
            EXPECT_EQ(journal.minActivePosition(100), 3u);
        }
        return saveJournalImage(journal);
    };
    EXPECT_EQ(build(false), build(true));

    pf::ActivityJournal journal;
    const pu::Expected<void> restored = restoreJournalImage(
        journalImage(256, 2,
                     {{1000, 1, 0, 0, {7, 0}},
                      {1001, 0},
                      {1002, 2, 0, 0, {4, 9}}}),
        journal, 9);
    ASSERT_TRUE(restored.ok()) << restored.error();
    EXPECT_EQ(journal.minActivePosition(100), 4u);
    // Compaction drops exactly the pinned prefix; nothing wraps.
    journal.rebase(journal.minActivePosition(9));
    EXPECT_EQ(journal.minActivePosition(100), 0u);
    const std::vector<pf::JournalRun> runs = journal.consume(1002);
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].from, 0u);
    EXPECT_EQ(runs[1].from, 5u);
    EXPECT_EQ(journal.minActivePosition(100), 3u);
}

TEST(SnapshotDevice, ImpossibleActivityStateRejected)
{
    // A toggle duty outside [0, 1] throws from ElementAging at the
    // next replay, and a NaN duty turns every delay into NaN, whether
    // the duty sits in an element's live activity or in a journal
    // run. A state epoch equal to kDvthNeverCached makes every empty
    // ΔVth memo slot read as filled with pristine shifts. Restore
    // refuses all of them.
    constexpr double kDuty = 0.3;
    const auto toggled = [](bool observe) {
        pf::Device device(tinyConfig(29));
        const pf::RouteSpec r = device.allocateRoute("r", 500.0);
        auto d = std::make_shared<pf::Design>("d");
        d->setRouteToggling(r, kDuty);
        device.loadDesign(d);
        device.advanceAt(12.0, 350.0);
        if (observe) {
            std::vector<double> unused;
            observeRoute(device, r, unused); // the duty moves to live_
        }
        return devicePayload(saveDeviceImage(device));
    };
    for (const bool observe : {true, false}) {
        const std::vector<std::uint8_t> payload = toggled(observe);
        ASSERT_TRUE(restoreDevicePayload(payload, 29).ok());
        for (const double bad : {7.0, -0.25, std::nan("")}) {
            std::vector<std::uint8_t> edited = payload;
            ASSERT_GT(replaceF64(edited, kDuty, bad), 0u);
            const pu::Expected<void> restored =
                restoreDevicePayload(edited, 29);
            ASSERT_FALSE(restored.ok()) << "duty " << bad;
            EXPECT_EQ(restored.error(),
                      observe ? "snapshot: element activity bookkeeping "
                                "is out of range"
                              : "snapshot: journal run is out of range")
                << "duty " << bad;
        }
    }

    // Two pristine payloads that differ only in the epoch locate it.
    pf::Device epoch0(tinyConfig(29));
    pf::Device epoch1(tinyConfig(29));
    epoch1.creditIdleHours(0.0);
    ASSERT_EQ(epoch1.stateEpoch(), 1u);
    const std::vector<std::uint8_t> p0 =
        devicePayload(saveDeviceImage(epoch0));
    const std::vector<std::uint8_t> p1 =
        devicePayload(saveDeviceImage(epoch1));
    ASSERT_EQ(p0.size(), p1.size());
    std::vector<std::size_t> differ;
    for (std::size_t i = 0; i < p0.size(); ++i) {
        if (p0[i] != p1[i]) {
            differ.push_back(i);
        }
    }
    ASSERT_EQ(differ.size(), 1u);
    const std::size_t epoch_at = differ[0];

    const std::vector<std::uint8_t> aged = toggled(true);
    for (const std::uint64_t epoch :
         {pf::kDvthNeverCached, pf::kDvthNeverCached - 1}) {
        std::vector<std::uint8_t> edited = aged;
        std::memcpy(edited.data() + epoch_at, &epoch, sizeof(epoch));
        const pu::Expected<void> restored =
            restoreDevicePayload(edited, 29);
        if (epoch == pf::kDvthNeverCached) {
            ASSERT_FALSE(restored.ok());
            EXPECT_EQ(restored.error(),
                      "snapshot: device state epoch is out of range");
        } else {
            EXPECT_TRUE(restored.ok()) << restored.error();
        }
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
