/**
 * @file
 * Versioned, checksummed binary snapshot format for board state.
 *
 * Layout: an 16-byte header (magic "PNTMSNP\x01", format version,
 * reserved flags) followed by a flat sequence of chunks. Each chunk is
 *
 *     u32 tag | u32 seq | u64 payload_len | payload | u32 crc32c
 *
 * where the CRC covers tag+seq+len+payload, and seq is the 0-based
 * ordinal of the chunk in the file — a duplicated, dropped, or
 * reordered chunk breaks the sequence even when its own CRC is intact.
 * The file ends with a mandatory "END!" chunk whose payload is the
 * count of preceding chunks; trailing garbage after it is rejected.
 *
 * Writing is atomic: the image goes to `<path>.tmp`, is fsync'd, then
 * renamed over `<path>`, and the directory is fsync'd so the rename
 * itself survives a power loss. commitRotating() additionally keeps the
 * previous good generation at `<path>.prev`, so a crash at any instant
 * leaves at least one loadable checkpoint. A writer either builds the
 * whole image in memory (finish(), commit()) or streams it, one block
 * of whole chunks at a time, to a SnapshotCommitter that runs the same
 * protocol on its own thread; its commits land strictly in order.
 *
 * Reading is abort-free: SnapshotReader carries a sticky error (like
 * std::istream) — the first malformed field poisons the reader, every
 * later read returns zero values, and the caller checks ok() once at
 * the end. Top-level entry points return util::Expected rather than
 * calling util::fatal, so a corrupt checkpoint is a recoverable event.
 */

#ifndef PENTIMENTO_UTIL_SNAPSHOT_HPP
#define PENTIMENTO_UTIL_SNAPSHOT_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/expected.hpp"

namespace pentimento::util {

/** Format version written to and required from every snapshot. */
inline constexpr std::uint32_t kSnapshotVersion = 3;

/** Pack a 4-char chunk tag ("BRD!") into its on-disk u32. */
constexpr std::uint32_t
snapshotTag(char a, char b, char c, char d)
{
    return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

/**
 * CRC32C (Castagnoli) of a byte range, chainable via seed. Uses the
 * SSE4.2 `crc32` instruction, 8 bytes per step, when the CPU has it
 * (checked once at run time) and falls back to crc32cPortable()
 * otherwise; both give the same value for every input.
 */
std::uint32_t crc32c(const void *data, std::size_t len,
                     std::uint32_t seed = 0);

/** Table-driven CRC32C, one byte per step: the path on every host. */
std::uint32_t crc32cPortable(const void *data, std::size_t len,
                             std::uint32_t seed = 0);

class SnapshotCommitter;

/**
 * Builds a snapshot image and commits it atomically.
 *
 * Usage: beginChunk(tag), write primitives, endChunk(), repeat; then
 * either commit()/commitRotating() to persist, or finish() to get the
 * complete image for in-memory round trips (tests, microbenches).
 *
 * A writer made on a SnapshotCommitter streams instead: whenever a
 * chunk closes with at least kBlockBytes of closed chunks buffered, it
 * hands that block to the committer and carries on in a recycled
 * buffer, and finish() hands over the tail. Such a writer never holds
 * the whole image, and one destroyed before finish() publishes nothing.
 */
class SnapshotWriter
{
  public:
    /** Closed-chunk bytes a streaming writer buffers per block. */
    static constexpr std::size_t kBlockBytes = 256 * 1024;

    /** An in-memory writer. */
    SnapshotWriter();
    /**
     * A streaming writer whose image becomes the next rotating
     * generation of `path`, written by `committer` (see
     * SnapshotCommitter). Waits for the committer's image in flight,
     * if any, to land first. `committer` must outlive the writer.
     */
    SnapshotWriter(SnapshotCommitter &committer, const std::string &path);
    /** A streaming writer never finished abandons its image. */
    ~SnapshotWriter();
    SnapshotWriter(const SnapshotWriter &) = delete;
    SnapshotWriter &operator=(const SnapshotWriter &) = delete;

    /** Open a chunk; primitives written next land in its payload. */
    void beginChunk(std::uint32_t tag);
    /** Close the open chunk: patch its length, append its CRC. */
    void endChunk();

    void u8(std::uint8_t v) { put(&v, sizeof(v)); }
    void u32(std::uint32_t v) { put(&v, sizeof(v)); }
    void u64(std::uint64_t v) { put(&v, sizeof(v)); }
    /** Doubles are bit-cast, never formatted: restore is bit-exact. */
    void f64(double v) { put(&v, sizeof(v)); }
    /** Unsigned LEB128: 7 bits per byte, low group first, 1-10 bytes. */
    void
    varint(std::uint64_t v)
    {
        std::uint8_t bytes[10];
        std::size_t n = 0;
        while (v >= 0x80) {
            bytes[n++] = static_cast<std::uint8_t>(v) | 0x80;
            v >>= 7;
        }
        bytes[n++] = static_cast<std::uint8_t>(v);
        put(bytes, n);
    }
    /** Length-prefixed byte string. */
    void str(std::string_view v);

    /**
     * Append the terminal END chunk and return the finished image.
     * The writer is spent afterwards. A streaming writer hands the
     * tail to its committer instead, and the buffer it returns is
     * empty.
     */
    const std::vector<std::uint8_t> &finish();

    /**
     * finish() + atomic persist: write `<path>.tmp`, flush + fsync,
     * rename over `<path>`, fsync the directory. Any OS-level failure
     * is returned, not thrown. Not for a streaming writer.
     */
    Expected<void> commit(const std::string &path);

    /**
     * Like commit(), but first rotates an existing `<path>` to
     * `<path>.prev` so the previous good generation survives a corrupt
     * or torn write of the new one. This is the committer's protocol,
     * run on the calling thread for the whole image.
     */
    Expected<void> commitRotating(const std::string &path);

  private:
    /** Append raw bytes: one capacity check, one memcpy. */
    void
    put(const void *src, std::size_t len)
    {
        if (out_.size() - len_ < len) {
            grow(len);
        }
        std::memcpy(out_.data() + len_, src, len);
        len_ += len;
    }
    /** Widen out_'s writable window to fit `len` more bytes. */
    void grow(std::size_t len);
    /** finish() + the shared file protocol, on this thread. */
    Expected<void> persist(const std::string &path, bool rotating);

    /** chunk_start_ while no chunk is open. */
    static constexpr std::size_t kNoChunk = ~std::size_t{0};

    // Only the first len_ bytes of out_ are image so far; the rest is
    // zeroed window for the next put(). finish() trims it to len_. A
    // streaming writer's out_ holds only the bytes since its last
    // hand-off, so a chunk may start at offset 0.
    std::vector<std::uint8_t> out_;
    std::size_t len_ = 0;
    std::size_t chunk_start_ = kNoChunk; // offset of the open chunk's tag
    std::uint32_t chunk_count_ = 0;
    bool finished_ = false;
    SnapshotCommitter *committer_ = nullptr; // streaming writers only
};

/**
 * Writes streamed snapshot images on a thread of its own, each as the
 * next rotating generation of its path, by the same protocol as
 * SnapshotWriter::commitRotating(): rotate `<path>` to `<path>.prev`,
 * create `<path>.tmp`, write the blocks as they arrive, flush + fsync,
 * rename over `<path>`, fsync the directory. The `snapshot.commit.*`
 * fault points fire there, in the same order.
 *
 * Images land strictly in the order their writers were made. At most
 * one is in flight: a new writer waits for the previous image to land.
 * At most kPoolBlocks blocks exist, recycled from image to image: a
 * writer that outruns the disk waits for one to come back. An image
 * whose writer is destroyed before finish() is never published, and
 * its `.tmp` is removed. The destructor drains, then stops the thread.
 */
class SnapshotCommitter
{
  public:
    /** Blocks in the pool: the writer's own, queued and on disk. */
    static constexpr std::size_t kPoolBlocks = 4;

    SnapshotCommitter();
    ~SnapshotCommitter();
    SnapshotCommitter(const SnapshotCommitter &) = delete;
    SnapshotCommitter &operator=(const SnapshotCommitter &) = delete;

    /**
     * Wait until the image in flight, if any, has landed. Returns the
     * first failure among the images finished since the last drain()
     * (an abandoned image is not a failure).
     */
    Expected<void> drain();

  private:
    friend class SnapshotWriter;
    struct Shared;

    /** Start streaming the next image; its first buffer. */
    std::vector<std::uint8_t> begin(const std::string &path);
    /** Queue a full block; an empty buffer to continue in. */
    std::vector<std::uint8_t> exchange(std::vector<std::uint8_t> block);
    /** Queue the tail and publish the image, or abandon it. */
    void end(std::vector<std::uint8_t> tail, bool complete);

    std::unique_ptr<Shared> shared_;
};

/**
 * Parses a snapshot image with sticky-error semantics.
 *
 * enterChunk(tag) validates the next chunk's header, CRC, and
 * sequence number; primitives then consume its payload; leaveChunk()
 * requires the payload to be fully consumed (a length drift inside a
 * chunk is structural corruption, not slack). After any failure all
 * reads return zeroes and fail() records only the first error.
 */
class SnapshotReader
{
  public:
    /** Wrap an in-memory image (no validation beyond the header). */
    static Expected<SnapshotReader> fromBuffer(
        std::vector<std::uint8_t> image);

    /** Load `path` fully into memory and validate the header. */
    static Expected<SnapshotReader> open(const std::string &path);

    /**
     * Load `path`, falling back to `<path>.prev` when the primary is
     * missing or structurally corrupt. Unlike open(), every chunk is
     * CRC-walked up front — one cheap pass over the in-memory image —
     * so a torn or bit-rotten generation is rejected *here*, before a
     * caller commits to restoring from it, instead of surfacing as a
     * read error halfway through the restore. Returns which file was
     * opened via `used_fallback`.
     */
    static Expected<SnapshotReader> openWithFallback(
        const std::string &path, bool *used_fallback = nullptr);

    /** Enter the next chunk, which must carry `tag`. */
    bool enterChunk(std::uint32_t tag);
    /** Leave the current chunk; fails unless fully consumed. */
    bool leaveChunk();
    /** Validate the terminal END chunk and absence of trailing bytes. */
    bool expectEnd();

    std::uint8_t
    u8()
    {
        std::uint8_t v = 0;
        take(&v, sizeof(v));
        return v;
    }
    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        take(&v, sizeof(v));
        return v;
    }
    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        take(&v, sizeof(v));
        return v;
    }
    double
    f64()
    {
        double v = 0.0;
        take(&v, sizeof(v));
        return v;
    }
    /** Unsigned LEB128 (see SnapshotWriter::varint); a value longer
     *  than 10 bytes or wider than 64 bits fails the reader. */
    std::uint64_t
    varint()
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            const std::uint8_t byte = u8();
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0) {
                if (shift == 63 && byte > 1) {
                    break;
                }
                return v;
            }
        }
        fail("snapshot: varint overruns 10 bytes / 64 bits");
        return 0;
    }
    std::string str();

    /**
     * Unread payload bytes of the current chunk (0 outside a chunk or
     * after a failure). Restores bound every count by it before they
     * allocate: a count whose minimum encoding cannot fit is corrupt.
     */
    std::size_t
    remaining() const
    {
        return in_chunk_ && ok() ? payload_end_ - cursor_ : 0;
    }

    /** Record a (first) error; subsequent reads return zeroes. */
    void fail(std::string message);
    /** True until the first structural or checksum error. */
    bool ok() const { return error_.empty(); }
    /** First recorded error message ("" when ok). */
    const std::string &error() const { return error_; }

    /** Convert reader state into an Expected for top-level callers. */
    Expected<void>
    status() const
    {
        if (!ok()) {
            return unexpected(error_);
        }
        return {};
    }

  private:
    SnapshotReader() = default;

    /** Copy the next `len` payload bytes, or zero-fill and fail. */
    void
    take(void *dst, std::size_t len)
    {
        if (in_chunk_ && ok() && payload_end_ - cursor_ >= len) {
            std::memcpy(dst, image_.data() + cursor_, len);
            cursor_ += len;
            return;
        }
        refuse(dst, len);
    }
    /** take()'s failure path: zero `dst`, record the overrun. */
    void refuse(void *dst, std::size_t len);

    std::vector<std::uint8_t> image_;
    std::size_t cursor_ = 0;      // next unread byte in image_
    std::size_t payload_end_ = 0; // end of current chunk payload; 0 = none
    std::size_t chunk_end_ = 0;   // end incl. trailing CRC
    std::uint32_t next_seq_ = 0;
    bool in_chunk_ = false;
    std::string error_;
};

} // namespace pentimento::util

#endif // PENTIMENTO_UTIL_SNAPSHOT_HPP
