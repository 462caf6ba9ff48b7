#include "util/snapshot.hpp"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "util/fault.hpp"
#include "util/logging.hpp"

namespace pentimento::util {

namespace {

/** 8-byte file magic; the trailing byte doubles as a format epoch. */
constexpr unsigned char kMagic[8] = {'P', 'N', 'T', 'M',
                                     'S', 'N', 'P', '\x01'};
constexpr std::size_t kHeaderBytes = 16;
/** Fixed chunk header: tag u32 + seq u32 + payload_len u64. */
constexpr std::size_t kChunkHeaderBytes = 16;
constexpr std::uint32_t kEndTag = snapshotTag('E', 'N', 'D', '!');

/** Software CRC32C table (Castagnoli polynomial, reflected). */
struct Crc32cTable
{
    std::uint32_t entries[256];

    Crc32cTable()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t crc = i;
            for (int bit = 0; bit < 8; ++bit) {
                crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82f63b78u
                                      : crc >> 1;
            }
            entries[i] = crc;
        }
    }
};

#if defined(__x86_64__)
/**
 * The SSE4.2 `crc32` instruction computes the same reflected
 * Castagnoli CRC as the table, 8 bytes per step. `crc` is the raw
 * (already inverted) register, as in the table loop.
 */
__attribute__((target("sse4.2"))) std::uint32_t
crc32cSse42(const unsigned char *bytes, std::size_t len, std::uint32_t crc)
{
    std::uint64_t wide = crc;
    for (; len >= 8; bytes += 8, len -= 8) {
        std::uint64_t word;
        std::memcpy(&word, bytes, sizeof(word));
        wide = _mm_crc32_u64(wide, word);
    }
    crc = static_cast<std::uint32_t>(wide);
    for (; len > 0; ++bytes, --len) {
        crc = _mm_crc32_u8(crc, *bytes);
    }
    return crc;
}

bool
cpuHasSse42()
{
    static const bool has = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("sse4.2") != 0;
    }();
    return has;
}
#endif

std::string
errnoMessage(const std::string &what, const std::string &path)
{
    return what + " " + path + ": " + std::strerror(errno);
}

/** fsync directory `dir`, so a rename in it survives a power loss.
 *  On failure errno says why. */
bool
syncDirectory(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
        return false;
    }
    const bool synced = ::fsync(fd) == 0;
    const int fsync_errno = errno;
    ::close(fd);
    errno = fsync_errno;
    return synced;
}

/**
 * The commit protocol for one generation of `path`, in steps, so the
 * synchronous commit and the committer thread run the same code:
 * open() rotates `<path>` to `<path>.prev` (when rotating) and creates
 * `<path>.tmp`; append() writes bytes to it; publish() flushes,
 * fsyncs, renames over `<path>` and fsyncs the directory. After the
 * first failure every later step is a no-op, and publish() removes
 * the `.tmp` and reports it; abandon() removes it without a report.
 */
class GenerationFile
{
  public:
    GenerationFile(std::string path, bool rotating)
        : path_(std::move(path)), tmp_(path_ + ".tmp"), rotating_(rotating)
    {
    }
    GenerationFile(const GenerationFile &) = delete;
    GenerationFile &operator=(const GenerationFile &) = delete;
    ~GenerationFile() { abandon(); }

    void
    open()
    {
        // Keep the previous good generation: path -> path.prev, then
        // the fresh image lands on path. A crash between the two
        // renames leaves .prev loadable; a torn .tmp write never
        // touches either.
        const std::string prev = path_ + ".prev";
        if (rotating_ && std::rename(path_.c_str(), prev.c_str()) != 0 &&
            errno != ENOENT) {
            error_ = errnoMessage("snapshot: rotate failed for", path_);
            return;
        }
        if (fault::shouldFail("snapshot.commit.enospc")) {
            error_ = "snapshot: cannot create " + tmp_ +
                     ": No space left on device (injected)";
            return;
        }
        fp_ = std::fopen(tmp_.c_str(), "wb");
        if (fp_ == nullptr) {
            error_ = errnoMessage("snapshot: cannot create", tmp_);
            return;
        }
        // A torn rename publishes the first half of the image but
        // then "succeeds" all the way through rename, leaving a
        // corrupt destination — the failure mode a crash between
        // write and fsync would produce on a journal-less filesystem.
        // The .prev generation must rescue it.
        torn_ = fault::shouldFail("snapshot.commit.torn_rename");
        if (!torn_ && fault::shouldFail("snapshot.commit.short_write")) {
            error_ = "snapshot: short write to " + tmp_ + " (injected)";
        }
    }

    void
    append(const std::uint8_t *data, std::size_t len)
    {
        if (!error_.empty() || len == 0) {
            return;
        }
        if (std::fwrite(data, 1, len, fp_) != len) {
            error_ = errnoMessage("snapshot: short write to", tmp_);
        }
        bytes_ += len;
    }

    Expected<void>
    publish()
    {
        if (error_.empty() &&
            (std::fflush(fp_) != 0 ||
             (torn_ && ::ftruncate(fileno(fp_),
                                   static_cast<off_t>(bytes_ / 2)) != 0) ||
             fsync(fileno(fp_)) != 0)) {
            error_ = errnoMessage("snapshot: short write to", tmp_);
        }
        if (!error_.empty()) {
            abandon();
            return unexpected(error_);
        }
        const int closed = std::fclose(fp_);
        fp_ = nullptr;
        if (closed != 0) {
            const Expected<void> err =
                unexpected(errnoMessage("snapshot: close failed for", tmp_));
            std::remove(tmp_.c_str());
            return err;
        }
        if (fault::shouldFail("snapshot.commit.rename")) {
            std::remove(tmp_.c_str());
            return unexpected("snapshot: rename failed for " + tmp_ +
                              " (injected)");
        }
        if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
            const Expected<void> err =
                unexpected(errnoMessage("snapshot: rename failed for", tmp_));
            std::remove(tmp_.c_str());
            return err;
        }
        const std::size_t slash = path_.rfind('/');
        const std::string dir = slash == std::string::npos ? "."
                                : slash == 0 ? "/"
                                             : path_.substr(0, slash);
        if (!syncDirectory(dir)) {
            return unexpected(
                errnoMessage("snapshot: directory fsync failed for", dir));
        }
        if (torn_) {
            return unexpected("snapshot: torn rename for " + path_ +
                              " (injected; destination truncated)");
        }
        return {};
    }

    void
    abandon()
    {
        if (fp_ != nullptr) {
            std::fclose(fp_);
            fp_ = nullptr;
            std::remove(tmp_.c_str());
        }
    }

  private:
    std::string path_;
    std::string tmp_;
    bool rotating_;
    std::FILE *fp_ = nullptr;
    std::size_t bytes_ = 0;
    bool torn_ = false;
    std::string error_; // first failure; "" while every step succeeded
};

} // namespace

std::uint32_t
crc32cPortable(const void *data, std::size_t len, std::uint32_t seed)
{
    static const Crc32cTable table;
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint32_t crc = ~seed;
    for (std::size_t i = 0; i < len; ++i) {
        crc = table.entries[(crc ^ bytes[i]) & 0xffu] ^ (crc >> 8);
    }
    return ~crc;
}

std::uint32_t
crc32c(const void *data, std::size_t len, std::uint32_t seed)
{
#if defined(__x86_64__)
    if (cpuHasSse42()) {
        return ~crc32cSse42(static_cast<const unsigned char *>(data), len,
                            ~seed);
    }
#endif
    return crc32cPortable(data, len, seed);
}

SnapshotWriter::SnapshotWriter()
{
    put(kMagic, sizeof(kMagic));
    u32(kSnapshotVersion);
    u32(0); // reserved flags
}

SnapshotWriter::SnapshotWriter(SnapshotCommitter &committer,
                               const std::string &path)
    : out_(committer.begin(path)), committer_(&committer)
{
    put(kMagic, sizeof(kMagic));
    u32(kSnapshotVersion);
    u32(0); // reserved flags
}

SnapshotWriter::~SnapshotWriter()
{
    if (committer_ != nullptr && !finished_) {
        committer_->end(std::move(out_), false);
    }
}

void
SnapshotWriter::grow(std::size_t len)
{
    // Open at least 64 KiB more writable window. resize() still grows
    // the capacity geometrically, but it zero-fills only the window,
    // so pages past the image are never touched (or counted in RSS).
    constexpr std::size_t kWindowBytes = 64 * 1024;
    out_.resize(len_ + std::max(len, kWindowBytes));
}

void
SnapshotWriter::beginChunk(std::uint32_t tag)
{
    if (chunk_start_ != kNoChunk || finished_) {
        panic("SnapshotWriter::beginChunk: chunk already open or finished");
    }
    chunk_start_ = len_;
    u32(tag);
    u32(chunk_count_);
    u64(0); // payload length, patched by endChunk()
}

void
SnapshotWriter::endChunk()
{
    if (chunk_start_ == kNoChunk) {
        panic("SnapshotWriter::endChunk: no open chunk");
    }
    const std::uint64_t payload_len = len_ - chunk_start_ - kChunkHeaderBytes;
    std::memcpy(out_.data() + chunk_start_ + 8, &payload_len,
                sizeof(payload_len));
    const std::uint32_t crc =
        crc32c(out_.data() + chunk_start_, len_ - chunk_start_);
    chunk_start_ = kNoChunk;
    ++chunk_count_;
    u32(crc);
    if (committer_ != nullptr && len_ >= kBlockBytes) {
        out_.resize(len_);
        out_ = committer_->exchange(std::move(out_));
        len_ = 0;
    }
}

void
SnapshotWriter::str(std::string_view v)
{
    u64(v.size());
    if (!v.empty()) {
        put(v.data(), v.size());
    }
}

const std::vector<std::uint8_t> &
SnapshotWriter::finish()
{
    if (chunk_start_ != kNoChunk) {
        panic("SnapshotWriter::finish: chunk still open");
    }
    if (!finished_) {
        const std::uint32_t preceding = chunk_count_;
        beginChunk(kEndTag);
        u64(preceding);
        endChunk();
        out_.resize(len_);
        finished_ = true;
        if (committer_ != nullptr) {
            committer_->end(std::move(out_), true);
            out_.clear();
            len_ = 0;
        }
    }
    return out_;
}

Expected<void>
SnapshotWriter::commit(const std::string &path)
{
    return persist(path, false);
}

Expected<void>
SnapshotWriter::commitRotating(const std::string &path)
{
    return persist(path, true);
}

Expected<void>
SnapshotWriter::persist(const std::string &path, bool rotating)
{
    if (committer_ != nullptr) {
        panic("SnapshotWriter::commit: a streaming writer commits through "
              "its committer");
    }
    const std::vector<std::uint8_t> &image = finish();
    GenerationFile file(path, rotating);
    file.open();
    file.append(image.data(), image.size());
    return file.publish();
}

/** What the writer side and the committer thread share. */
struct SnapshotCommitter::Shared
{
    /** Where the image in flight stands. */
    enum class Image
    {
        None,      ///< nothing in flight: a writer may begin
        Streaming, ///< its writer is still encoding
        Complete,  ///< finished: publish once the queue is written
        Abandoned, ///< never finished: remove the .tmp once drained
    };

    std::mutex mutex;
    std::condition_variable work;   // committer thread: work or stop
    std::condition_variable landed; // writer side: block back or landing
    Image image = Image::None;
    std::string path;
    std::deque<std::vector<std::uint8_t>> queue;
    std::vector<std::vector<std::uint8_t>> spare; // written blocks, for reuse
    std::size_t blocks = 0; // every buffer in the pool, wherever it is
    std::string error;      // first failure since the last drain()
    bool stop = false;
    std::thread thread;

    /** A recycled buffer, or a new one while the pool is short. */
    std::vector<std::uint8_t>
    takeBuffer(std::unique_lock<std::mutex> &lock)
    {
        landed.wait(lock,
                    [&] { return !spare.empty() || blocks < kPoolBlocks; });
        if (spare.empty()) {
            ++blocks;
            return {};
        }
        std::vector<std::uint8_t> buffer = std::move(spare.back());
        spare.pop_back();
        return buffer;
    }

    /** Return a written or discarded block to the pool. */
    void
    recycle(std::vector<std::uint8_t> block)
    {
        block.clear();
        spare.push_back(std::move(block));
        landed.notify_all();
    }

    /** The committer thread: one image after another, in order. */
    void
    run()
    {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            work.wait(lock, [&] { return stop || image != Image::None; });
            if (image == Image::None) {
                return;
            }
            GenerationFile file(path, true);
            lock.unlock();
            file.open();
            lock.lock();
            for (;;) {
                work.wait(lock, [&] {
                    return !queue.empty() || image != Image::Streaming;
                });
                if (queue.empty()) {
                    break;
                }
                std::vector<std::uint8_t> block = std::move(queue.front());
                queue.pop_front();
                if (image != Image::Abandoned) {
                    lock.unlock();
                    file.append(block.data(), block.size());
                    lock.lock();
                }
                recycle(std::move(block));
            }
            const bool complete = image == Image::Complete;
            lock.unlock();
            Expected<void> outcome;
            if (complete) {
                outcome = file.publish();
            } else {
                file.abandon();
            }
            lock.lock();
            if (!outcome.ok() && error.empty()) {
                error = outcome.error();
            }
            image = Image::None;
            landed.notify_all();
        }
    }
};

SnapshotCommitter::SnapshotCommitter() : shared_(std::make_unique<Shared>())
{
    shared_->thread = std::thread([shared = shared_.get()] { shared->run(); });
}

SnapshotCommitter::~SnapshotCommitter()
{
    (void)drain();
    {
        std::lock_guard<std::mutex> lock(shared_->mutex);
        shared_->stop = true;
    }
    shared_->work.notify_all();
    shared_->thread.join();
}

Expected<void>
SnapshotCommitter::drain()
{
    std::unique_lock<std::mutex> lock(shared_->mutex);
    shared_->landed.wait(lock,
                         [&] { return shared_->image == Shared::Image::None; });
    std::string error = std::move(shared_->error);
    shared_->error.clear();
    if (!error.empty()) {
        return unexpected(std::move(error));
    }
    return {};
}

std::vector<std::uint8_t>
SnapshotCommitter::begin(const std::string &path)
{
    std::unique_lock<std::mutex> lock(shared_->mutex);
    shared_->landed.wait(lock,
                         [&] { return shared_->image == Shared::Image::None; });
    shared_->path = path;
    shared_->image = Shared::Image::Streaming;
    shared_->work.notify_one();
    return shared_->takeBuffer(lock);
}

std::vector<std::uint8_t>
SnapshotCommitter::exchange(std::vector<std::uint8_t> block)
{
    std::unique_lock<std::mutex> lock(shared_->mutex);
    shared_->queue.push_back(std::move(block));
    shared_->work.notify_one();
    return shared_->takeBuffer(lock);
}

void
SnapshotCommitter::end(std::vector<std::uint8_t> tail, bool complete)
{
    std::lock_guard<std::mutex> lock(shared_->mutex);
    if (complete && !tail.empty()) {
        shared_->queue.push_back(std::move(tail));
    } else {
        shared_->recycle(std::move(tail));
    }
    shared_->image =
        complete ? Shared::Image::Complete : Shared::Image::Abandoned;
    shared_->work.notify_one();
}

Expected<SnapshotReader>
SnapshotReader::fromBuffer(std::vector<std::uint8_t> image)
{
    if (image.size() < kHeaderBytes) {
        return unexpected("snapshot: file shorter than header");
    }
    if (std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0) {
        return unexpected("snapshot: bad magic (not a snapshot file)");
    }
    std::uint32_t version = 0;
    std::memcpy(&version, image.data() + 8, sizeof(version));
    if (version != kSnapshotVersion) {
        return unexpected("snapshot: unsupported format version " +
                          std::to_string(version) + " (expected " +
                          std::to_string(kSnapshotVersion) + ")");
    }
    std::uint32_t flags = 0;
    std::memcpy(&flags, image.data() + 12, sizeof(flags));
    if (flags != 0) {
        return unexpected("snapshot: unsupported header flags");
    }
    SnapshotReader reader;
    reader.image_ = std::move(image);
    reader.cursor_ = kHeaderBytes;
    return reader;
}

Expected<SnapshotReader>
SnapshotReader::open(const std::string &path)
{
    std::FILE *fp = std::fopen(path.c_str(), "rb");
    if (fp == nullptr) {
        return unexpected(errnoMessage("snapshot: cannot open", path));
    }
    // Size the image once from the file and read it in one call, so
    // a restore never regrows the buffer.
    struct stat info{};
    std::vector<std::uint8_t> image;
    std::string error;
    if (fstat(fileno(fp), &info) != 0) {
        error = errnoMessage("snapshot: read failed for", path);
    } else {
        image.resize(static_cast<std::size_t>(info.st_size));
        const std::size_t got =
            image.empty() ? 0
                          : std::fread(image.data(), 1, image.size(), fp);
        if (std::ferror(fp) != 0) {
            error = errnoMessage("snapshot: read failed for", path);
        } else if (got != image.size()) {
            error = "snapshot: short read from " + path;
        }
    }
    std::fclose(fp);
    if (!error.empty()) {
        return unexpected(error);
    }
    if (image.size() > kHeaderBytes &&
        fault::shouldFail("snapshot.load.corrupt_crc")) {
        // Media bit-rot: flip one mid-file byte so some chunk's CRC
        // check must reject the image.
        image[kHeaderBytes + (image.size() - kHeaderBytes) / 2] ^= 0x40u;
    }
    return fromBuffer(std::move(image));
}

namespace {

/**
 * Full structural walk of an image whose header already validated:
 * every chunk header in bounds, sequence numbers dense, every CRC
 * good, exactly one terminal END chunk, no trailing bytes. One cheap
 * CRC pass over memory — done up front by openWithFallback so a torn
 * or bit-rotten generation is rejected before anyone restores from it.
 */
Expected<void>
validateChunks(const std::vector<std::uint8_t> &image)
{
    std::size_t off = kHeaderBytes;
    std::uint32_t seq = 0;
    bool saw_end = false;
    while (off < image.size()) {
        if (saw_end) {
            return unexpected("snapshot: trailing bytes after END chunk");
        }
        if (image.size() - off < kChunkHeaderBytes + 4) {
            return unexpected("snapshot: truncated chunk header");
        }
        std::uint32_t tag = 0;
        std::uint32_t chunk_seq = 0;
        std::uint64_t len = 0;
        std::memcpy(&tag, image.data() + off, sizeof(tag));
        std::memcpy(&chunk_seq, image.data() + off + 4,
                    sizeof(chunk_seq));
        std::memcpy(&len, image.data() + off + 8, sizeof(len));
        if (chunk_seq != seq) {
            return unexpected("snapshot: chunk out of sequence");
        }
        if (len > image.size() - off - kChunkHeaderBytes - 4) {
            return unexpected("snapshot: chunk length out of bounds");
        }
        const std::size_t end = off + kChunkHeaderBytes +
                                static_cast<std::size_t>(len);
        std::uint32_t stored = 0;
        std::memcpy(&stored, image.data() + end, sizeof(stored));
        if (crc32c(image.data() + off, end - off) != stored) {
            return unexpected("snapshot: chunk CRC mismatch");
        }
        saw_end = tag == kEndTag;
        off = end + 4;
        ++seq;
    }
    if (!saw_end) {
        return unexpected("snapshot: missing END chunk");
    }
    return {};
}

} // namespace

Expected<SnapshotReader>
SnapshotReader::openWithFallback(const std::string &path,
                                 bool *used_fallback)
{
    if (used_fallback != nullptr) {
        *used_fallback = false;
    }
    Expected<SnapshotReader> primary = open(path);
    if (primary.ok()) {
        const Expected<void> valid =
            validateChunks(primary.value().image_);
        if (valid.ok()) {
            return primary;
        }
        primary = Expected<SnapshotReader>(
            unexpected(valid.error() + " in " + path));
    }
    Expected<SnapshotReader> previous = open(path + ".prev");
    if (previous.ok()) {
        const Expected<void> valid =
            validateChunks(previous.value().image_);
        if (!valid.ok()) {
            return unexpected(primary.error() +
                              " (fallback also failed: " + valid.error() +
                              " in " + path + ".prev)");
        }
        if (used_fallback != nullptr) {
            *used_fallback = true;
        }
        return previous;
    }
    return unexpected(primary.error() +
                      " (fallback also failed: " + previous.error() + ")");
}

bool
SnapshotReader::enterChunk(std::uint32_t tag)
{
    if (!ok()) {
        return false;
    }
    if (in_chunk_) {
        panic("SnapshotReader::enterChunk: chunk already open");
    }
    if (image_.size() - cursor_ < kChunkHeaderBytes + 4) {
        fail("snapshot: truncated at chunk header");
        return false;
    }
    std::uint32_t got_tag = 0;
    std::uint32_t got_seq = 0;
    std::uint64_t payload_len = 0;
    std::memcpy(&got_tag, image_.data() + cursor_, 4);
    std::memcpy(&got_seq, image_.data() + cursor_ + 4, 4);
    std::memcpy(&payload_len, image_.data() + cursor_ + 8, 8);
    if (payload_len > image_.size() - cursor_ - kChunkHeaderBytes - 4) {
        fail("snapshot: chunk payload overruns file");
        return false;
    }
    const std::size_t payload_begin = cursor_ + kChunkHeaderBytes;
    std::uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, image_.data() + payload_begin + payload_len, 4);
    const std::uint32_t computed_crc =
        crc32c(image_.data() + cursor_, kChunkHeaderBytes + payload_len);
    if (stored_crc != computed_crc) {
        fail("snapshot: CRC mismatch in chunk " + std::to_string(got_seq));
        return false;
    }
    if (got_seq != next_seq_) {
        fail("snapshot: chunk sequence break (expected " +
             std::to_string(next_seq_) + ", found " +
             std::to_string(got_seq) + " — duplicated or missing chunk)");
        return false;
    }
    if (got_tag != tag) {
        fail("snapshot: unexpected chunk tag in chunk " +
             std::to_string(got_seq));
        return false;
    }
    cursor_ = payload_begin;
    payload_end_ = payload_begin + payload_len;
    chunk_end_ = payload_end_ + 4;
    in_chunk_ = true;
    ++next_seq_;
    return true;
}

bool
SnapshotReader::leaveChunk()
{
    if (!ok()) {
        return false;
    }
    if (!in_chunk_) {
        panic("SnapshotReader::leaveChunk: no open chunk");
    }
    if (cursor_ != payload_end_) {
        fail("snapshot: chunk payload not fully consumed (layout drift)");
        return false;
    }
    cursor_ = chunk_end_;
    in_chunk_ = false;
    payload_end_ = 0;
    chunk_end_ = 0;
    return true;
}

bool
SnapshotReader::expectEnd()
{
    if (!enterChunk(kEndTag)) {
        return false;
    }
    const std::uint64_t preceding = u64();
    if (!leaveChunk()) {
        return false;
    }
    if (ok() && preceding + 1 != next_seq_) {
        fail("snapshot: END chunk count mismatch");
        return false;
    }
    if (ok() && cursor_ != image_.size()) {
        fail("snapshot: trailing bytes after END chunk");
        return false;
    }
    return ok();
}

void
SnapshotReader::refuse(void *dst, std::size_t len)
{
    std::memset(dst, 0, len);
    if (ok()) {
        fail("snapshot: field read past end of chunk payload");
    }
}

std::string
SnapshotReader::str()
{
    const std::uint64_t len = u64();
    if (!ok()) {
        return {};
    }
    if (!in_chunk_ || payload_end_ - cursor_ < len) {
        fail("snapshot: string length overruns chunk payload");
        return {};
    }
    std::string v(reinterpret_cast<const char *>(image_.data() + cursor_),
                  len);
    cursor_ += len;
    return v;
}

void
SnapshotReader::fail(std::string message)
{
    if (error_.empty()) {
        error_ = std::move(message);
    }
}

} // namespace pentimento::util
