/**
 * @file
 * Campaign-server wire protocol v2.
 *
 * Transport: length-prefixed, checksummed frames over a byte stream.
 *
 *     u32 magic "PCS1" | u32 type | u32 payload_len |
 *     payload[payload_len] | u32 crc32c(type ‖ payload_len ‖ payload)
 *
 * The decoder is incremental (feed() any byte granularity — a
 * slowloris client sending one byte at a time decodes identically),
 * caps the declared payload length *before* buffering, and reports
 * corruption (bad magic, oversize, CRC mismatch) as a typed status
 * instead of trusting a single bad byte with the process: a malformed
 * client must never take down the fleet. Corruption poisons the whole
 * connection — after a framing error the stream has no trustworthy
 * resynchronisation point, so the server answers with one ERROR frame
 * and closes. Malformed *payloads* inside a CRC-valid frame, by
 * contrast, only fail that request: frame boundaries are still sound,
 * and the connection stays serviceable.
 *
 * Requests carry a protocol version, a client-chosen request id
 * (echoed in every response frame), a seed, a deadline, and one of the
 * simulator's pure entry points with hard caps on every dimension.
 * Because each entry point is a pure function of its config, the bytes
 * of a RESULT frame are a pure function of the request — regardless of
 * executor interleaving, pool width, or crash/resume history. That is
 * the determinism contract serve_test locks.
 */

#ifndef PENTIMENTO_SERVE_PROTOCOL_HPP
#define PENTIMENTO_SERVE_PROTOCOL_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "serve/wire.hpp"
#include "util/snapshot.hpp"

namespace pentimento::serve {

/**
 * Protocol version carried inside every request payload. v2 dropped
 * the two trailing u32 words v1 carried in every FleetScan body; a v1
 * payload is answered Unsupported rather than misread.
 */
inline constexpr std::uint32_t kProtocolVersion = 2;

/** Frame magic: "PCS1". */
inline constexpr std::uint32_t kFrameMagic =
    util::snapshotTag('P', 'C', 'S', '1');

/** Frame types. */
enum class FrameType : std::uint32_t
{
    Request = 1,
    Result = 2,
    Error = 3,
    Sweep = 4,
};

/** Request kinds (inside a Request frame's payload). */
enum class RequestKind : std::uint8_t
{
    Ping = 1,
    Experiment1 = 2,
    Experiment2 = 3,
    Experiment3 = 4,
    TenancyChurn = 5,
    FleetScan = 6,
};

/** Typed error codes carried by Error frames. */
enum class ErrorCode : std::uint32_t
{
    Malformed = 1,       ///< frame or payload failed to decode
    Unsupported = 2,     ///< unknown version / frame type / kind
    InvalidArgument = 3, ///< decoded fine but violates a cap
    DeadlineExceeded = 4,
    RetryAfter = 5, ///< admission queue full: shed, retry later
    Internal = 6,
    ShuttingDown = 7, ///< server is draining; resubmit elsewhere/later
};

/** Request flag bits. */
inline constexpr std::uint32_t kFlagStreamSweeps = 1u << 0;
/** FleetScan: run in golden-compat mode — the exact draw sequence of
 *  bench/fleet_campaign (its fixed driver seed and design naming), so
 *  a served scan reproduces the committed golden CSV byte-for-byte. */
inline constexpr std::uint32_t kFlagGoldenCampaign = 1u << 1;

// ----------------------------------------------------------- requests

/** Route-group shape shared by the experiment requests. */
struct WireRouteGroup
{
    double target_ps = 1000.0;
    std::uint32_t count = 16;
};

/** One decoded request (kind selects the active section). */
struct Request
{
    std::uint64_t request_id = 0;
    std::uint64_t seed = 0;
    /** 0 = server default; capped at the server's maximum. */
    std::uint32_t deadline_ms = 0;
    std::uint32_t flags = 0;
    RequestKind kind = RequestKind::Ping;

    // Experiment1/2/3 (unused fields ignored per kind).
    double burn_hours = 0.0;
    double recovery_hours = 0.0;
    double measure_every_h = 1.0;
    double attacker_wait_h = 0.0;
    bool park_value = false;
    std::vector<WireRouteGroup> groups;

    // TenancyChurn.
    std::uint32_t tenancies = 0;
    std::uint32_t routes_per_tenant = 0;
    double burn_hours_min = 0.0;
    double burn_hours_max = 0.0;
    double idle_hours = 0.0;
    bool midflip = false;
    std::uint32_t observe_last = 0;
    std::uint32_t dsp_count = 0;

    // FleetScan.
    std::uint32_t fleet = 0;
    std::uint32_t days = 0;
    std::uint32_t scan_routes_per_tenant = 0;
    std::uint32_t max_measured = 0;
    std::uint32_t checkpoint_every_days = 0;
    /** Testing aid: sleep this long per simulated day (capped). */
    std::uint32_t throttle_ms_per_day = 0;

    bool streamSweeps() const { return (flags & kFlagStreamSweeps) != 0; }
    bool goldenCampaign() const
    {
        return (flags & kFlagGoldenCampaign) != 0;
    }
};

/** Decode failure: a typed code plus a deterministic message. */
struct DecodeError
{
    ErrorCode code = ErrorCode::Malformed;
    std::string message;
    /** Request id, when decoding got far enough to learn it. */
    std::uint64_t request_id = 0;
};

/**
 * Decode and validate one Request-frame payload. Returns nullopt on
 * success (out is filled), or the typed error to answer with. Strict:
 * trailing bytes after a complete request are malformed.
 */
std::optional<DecodeError> decodeRequest(
    const std::vector<std::uint8_t> &payload, Request *out);

/** Encode a request payload (client side: loadgen, tests). */
std::vector<std::uint8_t> encodeRequest(const Request &request);

// ---------------------------------------------------------- responses

/** Per-board score of a fleet scan (mirrors bench/fleet_campaign). */
struct FleetScanBoardScore
{
    std::string board;
    std::uint64_t bits = 0;
    std::uint64_t correct = 0;
    double accuracy = 0.0;
};

/**
 * Per-board BRAM readout score (content-remanence channel; local
 * bookkeeping only, never wire-encoded).
 */
struct FleetScanBramScore
{
    std::string board;
    /** Blocks read back (== the victim tenancy's word count). */
    std::uint64_t blocks = 0;
    /** Exact 64-bit word matches against the victim's data. */
    std::uint64_t recovered = 0;
    /** Blocks whose retention window had expired (cell noise). */
    std::uint64_t decayed = 0;
    /** Blocks found zeroed (provider scrub or reconfiguration). */
    std::uint64_t zeroed = 0;
    /** Whether the victim tenancy ended in an unclean teardown. */
    bool unclean = false;
};

/** Result of a fleet-scan campaign. */
struct FleetScanResult
{
    std::uint64_t tenancies = 0;
    double simulated_h = 0.0;
    /** Scan targets skipped as never-rented virgins. */
    std::uint64_t skipped = 0;
    std::vector<FleetScanBoardScore> boards;

    // Local-run bookkeeping; NOT part of the wire encoding.
    /** Checkpoint path the run resumed from ("" = fresh run). */
    std::string resumed_from;
    /** Day the resumed checkpoint was taken at. */
    int resumed_day = 0;
    std::uint64_t resumed_finished = 0;
    std::uint64_t resumed_active = 0;
    /** Day the run halted at (halt_at_day; 0 = ran to completion). */
    int halted_after_day = 0;
    /** BRAM-channel per-board readouts (bram_channel runs only). */
    std::vector<FleetScanBramScore> bram_boards;
    /** Provider BRAM scrubs performed over the whole campaign. */
    std::uint64_t bram_scrub_ops = 0;
};

/** RESULT payload for Ping. */
std::vector<std::uint8_t> encodePingResult(std::uint64_t request_id);

/** RESULT payload for Experiment1/2/3 (kind echoes the request). */
std::vector<std::uint8_t> encodeExperimentResult(
    std::uint64_t request_id, RequestKind kind,
    const core::ExperimentResult &result);

/** RESULT payload for TenancyChurn. */
std::vector<std::uint8_t> encodeChurnResult(
    std::uint64_t request_id, const core::TenancyChurnResult &result);

/** RESULT payload for FleetScan. */
std::vector<std::uint8_t> encodeFleetScanResult(
    std::uint64_t request_id, const FleetScanResult &result);

/** SWEEP payload: raw (uncentered) per-route ∆ps of one sweep. */
std::vector<std::uint8_t> encodeSweep(std::uint64_t request_id,
                                      std::uint32_t sweep_index,
                                      double hour, const double *delta_ps,
                                      std::size_t n_routes);

/** ERROR payload. */
std::vector<std::uint8_t> encodeError(std::uint64_t request_id,
                                      ErrorCode code,
                                      std::uint32_t retry_after_ms,
                                      std::string_view message);

/** Decoded ERROR payload (client side). */
struct ErrorInfo
{
    std::uint64_t request_id = 0;
    ErrorCode code = ErrorCode::Internal;
    std::uint32_t retry_after_ms = 0;
    std::string message;
};

/** Decode an ERROR payload; nullopt when structurally malformed. */
std::optional<ErrorInfo> decodeError(
    const std::vector<std::uint8_t> &payload);

// ------------------------------------------------------------ framing

/** One complete, CRC-verified frame. */
struct Frame
{
    FrameType type = FrameType::Request;
    std::vector<std::uint8_t> payload;
};

/** Wrap a payload in a complete frame (header + CRC). */
std::vector<std::uint8_t> encodeFrame(
    FrameType type, const std::vector<std::uint8_t> &payload);

/**
 * Incremental, hardened frame decoder.
 *
 * feed() arbitrary byte chunks, then drain next() until it stops
 * returning Ready. Corruption is sticky: after the first Corrupt
 * status the decoder refuses further work (the stream has no reliable
 * resync point), and error() names the cause deterministically.
 */
class FrameDecoder
{
  public:
    enum class Status
    {
        Ready,    ///< a frame was produced
        NeedMore, ///< no complete frame buffered yet
        Corrupt,  ///< stream-level corruption; connection must close
    };

    explicit FrameDecoder(std::uint32_t max_payload_bytes)
        : max_payload_(max_payload_bytes)
    {
    }

    /** Append raw bytes from the stream. No-op once corrupt. */
    void feed(const void *data, std::size_t len);

    /** Try to extract the next complete frame. */
    Status next(Frame *out);

    /** Bytes of an incomplete frame are buffered (slowloris timer). */
    bool midFrame() const { return !corrupt_ && !buffer_.empty(); }

    /** First corruption cause ("" while the stream is healthy). */
    const std::string &error() const { return error_; }

  private:
    std::uint32_t max_payload_ = 0;
    std::vector<std::uint8_t> buffer_;
    bool corrupt_ = false;
    std::string error_;
};

} // namespace pentimento::serve

#endif // PENTIMENTO_SERVE_PROTOCOL_HPP
