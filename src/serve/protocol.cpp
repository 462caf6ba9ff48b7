#include "serve/protocol.hpp"

#include <cmath>
#include <cstring>

namespace pentimento::serve {

namespace {

// Hard caps on every request dimension. The service boundary promises
// bounded work per admitted request; deadlines bound wall-clock, these
// bound memory and per-sweep cost. All deliberately generous next to
// the paper's configurations (64 routes, 200 h burns).
constexpr std::size_t kMaxGroups = 8;
constexpr std::uint32_t kMaxRoutesPerGroup = 64;
constexpr std::size_t kMaxTotalRoutes = 512;
constexpr double kMinTargetPs = 100.0;
constexpr double kMaxTargetPs = 1e6;
constexpr double kMaxConditionHours = 2400.0;
constexpr double kMinMeasureEveryH = 0.25;
constexpr double kMaxMeasureEveryH = 48.0;
constexpr double kMaxAttackerWaitH = 8760.0;
constexpr std::uint32_t kMaxTenancies = 512;
constexpr std::uint32_t kMaxChurnRoutes = 64;
constexpr double kMaxChurnHours = 720.0;
constexpr std::uint32_t kMaxDsp = 4096;
constexpr std::uint32_t kMaxFleet = 256;
constexpr std::uint32_t kMaxDays = 3650;
constexpr std::uint32_t kMaxScanRoutes = 32;
constexpr std::uint32_t kMaxMeasuredBoards = 16;
constexpr std::uint32_t kMaxThrottleMs = 50;

/** Build an InvalidArgument DecodeError bound to a request id. */
std::optional<DecodeError>
invalid(std::uint64_t id, std::string message)
{
    return DecodeError{ErrorCode::InvalidArgument, std::move(message),
                       id};
}

bool
finiteIn(double v, double lo, double hi)
{
    return std::isfinite(v) && v >= lo && v <= hi;
}

/** Decode + validate the shared route-group list. */
std::optional<DecodeError>
decodeGroups(WireReader &reader, std::uint64_t id,
             std::vector<WireRouteGroup> *out)
{
    const std::uint32_t n = reader.u32();
    if (!reader.ok()) {
        return std::nullopt; // structural error reported by caller
    }
    if (n < 1 || n > kMaxGroups) {
        return invalid(id, "route group count out of range");
    }
    std::size_t total = 0;
    for (std::uint32_t g = 0; g < n; ++g) {
        WireRouteGroup group;
        group.target_ps = reader.f64();
        group.count = reader.u32();
        if (!reader.ok()) {
            return std::nullopt;
        }
        if (!finiteIn(group.target_ps, kMinTargetPs, kMaxTargetPs)) {
            return invalid(id, "route group target_ps out of range");
        }
        if (group.count < 1 || group.count > kMaxRoutesPerGroup) {
            return invalid(id, "route group count out of range");
        }
        total += group.count;
        out->push_back(group);
    }
    if (total > kMaxTotalRoutes) {
        return invalid(id, "too many routes requested");
    }
    return std::nullopt;
}

} // namespace

std::optional<DecodeError>
decodeRequest(const std::vector<std::uint8_t> &payload, Request *out)
{
    WireReader reader(payload.data(), payload.size());
    const std::uint32_t version = reader.u32();
    out->request_id = reader.u64();
    out->seed = reader.u64();
    out->deadline_ms = reader.u32();
    out->flags = reader.u32();
    const std::uint8_t kind_raw = reader.u8();
    if (!reader.ok()) {
        return DecodeError{ErrorCode::Malformed,
                           "request header: " + reader.error(), 0};
    }
    const std::uint64_t id = out->request_id;
    if (version != kProtocolVersion) {
        return DecodeError{ErrorCode::Unsupported,
                           "unsupported protocol version", id};
    }
    if (id == 0) {
        return invalid(0, "request_id must be nonzero");
    }
    if ((out->flags & ~(kFlagStreamSweeps | kFlagGoldenCampaign)) != 0) {
        return DecodeError{ErrorCode::Unsupported,
                           "unknown request flags", id};
    }
    if (kind_raw < static_cast<std::uint8_t>(RequestKind::Ping) ||
        kind_raw > static_cast<std::uint8_t>(RequestKind::FleetScan)) {
        return DecodeError{ErrorCode::Unsupported,
                           "unknown request kind", id};
    }
    out->kind = static_cast<RequestKind>(kind_raw);

    switch (out->kind) {
      case RequestKind::Ping:
        break;

      case RequestKind::Experiment1:
      case RequestKind::Experiment2:
      case RequestKind::Experiment3: {
        out->burn_hours = reader.f64();
        if (out->kind != RequestKind::Experiment2) {
            out->recovery_hours = reader.f64();
        }
        out->measure_every_h = reader.f64();
        if (out->kind == RequestKind::Experiment3) {
            out->attacker_wait_h = reader.f64();
            out->park_value = reader.u8() != 0;
        }
        if (auto err = decodeGroups(reader, id, &out->groups)) {
            return err;
        }
        if (!reader.ok()) {
            break; // structural error handled below
        }
        if (!finiteIn(out->burn_hours, kMinMeasureEveryH,
                      kMaxConditionHours)) {
            return invalid(id, "burn_hours out of range");
        }
        if (!finiteIn(out->recovery_hours, 0.0, kMaxConditionHours)) {
            return invalid(id, "recovery_hours out of range");
        }
        if (!finiteIn(out->measure_every_h, kMinMeasureEveryH,
                      kMaxMeasureEveryH)) {
            return invalid(id, "measure_every_h out of range");
        }
        if (!finiteIn(out->attacker_wait_h, 0.0, kMaxAttackerWaitH)) {
            return invalid(id, "attacker_wait_h out of range");
        }
        break;
      }

      case RequestKind::TenancyChurn: {
        out->tenancies = reader.u32();
        out->routes_per_tenant = reader.u32();
        out->burn_hours_min = reader.f64();
        out->burn_hours_max = reader.f64();
        out->idle_hours = reader.f64();
        out->midflip = reader.u8() != 0;
        out->observe_last = reader.u32();
        out->dsp_count = reader.u32();
        if (!reader.ok()) {
            break;
        }
        if (out->tenancies < 1 || out->tenancies > kMaxTenancies) {
            return invalid(id, "tenancies out of range");
        }
        if (out->routes_per_tenant < 1 ||
            out->routes_per_tenant > kMaxChurnRoutes) {
            return invalid(id, "routes_per_tenant out of range");
        }
        if (!finiteIn(out->burn_hours_min, 1.0, kMaxChurnHours) ||
            !finiteIn(out->burn_hours_max, out->burn_hours_min,
                      kMaxChurnHours)) {
            return invalid(id, "burn-hour range invalid");
        }
        if (!finiteIn(out->idle_hours, 0.0, kMaxChurnHours)) {
            return invalid(id, "idle_hours out of range");
        }
        if (out->observe_last > out->tenancies) {
            return invalid(id, "observe_last exceeds tenancies");
        }
        if (out->dsp_count > kMaxDsp) {
            return invalid(id, "dsp_count out of range");
        }
        break;
      }

      case RequestKind::FleetScan: {
        out->fleet = reader.u32();
        out->days = reader.u32();
        out->scan_routes_per_tenant = reader.u32();
        out->max_measured = reader.u32();
        out->checkpoint_every_days = reader.u32();
        out->throttle_ms_per_day = reader.u32();
        if (!reader.ok()) {
            break;
        }
        if (out->fleet < 1 || out->fleet > kMaxFleet) {
            return invalid(id, "fleet out of range");
        }
        if (out->days < 1 || out->days > kMaxDays) {
            return invalid(id, "days out of range");
        }
        if (out->scan_routes_per_tenant < 1 ||
            out->scan_routes_per_tenant > kMaxScanRoutes) {
            return invalid(id, "routes_per_tenant out of range");
        }
        if (out->max_measured > kMaxMeasuredBoards) {
            return invalid(id, "max_measured out of range");
        }
        if (out->checkpoint_every_days > kMaxDays) {
            return invalid(id, "checkpoint_every_days out of range");
        }
        if (out->throttle_ms_per_day > kMaxThrottleMs) {
            return invalid(id, "throttle_ms_per_day out of range");
        }
        break;
      }
    }

    if (!reader.ok()) {
        return DecodeError{ErrorCode::Malformed,
                           "request body: " + reader.error(), id};
    }
    if (!reader.atEnd()) {
        return DecodeError{ErrorCode::Malformed,
                           "request body: trailing bytes", id};
    }
    return std::nullopt;
}

std::vector<std::uint8_t>
encodeRequest(const Request &request)
{
    WireWriter w;
    w.u32(kProtocolVersion);
    w.u64(request.request_id);
    w.u64(request.seed);
    w.u32(request.deadline_ms);
    w.u32(request.flags);
    w.u8(static_cast<std::uint8_t>(request.kind));
    switch (request.kind) {
      case RequestKind::Ping:
        break;
      case RequestKind::Experiment1:
      case RequestKind::Experiment2:
      case RequestKind::Experiment3:
        w.f64(request.burn_hours);
        if (request.kind != RequestKind::Experiment2) {
            w.f64(request.recovery_hours);
        }
        w.f64(request.measure_every_h);
        if (request.kind == RequestKind::Experiment3) {
            w.f64(request.attacker_wait_h);
            w.u8(request.park_value ? 1 : 0);
        }
        w.u32(static_cast<std::uint32_t>(request.groups.size()));
        for (const WireRouteGroup &group : request.groups) {
            w.f64(group.target_ps);
            w.u32(group.count);
        }
        break;
      case RequestKind::TenancyChurn:
        w.u32(request.tenancies);
        w.u32(request.routes_per_tenant);
        w.f64(request.burn_hours_min);
        w.f64(request.burn_hours_max);
        w.f64(request.idle_hours);
        w.u8(request.midflip ? 1 : 0);
        w.u32(request.observe_last);
        w.u32(request.dsp_count);
        break;
      case RequestKind::FleetScan:
        w.u32(request.fleet);
        w.u32(request.days);
        w.u32(request.scan_routes_per_tenant);
        w.u32(request.max_measured);
        w.u32(request.checkpoint_every_days);
        w.u32(request.throttle_ms_per_day);
        break;
    }
    return w.take();
}

std::vector<std::uint8_t>
encodePingResult(std::uint64_t request_id)
{
    WireWriter w;
    w.u64(request_id);
    w.u8(static_cast<std::uint8_t>(RequestKind::Ping));
    w.u32(kProtocolVersion);
    return w.take();
}

std::vector<std::uint8_t>
encodeExperimentResult(std::uint64_t request_id, RequestKind kind,
                       const core::ExperimentResult &result)
{
    WireWriter w;
    w.u64(request_id);
    w.u8(static_cast<std::uint8_t>(kind));
    w.u64(result.sweeps);
    w.f64(result.condition_hours);
    w.f64(result.measure_seconds);
    w.u32(static_cast<std::uint32_t>(result.routes.size()));
    for (const core::RouteRecord &route : result.routes) {
        w.str(route.name);
        w.f64(route.target_ps);
        w.u8(route.burn_value ? 1 : 0);
        const auto &hours = route.series.hours();
        const auto &values = route.series.values();
        w.u32(static_cast<std::uint32_t>(hours.size()));
        for (std::size_t i = 0; i < hours.size(); ++i) {
            w.f64(hours[i]);
            w.f64(values[i]);
        }
    }
    return w.take();
}

std::vector<std::uint8_t>
encodeChurnResult(std::uint64_t request_id,
                  const core::TenancyChurnResult &result)
{
    WireWriter w;
    w.u64(request_id);
    w.u8(static_cast<std::uint8_t>(RequestKind::TenancyChurn));
    w.u64(result.materialized);
    w.u64(result.journaled);
    w.f64(result.elapsed_h);
    w.u32(static_cast<std::uint32_t>(result.observed_delays_ps.size()));
    for (const double delay : result.observed_delays_ps) {
        w.f64(delay);
    }
    return w.take();
}

std::vector<std::uint8_t>
encodeFleetScanResult(std::uint64_t request_id,
                      const FleetScanResult &result)
{
    WireWriter w;
    w.u64(request_id);
    w.u8(static_cast<std::uint8_t>(RequestKind::FleetScan));
    w.u64(result.tenancies);
    w.f64(result.simulated_h);
    w.u64(result.skipped);
    w.u32(static_cast<std::uint32_t>(result.boards.size()));
    for (const FleetScanBoardScore &score : result.boards) {
        w.str(score.board);
        w.u64(score.bits);
        w.u64(score.correct);
        w.f64(score.accuracy);
    }
    return w.take();
}

std::vector<std::uint8_t>
encodeSweep(std::uint64_t request_id, std::uint32_t sweep_index,
            double hour, const double *delta_ps, std::size_t n_routes)
{
    WireWriter w;
    w.u64(request_id);
    w.u32(sweep_index);
    w.f64(hour);
    w.u32(static_cast<std::uint32_t>(n_routes));
    for (std::size_t i = 0; i < n_routes; ++i) {
        w.f64(delta_ps[i]);
    }
    return w.take();
}

std::vector<std::uint8_t>
encodeError(std::uint64_t request_id, ErrorCode code,
            std::uint32_t retry_after_ms, std::string_view message)
{
    WireWriter w;
    w.u64(request_id);
    w.u32(static_cast<std::uint32_t>(code));
    w.u32(retry_after_ms);
    w.str(message);
    return w.take();
}

std::optional<ErrorInfo>
decodeError(const std::vector<std::uint8_t> &payload)
{
    WireReader reader(payload.data(), payload.size());
    ErrorInfo info;
    info.request_id = reader.u64();
    const std::uint32_t code = reader.u32();
    info.retry_after_ms = reader.u32();
    info.message = reader.str();
    if (!reader.ok() || !reader.atEnd() ||
        code < static_cast<std::uint32_t>(ErrorCode::Malformed) ||
        code > static_cast<std::uint32_t>(ErrorCode::ShuttingDown)) {
        return std::nullopt;
    }
    info.code = static_cast<ErrorCode>(code);
    return info;
}

std::vector<std::uint8_t>
encodeFrame(FrameType type, const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> out;
    out.reserve(16 + payload.size());
    WireWriter header;
    header.u32(kFrameMagic);
    header.u32(static_cast<std::uint32_t>(type));
    header.u32(static_cast<std::uint32_t>(payload.size()));
    out = header.take();
    out.insert(out.end(), payload.begin(), payload.end());
    // CRC covers type + length + payload (everything after the magic).
    const std::uint32_t crc =
        util::crc32c(out.data() + 4, out.size() - 4);
    WireWriter tail;
    tail.u32(crc);
    const auto &tail_bytes = tail.bytes();
    out.insert(out.end(), tail_bytes.begin(), tail_bytes.end());
    return out;
}

void
FrameDecoder::feed(const void *data, std::size_t len)
{
    if (corrupt_) {
        return;
    }
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    buffer_.insert(buffer_.end(), bytes, bytes + len);
}

FrameDecoder::Status
FrameDecoder::next(Frame *out)
{
    if (corrupt_) {
        return Status::Corrupt;
    }
    constexpr std::size_t kHeaderLen = 12;
    // The magic is checked as soon as four bytes exist: a peer whose
    // very first word is wrong is garbage, not a slow frame, and must
    // be refused immediately rather than at the frame timeout.
    if (buffer_.size() >= 4) {
        WireReader magic_reader(buffer_.data(), 4);
        if (magic_reader.u32() != kFrameMagic) {
            corrupt_ = true;
            error_ = "frame: bad magic";
            return Status::Corrupt;
        }
    }
    if (buffer_.size() < kHeaderLen) {
        return Status::NeedMore;
    }
    WireReader header(buffer_.data(), kHeaderLen);
    (void)header.u32(); // magic, verified above
    const std::uint32_t type = header.u32();
    const std::uint32_t payload_len = header.u32();
    // Reject the declared length BEFORE buffering the payload: an
    // attacker announcing 4 GiB must cost us 12 bytes, not 4 GiB.
    if (payload_len > max_payload_) {
        corrupt_ = true;
        error_ = "frame: declared payload exceeds limit";
        return Status::Corrupt;
    }
    const std::size_t total = kHeaderLen + payload_len + 4;
    if (buffer_.size() < total) {
        return Status::NeedMore;
    }
    const std::uint32_t expected =
        util::crc32c(buffer_.data() + 4, 8 + payload_len);
    WireReader crc_reader(buffer_.data() + kHeaderLen + payload_len, 4);
    const std::uint32_t actual = crc_reader.u32();
    if (expected != actual) {
        corrupt_ = true;
        error_ = "frame: checksum mismatch";
        return Status::Corrupt;
    }
    if (type < static_cast<std::uint32_t>(FrameType::Request) ||
        type > static_cast<std::uint32_t>(FrameType::Sweep)) {
        // CRC-valid but unknown type: the boundary is sound, so this
        // is a frame-level error the caller can answer in-band. Still
        // conservative enough to poison: a peer speaking a newer
        // protocol revision is better refused than half-understood.
        corrupt_ = true;
        error_ = "frame: unknown frame type";
        return Status::Corrupt;
    }
    out->type = static_cast<FrameType>(type);
    out->payload.assign(buffer_.begin() +
                            static_cast<std::ptrdiff_t>(kHeaderLen),
                        buffer_.begin() +
                            static_cast<std::ptrdiff_t>(kHeaderLen +
                                                        payload_len));
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(total));
    return Status::Ready;
}

} // namespace pentimento::serve
