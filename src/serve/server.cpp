#include "serve/server.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "core/experiment.hpp"
#include "core/presets.hpp"
#include "serve/campaign.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"

namespace pentimento::serve {

using Clock = std::chrono::steady_clock;

/** One client connection. The fd closes with the last reference. */
struct CampaignServer::Conn
{
    explicit Conn(int f) : fd(f) {}
    ~Conn()
    {
        if (fd >= 0) {
            ::close(fd);
        }
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    int fd = -1;
    /** Serialises whole frames: an executor's RESULT and a reader's
     *  ERROR must never interleave on the wire. */
    std::mutex write_mutex;
    std::atomic<bool> peer_gone{false};
};

/**
 * The per-request SweepObserver: streams sweeps when asked, and turns
 * deadline expiry / client disconnect / server drain into a
 * cooperative cancel at the next checkpoint. why() tells process()
 * which ERROR (if any) to answer with.
 */
class CampaignServer::RequestObserver : public core::SweepObserver
{
  public:
    enum class Why
    {
        None,
        Deadline,
        Disconnected,
        Draining,
    };

    RequestObserver(CampaignServer &server, Conn &conn,
                    const Request &request, Clock::time_point deadline)
        : server_(server), conn_(conn), request_(request),
          deadline_(deadline)
    {
    }

    bool
    onSweep(std::size_t sweep_index, double hour,
            const double *delta_ps, std::size_t n_routes) override
    {
        if (request_.streamSweeps() && n_routes > 0) {
            if (!sendFrame(conn_, FrameType::Sweep,
                           encodeSweep(request_.request_id,
                                       static_cast<std::uint32_t>(
                                           sweep_index),
                                       hour, delta_ps, n_routes))) {
                why_ = Why::Disconnected;
                return false;
            }
        }
        if (conn_.peer_gone.load(std::memory_order_relaxed)) {
            why_ = Why::Disconnected;
            return false;
        }
        if (Clock::now() >= deadline_) {
            why_ = Why::Deadline;
            return false;
        }
        // Drain only cancels campaigns: they checkpoint and resume,
        // while experiments are bounded and cheaper to finish than to
        // redo from scratch.
        if (server_.draining() &&
            request_.kind == RequestKind::FleetScan) {
            why_ = Why::Draining;
            return false;
        }
        return true;
    }

    Why why() const { return why_; }

  private:
    CampaignServer &server_;
    Conn &conn_;
    const Request &request_;
    Clock::time_point deadline_;
    Why why_ = Why::None;
};

CampaignServer::CampaignServer(CampaignServerConfig config)
    : config_(std::move(config))
{
}

CampaignServer::~CampaignServer()
{
    stop();
}

util::Expected<void>
CampaignServer::start()
{
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        return util::unexpected(std::string("socket: ") +
                                std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(config_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        const std::string error = std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return util::unexpected("bind: " + error);
    }
    if (::listen(listen_fd_, 64) < 0) {
        const std::string error = std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return util::unexpected("listen: " + error);
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_,
                      reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) < 0) {
        const std::string error = std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return util::unexpected("getsockname: " + error);
    }
    bound_port_ = ntohs(bound.sin_port);

    pool_ = std::make_unique<util::ThreadPool>(config_.sim_workers);
    const int executors = config_.executors > 0 ? config_.executors : 1;
    executors_.reserve(static_cast<std::size_t>(executors));
    for (int i = 0; i < executors; ++i) {
        executors_.emplace_back([this] { executorLoop(); });
    }
    acceptor_ = std::thread([this] { acceptLoop(); });
    util::inform("campaign server listening on port " +
                 std::to_string(bound_port_));
    return {};
}

void
CampaignServer::requestDrain()
{
    draining_.store(true, std::memory_order_relaxed);
}

void
CampaignServer::stop()
{
    if (listen_fd_ < 0 && !acceptor_.joinable()) {
        return; // never started, or already stopped
    }
    requestDrain();
    // Wait for the queue to empty and in-flight work to answer (a
    // draining campaign cancels at its next day boundary, writing its
    // final checkpoint on the way out).
    {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        idle_cv_.wait(lock, [this] {
            return queue_.empty() && in_flight_ == 0;
        });
    }
    stopping_.store(true, std::memory_order_relaxed);
    queue_cv_.notify_all();
    if (acceptor_.joinable()) {
        acceptor_.join();
    }
    for (std::thread &executor : executors_) {
        if (executor.joinable()) {
            executor.join();
        }
    }
    executors_.clear();
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        for (const std::shared_ptr<Conn> &conn : conns_) {
            ::shutdown(conn->fd, SHUT_RDWR);
        }
    }
    for (std::thread &reader : readers_) {
        if (reader.joinable()) {
            reader.join();
        }
    }
    readers_.clear();
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        conns_.clear();
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    pool_.reset();
}

void
CampaignServer::acceptLoop()
{
    while (!stopping_.load(std::memory_order_relaxed) && !draining()) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, 100);
        if (rc < 0) {
            if (errno == EINTR) {
                continue;
            }
            break;
        }
        if (rc == 0) {
            continue;
        }
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_shared<Conn>(fd);
        std::lock_guard<std::mutex> lock(conn_mutex_);
        conns_.push_back(conn);
        readers_.emplace_back(
            [this, conn = std::move(conn)] { readerLoop(conn); });
    }
}

void
CampaignServer::readerLoop(std::shared_ptr<Conn> conn)
{
    FrameDecoder decoder(config_.max_payload_bytes);
    Clock::time_point frame_start{};
    bool mid_frame = false;
    bool close_now = false;
    std::uint8_t buf[4096];
    while (!stopping_.load(std::memory_order_relaxed) && !close_now) {
        if (mid_frame &&
            Clock::now() - frame_start >
                std::chrono::milliseconds(config_.frame_timeout_ms)) {
            // Slowloris defense: however slowly the bytes drip, a
            // frame has frame_timeout_ms from its first byte.
            sendError(*conn, 0, ErrorCode::Malformed, 0,
                      "frame timed out mid-transmission");
            break;
        }
        pollfd pfd{conn->fd, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, 100);
        if (rc < 0) {
            if (errno == EINTR) {
                continue;
            }
            break;
        }
        if (rc == 0) {
            continue;
        }
        const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
        if (n <= 0) {
            conn->peer_gone.store(true, std::memory_order_relaxed);
            break;
        }
        decoder.feed(buf, static_cast<std::size_t>(n));
        Frame frame;
        while (!close_now) {
            const FrameDecoder::Status status = decoder.next(&frame);
            if (status == FrameDecoder::Status::NeedMore) {
                break;
            }
            if (status == FrameDecoder::Status::Corrupt) {
                // One ERROR frame, then close: past a framing error
                // the stream has no trustworthy resync point.
                sendError(*conn, 0, ErrorCode::Malformed, 0,
                          decoder.error());
                close_now = true;
                break;
            }
            if (!handleFrame(conn, frame)) {
                close_now = true;
            }
        }
        if (!close_now) {
            const bool now_mid = decoder.midFrame();
            if (now_mid && !mid_frame) {
                frame_start = Clock::now();
            }
            mid_frame = now_mid;
        }
    }
    ::shutdown(conn->fd, SHUT_RDWR);
    conn->peer_gone.store(true, std::memory_order_relaxed);
}

bool
CampaignServer::handleFrame(const std::shared_ptr<Conn> &conn,
                            const Frame &frame)
{
    if (frame.type != FrameType::Request) {
        sendError(*conn, 0, ErrorCode::Unsupported, 0,
                  "only REQUEST frames are accepted from clients");
        return false;
    }
    Request request;
    if (const auto error = decodeRequest(frame.payload, &request)) {
        // CRC-valid but malformed payload: the frame boundary is
        // intact, so answer in-band and keep the connection.
        sendError(*conn, error->request_id, error->code, 0,
                  error->message);
        return true;
    }
    if (request.kind == RequestKind::Ping) {
        // Liveness probe: answered inline, bypassing admission, so a
        // saturated server is still observable as alive-but-shedding.
        sendFrame(*conn, FrameType::Result,
                  encodePingResult(request.request_id));
        return true;
    }
    if (draining()) {
        sendError(*conn, request.request_id, ErrorCode::ShuttingDown,
                  0, "server is draining");
        return true;
    }
    const std::uint64_t request_id = request.request_id;
    bool admitted = false;
    std::uint32_t hint_ms = 0;
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        if (queue_.size() < config_.queue_capacity) {
            queue_.push_back(
                Job{conn, std::move(request), Clock::now()});
            shed_streak_ = 0;
            admitted = true;
        } else {
            // Load-aware hint: the base scaled by the backlog (queue
            // plus in-flight, relative to capacity) and grown by the
            // consecutive-shed streak, so sustained overload pushes
            // clients progressively further out instead of inviting
            // them all back at a fixed cadence.
            const std::size_t backlog = queue_.size() + in_flight_;
            const std::uint64_t scaled =
                static_cast<std::uint64_t>(config_.retry_after_ms) *
                (backlog + shed_streak_) /
                std::max<std::size_t>(std::size_t{1},
                                      config_.queue_capacity);
            hint_ms = static_cast<std::uint32_t>(std::min<std::uint64_t>(
                config_.retry_after_cap_ms,
                std::max<std::uint64_t>(config_.retry_after_ms,
                                        scaled)));
            ++shed_streak_;
        }
    }
    if (admitted) {
        queue_cv_.notify_one();
    } else {
        // Bounded admission: shed with an explicit hint instead of
        // queueing unboundedly.
        sendError(*conn, request_id, ErrorCode::RetryAfter, hint_ms,
                  "admission queue is full");
    }
    return true;
}

void
CampaignServer::executorLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock, [this] {
                return stopping_.load(std::memory_order_relaxed) ||
                       !queue_.empty();
            });
            if (queue_.empty()) {
                if (stopping_.load(std::memory_order_relaxed)) {
                    return;
                }
                continue;
            }
            job = std::move(queue_.front());
            queue_.pop_front();
            ++in_flight_;
        }
        process(job);
        {
            std::lock_guard<std::mutex> lock(queue_mutex_);
            --in_flight_;
        }
        idle_cv_.notify_all();
    }
}

void
CampaignServer::process(const Job &job)
{
    const Request &request = job.request;
    util::setThreadLogContext("req " +
                              std::to_string(request.request_id));
    const std::uint32_t deadline_ms =
        request.deadline_ms == 0
            ? config_.default_deadline_ms
            : std::min(request.deadline_ms, config_.max_deadline_ms);
    const Clock::time_point deadline =
        job.arrival + std::chrono::milliseconds(deadline_ms);
    Conn &conn = *job.conn;

    if (Clock::now() >= deadline) {
        // It aged out while queued; don't burn an executor on it.
        sendError(conn, request.request_id,
                  ErrorCode::DeadlineExceeded, 0,
                  "deadline expired while queued");
        util::setThreadLogContext("");
        return;
    }

    RequestObserver observer(*this, conn, request, deadline);
    std::vector<core::RouteGroup> groups;
    groups.reserve(request.groups.size());
    for (const WireRouteGroup &group : request.groups) {
        groups.push_back(core::RouteGroup{
            group.target_ps, static_cast<int>(group.count)});
    }

    try {
        switch (request.kind) {
          case RequestKind::Ping:
            sendFrame(conn, FrameType::Result,
                      encodePingResult(request.request_id));
            break;
          case RequestKind::Experiment1: {
            core::Experiment1Config config;
            config.groups = groups;
            config.burn_hours = request.burn_hours;
            config.recovery_hours = request.recovery_hours;
            config.measure_every_h = request.measure_every_h;
            config.device = core::zcu102New(request.seed);
            config.seed = request.seed;
            config.pool = pool_.get();
            config.observer = &observer;
            sendFrame(conn, FrameType::Result,
                      encodeExperimentResult(
                          request.request_id, request.kind,
                          core::runExperiment1(config)));
            break;
          }
          case RequestKind::Experiment2: {
            core::Experiment2Config config;
            config.groups = groups;
            config.burn_hours = request.burn_hours;
            config.measure_every_h = request.measure_every_h;
            config.platform = core::awsF1Region(request.seed);
            config.seed = request.seed;
            config.pool = pool_.get();
            config.observer = &observer;
            sendFrame(conn, FrameType::Result,
                      encodeExperimentResult(
                          request.request_id, request.kind,
                          core::runExperiment2(config)));
            break;
          }
          case RequestKind::Experiment3: {
            core::Experiment3Config config;
            config.groups = groups;
            config.burn_hours = request.burn_hours;
            config.recovery_hours = request.recovery_hours;
            config.measure_every_h = request.measure_every_h;
            config.attacker_wait_h = request.attacker_wait_h;
            config.park_value = request.park_value;
            config.platform = core::awsF1Region(request.seed);
            config.seed = request.seed;
            config.pool = pool_.get();
            config.observer = &observer;
            sendFrame(conn, FrameType::Result,
                      encodeExperimentResult(
                          request.request_id, request.kind,
                          core::runExperiment3(config)));
            break;
          }
          case RequestKind::TenancyChurn: {
            core::TenancyChurnConfig config;
            config.tenancies = request.tenancies;
            config.routes_per_tenant = request.routes_per_tenant;
            config.dsp_count = static_cast<int>(request.dsp_count);
            config.burn_hours_min = request.burn_hours_min;
            config.burn_hours_max = request.burn_hours_max;
            config.idle_hours = request.idle_hours;
            config.midflip = request.midflip;
            config.observe_last = request.observe_last;
            config.seed = request.seed;
            config.observer = &observer;
            sendFrame(conn, FrameType::Result,
                      encodeChurnResult(request.request_id,
                                        core::runTenancyChurn(config)));
            break;
          }
          case RequestKind::FleetScan: {
            FleetScanConfig config;
            config.fleet = request.fleet;
            config.days = static_cast<int>(request.days);
            config.seed = request.seed;
            config.routes_per_tenant = request.scan_routes_per_tenant;
            config.max_measured = request.max_measured;
            config.checkpoint_every_days = static_cast<int>(
                request.checkpoint_every_days);
            config.checkpoint_path =
                campaignCheckpointPath(request.request_id);
            config.throttle_ms_per_day = request.throttle_ms_per_day;
            config.golden_compat = request.goldenCampaign();
            config.pool = pool_.get();
            config.observer = &observer;
            const util::Expected<FleetScanResult> result =
                runFleetScan(config);
            if (!result.ok()) {
                sendError(conn, request.request_id,
                          ErrorCode::InvalidArgument, 0,
                          result.error());
            } else {
                sendFrame(conn, FrameType::Result,
                          encodeFleetScanResult(request.request_id,
                                                result.value()));
            }
            break;
          }
        }
    } catch (const util::CancelledError &) {
        switch (observer.why()) {
          case RequestObserver::Why::Deadline:
            sendError(conn, request.request_id,
                      ErrorCode::DeadlineExceeded, 0,
                      "deadline exceeded mid-run");
            break;
          case RequestObserver::Why::Draining:
            sendError(conn, request.request_id,
                      ErrorCode::ShuttingDown, 0,
                      "server draining; campaign checkpointed — "
                      "resubmit to resume");
            break;
          case RequestObserver::Why::Disconnected:
          case RequestObserver::Why::None:
            break; // nobody is listening
        }
    } catch (const std::exception &error) {
        // The request path never aborts: simulator-level failures
        // (DRC, invariants) come back as a typed INTERNAL error.
        sendError(conn, request.request_id, ErrorCode::Internal, 0,
                  error.what());
    }
    util::setThreadLogContext("");
}

bool
CampaignServer::sendFrame(Conn &conn, FrameType type,
                          const std::vector<std::uint8_t> &payload)
{
    if (util::fault::shouldFail("server.send.reset")) {
        conn.peer_gone.store(true, std::memory_order_relaxed);
        ::shutdown(conn.fd, SHUT_RDWR);
        return false;
    }
    const std::vector<std::uint8_t> frame = encodeFrame(type, payload);
    std::lock_guard<std::mutex> lock(conn.write_mutex);
    std::size_t sent = 0;
    while (sent < frame.size()) {
        const ssize_t n =
            ::send(conn.fd, frame.data() + sent, frame.size() - sent,
                   MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) {
                continue;
            }
            conn.peer_gone.store(true, std::memory_order_relaxed);
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

void
CampaignServer::sendError(Conn &conn, std::uint64_t request_id,
                          ErrorCode code,
                          std::uint32_t retry_after_ms,
                          const std::string &message)
{
    sendFrame(conn, FrameType::Error,
              encodeError(request_id, code, retry_after_ms, message));
}

std::string
CampaignServer::campaignCheckpointPath(std::uint64_t request_id) const
{
    if (config_.checkpoint_dir.empty()) {
        return {};
    }
    char name[64];
    std::snprintf(name, sizeof(name), "campaign_%016llx.ckpt",
                  static_cast<unsigned long long>(request_id));
    return config_.checkpoint_dir + "/" + name;
}

} // namespace pentimento::serve
