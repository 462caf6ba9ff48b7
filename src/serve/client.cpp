#include "serve/client.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/fault.hpp"
#include "util/rng.hpp"

namespace pentimento::serve {

std::uint32_t
retryDelayMs(const ClientConfig &config, std::uint32_t attempt,
             std::uint32_t server_hint_ms)
{
    const std::uint64_t backoff = std::min<std::uint64_t>(
        config.backoff_cap_ms,
        static_cast<std::uint64_t>(config.backoff_base_ms)
            << std::min<std::uint32_t>(attempt, 20));
    const std::uint64_t delay =
        std::max<std::uint64_t>(server_hint_ms, backoff);
    // Fresh stream per (seed, attempt): the delay depends on nothing
    // but its arguments, so reconnects and interleavings can't shift
    // the jitter sequence.
    util::Rng jitter = util::Rng(config.jitter_seed)
                           .split("client_retry_" +
                                  std::to_string(attempt));
    return static_cast<std::uint32_t>(
        delay - delay / 2 + jitter.uniformInt(0, delay / 2));
}

ClientConnection::~ClientConnection()
{
    close();
}

ClientConnection::ClientConnection(ClientConnection &&other) noexcept
    : fd_(other.fd_), decoder_(std::move(other.decoder_))
{
    other.fd_ = -1;
}

ClientConnection &
ClientConnection::operator=(ClientConnection &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        decoder_ = std::move(other.decoder_);
        other.fd_ = -1;
    }
    return *this;
}

util::Expected<void>
ClientConnection::connect(std::uint16_t port)
{
    close();
    // CLOEXEC: a host program that forks or execs while connections
    // are live must not leak the socket into its children.
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
        return util::unexpected(std::string("socket: ") +
                                std::strerror(errno));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        const std::string error = std::strerror(errno);
        close();
        return util::unexpected("connect: " + error);
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    decoder_ = FrameDecoder(1u << 24);
    return {};
}

util::Expected<void>
ClientConnection::sendRaw(const void *data, std::size_t len)
{
    if (fd_ < 0) {
        return util::unexpected("sendRaw: not connected");
    }
    if (util::fault::shouldFail("client.send.reset")) {
        close();
        return util::unexpected("send: Connection reset by peer (injected)");
    }
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    if (len > 1 && util::fault::shouldFail("client.send.short")) {
        // Push half the frame so the server sees a truncated request,
        // then die the way a mid-write crash would.
        std::size_t half_sent = 0;
        while (half_sent < len / 2) {
            const ssize_t n = ::send(fd_, bytes + half_sent,
                                     len / 2 - half_sent, MSG_NOSIGNAL);
            if (n <= 0) {
                break;
            }
            half_sent += static_cast<std::size_t>(n);
        }
        close();
        return util::unexpected("send: short write (injected)");
    }
    std::size_t sent = 0;
    while (sent < len) {
        const ssize_t n =
            ::send(fd_, bytes + sent, len - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) {
                continue;
            }
            return util::unexpected(std::string("send: ") +
                                    std::strerror(errno));
        }
        sent += static_cast<std::size_t>(n);
    }
    return {};
}

util::Expected<void>
ClientConnection::sendFrame(FrameType type,
                            const std::vector<std::uint8_t> &payload)
{
    const std::vector<std::uint8_t> frame = encodeFrame(type, payload);
    return sendRaw(frame.data(), frame.size());
}

util::Expected<Frame>
ClientConnection::readFrame(std::uint32_t timeout_ms)
{
    if (fd_ < 0) {
        return util::unexpected("readFrame: not connected");
    }
    if (util::fault::shouldFail("client.recv.stall")) {
        // A stalled peer surfaces as the same timeout the poll loop
        // would produce — just without burning wall clock on it.
        return util::unexpected("readFrame: timed out");
    }
    if (util::fault::shouldFail("client.recv.reset")) {
        close();
        return util::unexpected("recv: Connection reset by peer (injected)");
    }
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    Frame frame;
    for (;;) {
        const FrameDecoder::Status status = decoder_.next(&frame);
        if (status == FrameDecoder::Status::Ready) {
            return frame;
        }
        if (status == FrameDecoder::Status::Corrupt) {
            return util::unexpected("readFrame: " + decoder_.error());
        }
        const auto remaining = deadline - Clock::now();
        if (remaining <= std::chrono::milliseconds(0)) {
            return util::unexpected("readFrame: timed out");
        }
        pollfd pfd{fd_, POLLIN, 0};
        const int rc = ::poll(
            &pfd, 1,
            static_cast<int>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    remaining)
                    .count()) +
                1);
        if (rc < 0) {
            if (errno == EINTR) {
                continue;
            }
            return util::unexpected(std::string("poll: ") +
                                    std::strerror(errno));
        }
        if (rc == 0) {
            return util::unexpected("readFrame: timed out");
        }
        std::uint8_t buf[4096];
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n == 0) {
            return util::unexpected("readFrame: connection closed");
        }
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return util::unexpected(std::string("recv: ") +
                                    std::strerror(errno));
        }
        decoder_.feed(buf, static_cast<std::size_t>(n));
    }
}

util::Expected<Frame>
ClientConnection::call(const Request &request,
                       const ClientConfig &config,
                       std::uint32_t timeout_ms,
                       std::uint32_t *retries)
{
    if (retries != nullptr) {
        *retries = 0;
    }
    const std::vector<std::uint8_t> payload = encodeRequest(request);
    for (std::uint32_t attempt = 0;; ++attempt) {
        const util::Expected<void> sent =
            sendFrame(FrameType::Request, payload);
        if (!sent.ok()) {
            return util::unexpected(sent.error());
        }
        for (;;) {
            util::Expected<Frame> frame = readFrame(timeout_ms);
            if (!frame.ok()) {
                return frame;
            }
            if (frame.value().type == FrameType::Sweep) {
                continue;
            }
            if (frame.value().type == FrameType::Error &&
                attempt < config.max_retries) {
                const std::optional<ErrorInfo> info =
                    decodeError(frame.value().payload);
                if (info.has_value() &&
                    info->code == ErrorCode::RetryAfter) {
                    if (retries != nullptr) {
                        *retries = attempt + 1;
                    }
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(retryDelayMs(
                            config, attempt, info->retry_after_ms)));
                    break; // resubmit
                }
            }
            return frame;
        }
    }
}

void
ClientConnection::closeWrite()
{
    if (fd_ >= 0) {
        ::shutdown(fd_, SHUT_WR);
    }
}

void
ClientConnection::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

} // namespace pentimento::serve
