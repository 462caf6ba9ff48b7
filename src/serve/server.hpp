/**
 * @file
 * CampaignServer: the long-running TCP front end of the simulator.
 *
 * Accepts protocol-v2 frames (serve/protocol.hpp) on a loopback/TCP
 * socket and multiplexes the pure entry points — runExperiment1/2/3,
 * runTenancyChurn, and the checkpointed fleet scan — over a bounded
 * executor pool sharing one util::ThreadPool. The robustness
 * contract, end to end:
 *
 *  - **Hostile bytes**: every frame runs through the hardened
 *    FrameDecoder; framing corruption gets one ERROR frame and a
 *    close, CRC-valid-but-malformed payloads get a typed error on a
 *    connection that stays serviceable. Nothing on the request path
 *    calls util::fatal.
 *  - **Slowloris**: a frame must complete within frame_timeout_ms of
 *    its first byte, no matter how slowly the bytes drip.
 *  - **Deadlines**: every request carries (or inherits) a deadline;
 *    long loops poll it at sweep/day checkpoints via the
 *    core::SweepObserver hook and answer DEADLINE_EXCEEDED — no
 *    thread is ever killed.
 *  - **Backpressure**: admission is a bounded queue; when full the
 *    server sheds with RETRY_AFTER instead of queueing unboundedly.
 *    Ping bypasses admission (it is the liveness probe).
 *  - **Drain**: requestDrain() stops accepting, answers new requests
 *    ShuttingDown, cancels in-flight campaigns at their next day
 *    boundary (flushing a final checkpoint) and lets bounded
 *    experiments finish or deadline out.
 *  - **Crash recovery**: fleet-scan campaigns checkpoint under
 *    checkpoint_dir keyed by request id; after kill -9 and restart,
 *    resubmitting the identical request resumes from the latest good
 *    generation and re-delivers byte-identical RESULT bytes.
 *
 * Determinism: a RESULT payload is a pure function of the request
 * (bit-cast doubles, no timestamps), independent of executor
 * interleaving, pool width, arrival order, and crash/resume history.
 */

#ifndef PENTIMENTO_SERVE_SERVER_HPP
#define PENTIMENTO_SERVE_SERVER_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "util/expected.hpp"
#include "util/parallel.hpp"

namespace pentimento::serve {

/** Server configuration. */
struct CampaignServerConfig
{
    /** TCP port (0 = ephemeral; read the bound port from port()). */
    std::uint16_t port = 0;
    /** Executor threads draining the admission queue. */
    int executors = 1;
    /** Extra simulation-pool lanes shared by all requests. */
    std::size_t sim_workers = 0;
    /** Admission-queue capacity; beyond it requests shed RETRY_AFTER. */
    std::size_t queue_capacity = 8;
    /** Deadline applied when a request carries none. */
    std::uint32_t default_deadline_ms = 60000;
    /** Hard ceiling on any client-requested deadline. */
    std::uint32_t max_deadline_ms = 600000;
    /** Largest accepted frame payload. */
    std::uint32_t max_payload_bytes = 1u << 20;
    /** A frame must complete within this of its first byte. */
    std::uint32_t frame_timeout_ms = 5000;
    /** Base RETRY_AFTER hint handed to shed clients; the live hint
     *  scales with backlog and consecutive-shed streak. */
    std::uint32_t retry_after_ms = 250;
    /** Ceiling on the load-scaled RETRY_AFTER hint. */
    std::uint32_t retry_after_cap_ms = 10000;
    /** Campaign checkpoint directory ("" disables checkpointing). */
    std::string checkpoint_dir;
};

/** A long-running campaign/experiment simulation server. */
class CampaignServer
{
  public:
    explicit CampaignServer(CampaignServerConfig config);
    ~CampaignServer();

    CampaignServer(const CampaignServer &) = delete;
    CampaignServer &operator=(const CampaignServer &) = delete;

    /** Bind, listen and spin up acceptor + executors. */
    util::Expected<void> start();

    /** Bound TCP port (valid after start()). */
    std::uint16_t port() const { return bound_port_; }

    /**
     * Graceful drain (the SIGTERM path): stop accepting, answer new
     * requests ShuttingDown, cancel campaigns at their next
     * checkpoint boundary. Returns immediately; stop() waits.
     */
    void requestDrain();

    /** True once requestDrain()/stop() has been called. */
    bool draining() const
    {
        return draining_.load(std::memory_order_relaxed);
    }

    /** Drain, wait for in-flight work, join every thread, close. */
    void stop();

  private:
    struct Conn;
    class RequestObserver;

    /** One admitted request waiting for (or holding) an executor. */
    struct Job
    {
        std::shared_ptr<Conn> conn;
        Request request;
        /** Deadlines start at admission, not at dequeue. */
        std::chrono::steady_clock::time_point arrival{};
    };

    void acceptLoop();
    void readerLoop(std::shared_ptr<Conn> conn);
    /** @return false when the connection must close. */
    bool handleFrame(const std::shared_ptr<Conn> &conn,
                     const Frame &frame);
    void executorLoop();
    void process(const Job &job);
    static bool sendFrame(Conn &conn, FrameType type,
                          const std::vector<std::uint8_t> &payload);
    static void sendError(Conn &conn, std::uint64_t request_id,
                          ErrorCode code, std::uint32_t retry_after_ms,
                          const std::string &message);
    std::string campaignCheckpointPath(std::uint64_t request_id) const;

    CampaignServerConfig config_;
    int listen_fd_ = -1;
    std::uint16_t bound_port_ = 0;
    std::atomic<bool> stopping_{false};
    std::atomic<bool> draining_{false};

    std::unique_ptr<util::ThreadPool> pool_;
    std::thread acceptor_;
    std::vector<std::thread> executors_;

    std::mutex conn_mutex_;
    std::vector<std::shared_ptr<Conn>> conns_;
    std::vector<std::thread> readers_;

    std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::condition_variable idle_cv_;
    std::deque<Job> queue_;
    std::size_t in_flight_ = 0;
    /** Consecutive sheds since the last admit (under queue_mutex_). */
    std::size_t shed_streak_ = 0;
};

} // namespace pentimento::serve

#endif // PENTIMENTO_SERVE_SERVER_HPP
