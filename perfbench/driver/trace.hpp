/**
 * @file
 * Span recorder for the benchmark's traced runs.
 *
 * Spans are taken from outside the library: the benchmark driver wraps
 * each public call it makes (CloudPlatform::rent, MeasureDesign::
 * measureAll, SnapshotWriter::commitRotating, ...) in a ScopedSpan.
 * Nothing here reaches into src/, so a traced run measures exactly the
 * code an untraced run executes, plus the cost of the spans themselves.
 *
 * A Tracer belongs to one thread. Each span records its parent (the
 * span open on the same tracer when it began) and the id of the
 * campaign or request it belongs to. Totals per operation are kept
 * incrementally so per-campaign figures cost nothing to read back; the
 * full span list is kept up to a cap for the Chrome trace file.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Every operation the traced driver times. */
enum class Op : std::uint8_t
{
    // driver: the replayed campaign loop itself
    Campaign,
    Day,
    Checkpoint,
    Resume,
    Attack,
    Board,
    // cloud
    PlatformCtor,
    Rent,
    Advance,
    Release,
    // fabric
    LoadDesign,
    AllocateRoute,
    TenantDesign,
    // tdc
    MeasureCtor,
    Calibrate,
    Measure,
    // core
    Classify,
    // util snapshot
    Encode,
    Crc,
    Commit,
    OpenSnapshot,
    RestoreState,
    // serve
    PingCall,
    ScanCall,
    MalformedCall,
    Count,
};

inline constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::Count);

/** Public call the span wraps (the Chrome trace event name). */
const char *opName(Op op);

/** Layer the operation belongs to; "driver" is the unattributed rest. */
const char *opLayer(Op op);

using Clock = std::chrono::steady_clock;

/** Per-operation call counts and summed wall time. */
struct OpTotals
{
    std::array<std::uint64_t, kOpCount> calls{};
    std::array<double, kOpCount> ms{};
    /** Self time (duration minus children) per operation. */
    std::array<double, kOpCount> self_ms{};

    double msOf(Op op) const { return ms[static_cast<std::size_t>(op)]; }
    std::uint64_t
    callsOf(Op op) const
    {
        return calls[static_cast<std::size_t>(op)];
    }
    void add(const OpTotals &other);
};

struct SpanRecord
{
    Op op = Op::Campaign;
    std::uint32_t tid = 0;
    std::int64_t parent = -1;
    std::uint64_t owner = 0; ///< campaign or request id
    double start_us = 0.0;
    double dur_us = 0.0;
};

class Tracer
{
  public:
    Tracer(std::uint32_t tid, Clock::time_point epoch,
           std::size_t max_records);

    /** Open a span; returns its handle for end(). */
    std::int64_t begin(Op op);
    void end(std::int64_t handle);

    /** Campaign or request id stamped on spans opened from now on. */
    void setOwner(std::uint64_t owner) { owner_ = owner; }

    /** Totals accumulated since the last takeTotals(). */
    OpTotals takeTotals();

    const std::vector<SpanRecord> &records() const { return records_; }

  private:
    struct Open
    {
        Op op;
        std::int64_t record; ///< index into records_, -1 if not kept
        Clock::time_point start;
        double child_ms;
    };

    std::uint32_t tid_;
    Clock::time_point epoch_;
    std::size_t max_records_;
    std::uint64_t owner_ = 0;
    std::vector<Open> stack_;
    std::vector<SpanRecord> records_;
    OpTotals totals_;
};

/** RAII span; a null tracer makes it free. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, Op op)
        : tracer_(tracer), handle_(tracer ? tracer->begin(op) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_ != nullptr) {
            tracer_->end(handle_);
        }
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    std::int64_t handle_;
};

/** Write every kept span as Chrome trace-event JSON. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<const Tracer *> &tracers);

/**
 * Per-layer self-time table over `totals`, with the driver's own
 * (unattributed) time as its last row.
 */
std::string selfTimeTable(const OpTotals &totals);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
