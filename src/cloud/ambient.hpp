/**
 * @file
 * Data-centre ambient temperature model.
 *
 * The cloud provides "substantially less control over environmental
 * conditions" than the lab oven (paper §5): inlet temperature drifts
 * with load, neighbours and HVAC cycles. We model the ambient seen by
 * an F1 card as an Ornstein–Uhlenbeck process — mean-reverting noise —
 * which is what turns the clean Figure 6 curves into the noisier
 * Figure 7/8 ones.
 *
 * Event-driven trace: the process is sampled only at *ambient events*,
 * a fixed hourly grid on the model's own clock, using the exact OU
 * transition over one event interval.
 * The ambient is piecewise constant between events, and the k-th draw
 * is a pure function of the model's seed and the event index k (the
 * draws come from a private stream consumed strictly in event order),
 * so any partition of a span into advance() calls — hourly steps, one
 * multi-day jump, random dyadic splits — crosses the same events and
 * produces the bit-identical temperature sequence, the same one a
 * draw-per-hour walk gives.
 *
 * advance() is O(1) bookkeeping: the draws for crossed events are
 * deferred until something observes the temperature (ambientK()), so
 * idle fleet stock pays nothing per simulated day until a tenant or a
 * measurement actually looks.
 */

#ifndef PENTIMENTO_CLOUD_AMBIENT_HPP
#define PENTIMENTO_CLOUD_AMBIENT_HPP

#include <cstdint>

#include "util/compensated.hpp"
#include "util/rng.hpp"

namespace pentimento::util {
class SnapshotWriter;
class SnapshotReader;
} // namespace pentimento::util

namespace pentimento::cloud {

/** Ornstein–Uhlenbeck parameters for ambient temperature. */
struct AmbientParams
{
    /** Long-run mean ambient, kelvin. */
    double mean_k = 318.15; // 45 C at the card
    /** Mean-reversion rate per hour. */
    double reversion_per_h = 0.25;
    /** Stationary standard deviation, kelvin. */
    double sigma_k = 1.6;
};

/**
 * Mean-reverting ambient temperature, sampled at ambient events.
 */
class AmbientModel
{
  public:
    AmbientModel(AmbientParams params, util::Rng rng);

    /**
     * Account dt hours of simulated time. O(1): events crossed by the
     * span are only counted here; their draws happen lazily at the
     * next observation, in event order.
     */
    void advance(double dt_h);

    /**
     * Advance the process by dt hours and return the new ambient
     * (compatibility form of advance() + ambientK()).
     */
    double step(double dt_h);

    /**
     * Current ambient temperature in kelvin. Replays any pending
     * event draws first, so the result reflects every advance() so
     * far regardless of how the span was partitioned.
     */
    double ambientK();

    /** Events whose draws are folded into ambientK() already. */
    std::uint64_t committedEvents() const { return committed_; }

    /** Events crossed but not yet drawn (diagnostics / tests). */
    std::uint64_t
    pendingEvents() const
    {
        return targetEvents() - committed_;
    }

    /**
     * Hours from the current clock to the end of the current event
     * cell — the longest span over which the ambient is guaranteed
     * constant. Callers that need per-event temperatures (the cloud
     * instance's aging walk) bound their spans with this.
     */
    double hoursUntilBoundary() const;

    /**
     * Serialize the OU walk into the writer's current chunk: last
     * committed temperature, the compensated clock, the event cursor,
     * and the draw stream — pending (uncommitted) events stay pending,
     * so checkpointing never consumes a draw early.
     */
    void saveState(util::SnapshotWriter &writer) const;

    /**
     * Restore into a model freshly constructed with the same params
     * (the chunk carries a parameter fingerprint). Returns ok().
     */
    bool restoreState(util::SnapshotReader &reader);

  private:
    /** Draws committed after all advanced time is observed. */
    std::uint64_t targetEvents() const;

    /** Replay pending event draws, in event order. */
    void materialize();

    AmbientParams params_;
    util::Rng rng_;
    /** Exact one-event OU transition, precomputed once. */
    double decay_;
    double noise_sd_;
    double temp_k_;
    /** Simulated hours accounted so far (compensated: dyadic step
     *  patterns sum exactly, so event crossings are partition-
     *  invariant). */
    util::CompensatedSum clock_h_;
    std::uint64_t committed_ = 0;
};

} // namespace pentimento::cloud

#endif // PENTIMENTO_CLOUD_AMBIENT_HPP
