/**
 * @file
 * Deterministic, schedule-driven fault injection.
 *
 * Robustness code is only as good as the failures it has actually
 * seen. This registry lets tests and CLI runs *schedule*
 * failures at named injection points — `snapshot.commit.short_write`,
 * `client.recv.stall`, … — instead of hoping CI gets unlucky. A
 * schedule is a single string:
 *
 *     seed=42;snapshot.commit.short_write:p=0.5,skip=2,max=1;client.send.reset:p=0.2
 *
 * Per point: `p` is the fire probability per evaluation (default 1),
 * `skip` ignores the first N evaluations, `max` caps total fires.
 * Every point draws from its own Rng derived as
 * `Rng(seed).split(point_name)`, so the fire sequence at a point is a
 * pure function of (schedule seed, point name, evaluation ordinal) —
 * independent of how evaluations at *other* points interleave across
 * threads. Same seed ⇒ same injected-fault sequence, in every process
 * that arms the same schedule (the bench binaries arm it from the
 * PENTIMENTO_FAULTS environment variable).
 *
 * Injection points call `shouldFail("name")`; when nothing is armed
 * this is one relaxed atomic load. Configuring
 * -DPENTIMENTO_FAULT_INJECTION=OFF compiles every call to a constant
 * `false` so release builds carry no trace of the machinery.
 *
 * Point naming convention: `<subsystem>.<operation>.<failure>`, all
 * lower-case, e.g. `snapshot.commit.torn_rename`. Grep for
 * `fault::shouldFail` to enumerate every live point.
 */

#ifndef PENTIMENTO_UTIL_FAULT_HPP
#define PENTIMENTO_UTIL_FAULT_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/expected.hpp"

namespace pentimento::util::fault {

/** Configuration of one named injection point. */
struct PointConfig
{
    std::string point;
    /** Fire probability per evaluation (clamped to [0, 1]). */
    double probability = 1.0;
    /** Ignore the first `skip` evaluations entirely. */
    std::uint64_t skip = 0;
    /** Stop firing after this many fires (~0 = unbounded). */
    std::uint64_t max_fires = ~0ULL;
};

/** A complete fault schedule: one seed, many points. */
struct Schedule
{
    std::uint64_t seed = 0;
    std::vector<PointConfig> points;
};

/** Observed counters for one armed point (tests, reports). */
struct PointStats
{
    std::string point;
    std::uint64_t evaluations = 0;
    std::uint64_t fires = 0;
};

/**
 * Parse the `seed=N;point:k=v,...` grammar. Unknown keys, malformed
 * numbers, and empty point names are errors — a typoed schedule
 * silently arming nothing would fake a green run.
 */
Expected<Schedule> parseSchedule(std::string_view text);

/** Render a schedule back to its canonical string form. */
std::string formatSchedule(const Schedule &schedule);

#if defined(PENTIMENTO_FAULT_INJECTION)

/** Arm a schedule, replacing any previous one. Empty = disarm. */
void arm(const Schedule &schedule);

/** Drop every armed point (and its counters). */
void disarm();

/** True while at least one point is armed. */
bool armed();

/**
 * Evaluate the injection point `point`. Returns true when the armed
 * schedule says this call must fail. One relaxed atomic load when
 * nothing is armed.
 */
bool shouldFail(const char *point);

/** Counters for every armed point, in schedule order. */
std::vector<PointStats> stats();

/**
 * Arm from $PENTIMENTO_FAULTS when set (no-op otherwise). A malformed
 * schedule is returned as an error, never half-armed.
 */
Expected<void> armFromEnv();

#else // fault injection compiled out: every call is a no-op constant

inline void arm(const Schedule &) {}
inline void disarm() {}
inline bool armed() { return false; }
inline bool shouldFail(const char *) { return false; }
inline std::vector<PointStats> stats() { return {}; }
inline Expected<void> armFromEnv() { return {}; }

#endif // PENTIMENTO_FAULT_INJECTION

} // namespace pentimento::util::fault

#endif // PENTIMENTO_UTIL_FAULT_HPP
