/**
 * @file
 * util/fault: schedule grammar, determinism, and arming semantics.
 *
 * The injection registry underpins every fault-injected test in the
 * repo, so its contract is locked here in isolation: the
 * `seed=N;point:k=v` grammar rejects every malformed schedule loudly (a
 * typo silently arming nothing would fake a green run), and the fire
 * sequence at a point is a pure function of (schedule seed, point
 * name, evaluation ordinal) — re-arming replays it, and evaluations at
 * *other* points never perturb it.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/fault.hpp"

namespace pf = pentimento::util::fault;
namespace pu = pentimento::util;

namespace {

/** Evaluate `point` n times, returning the fire pattern. */
std::vector<bool>
firePattern(const char *point, std::size_t n)
{
    std::vector<bool> fires;
    fires.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        fires.push_back(pf::shouldFail(point));
    }
    return fires;
}

/** RAII guard: whatever a test arms is gone when it exits. */
struct DisarmGuard
{
    ~DisarmGuard() { pf::disarm(); }
};

} // namespace

// ------------------------------------------------------------- grammar

TEST(FaultSchedule, ParsesSeedAndPoints)
{
    const pu::Expected<pf::Schedule> parsed = pf::parseSchedule(
        "seed=42;snapshot.commit.short_write:p=0.5,skip=2,max=1;"
        "client.send.reset:p=0.25");
    ASSERT_TRUE(parsed.ok()) << parsed.error();
    const pf::Schedule &s = parsed.value();
    EXPECT_EQ(s.seed, 42u);
    ASSERT_EQ(s.points.size(), 2u);
    EXPECT_EQ(s.points[0].point, "snapshot.commit.short_write");
    EXPECT_DOUBLE_EQ(s.points[0].probability, 0.5);
    EXPECT_EQ(s.points[0].skip, 2u);
    EXPECT_EQ(s.points[0].max_fires, 1u);
    EXPECT_EQ(s.points[1].point, "client.send.reset");
    EXPECT_DOUBLE_EQ(s.points[1].probability, 0.25);
    EXPECT_EQ(s.points[1].skip, 0u);
    EXPECT_EQ(s.points[1].max_fires, ~0ULL);
}

TEST(FaultSchedule, DefaultsAndWhitespaceTolerated)
{
    const pu::Expected<pf::Schedule> parsed =
        pf::parseSchedule("  seed=7 ; a.b.c ; d.e_f : p=1 ;; ");
    ASSERT_TRUE(parsed.ok()) << parsed.error();
    EXPECT_EQ(parsed.value().seed, 7u);
    ASSERT_EQ(parsed.value().points.size(), 2u);
    EXPECT_EQ(parsed.value().points[0].point, "a.b.c");
    EXPECT_DOUBLE_EQ(parsed.value().points[0].probability, 1.0);
    EXPECT_EQ(parsed.value().points[1].point, "d.e_f");
}

TEST(FaultSchedule, EmptyScheduleIsValidAndEmpty)
{
    const pu::Expected<pf::Schedule> parsed = pf::parseSchedule("");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().seed, 0u);
    EXPECT_TRUE(parsed.value().points.empty());
}

TEST(FaultSchedule, SeedOnlyInFirstClause)
{
    // A later "seed=9" clause is parsed as a point name — and rejected
    // because '=' is not a point character.
    EXPECT_FALSE(pf::parseSchedule("a.b:p=1;seed=9").ok());
}

TEST(FaultSchedule, MalformedSchedulesAreLoudErrors)
{
    const char *broken[] = {
        "seed=nope",                // non-numeric seed
        "seed=1;:p=1",              // empty point name
        "seed=1;Bad.Name:p=1",      // upper case not a point char
        "seed=1;a b:p=1",           // embedded space
        "seed=1;a.b:p",             // bare key, no '='
        "seed=1;a.b:frequency=2",   // unknown key
        "seed=1;a.b:p=1.5",         // probability above 1
        "seed=1;a.b:p=-0.5",        // probability below 0
        "seed=1;a.b:p=abc",         // non-numeric probability
        "seed=1;a.b:skip=-1",       // negative count
        "seed=1;a.b:max=1x",        // trailing junk in count
        "seed=1;a.b:p=1;a.b:p=1",   // duplicate point
    };
    for (const char *text : broken) {
        EXPECT_FALSE(pf::parseSchedule(text).ok())
            << "schedule parsed but should not have: " << text;
    }
}

TEST(FaultSchedule, FormatParsesBackIdentically)
{
    const pu::Expected<pf::Schedule> parsed = pf::parseSchedule(
        "seed=9001;a.b.c:p=0.5,skip=3,max=2;x.y:p=1");
    ASSERT_TRUE(parsed.ok());
    const std::string text = pf::formatSchedule(parsed.value());
    const pu::Expected<pf::Schedule> reparsed = pf::parseSchedule(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.error();
    const pf::Schedule &a = parsed.value();
    const pf::Schedule &b = reparsed.value();
    EXPECT_EQ(a.seed, b.seed);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].point, b.points[i].point);
        EXPECT_DOUBLE_EQ(a.points[i].probability,
                         b.points[i].probability);
        EXPECT_EQ(a.points[i].skip, b.points[i].skip);
        EXPECT_EQ(a.points[i].max_fires, b.points[i].max_fires);
    }
}

#if defined(PENTIMENTO_FAULT_INJECTION)

// -------------------------------------------------- arming & counters

TEST(FaultRegistry, DisarmedByDefaultAndAfterDisarm)
{
    DisarmGuard guard;
    pf::disarm();
    EXPECT_FALSE(pf::armed());
    EXPECT_FALSE(pf::shouldFail("snapshot.commit.enospc"));
    EXPECT_TRUE(pf::stats().empty());

    pf::arm(pf::parseSchedule("seed=1;a.b:p=1").value());
    EXPECT_TRUE(pf::armed());
    pf::disarm();
    EXPECT_FALSE(pf::armed());
    EXPECT_FALSE(pf::shouldFail("a.b"));
}

TEST(FaultRegistry, ArmingEmptyScheduleDisarms)
{
    DisarmGuard guard;
    pf::arm(pf::parseSchedule("seed=1;a.b:p=1").value());
    ASSERT_TRUE(pf::armed());
    pf::arm(pf::Schedule{});
    EXPECT_FALSE(pf::armed());
}

TEST(FaultRegistry, UnknownPointNeverFires)
{
    DisarmGuard guard;
    pf::arm(pf::parseSchedule("seed=1;a.b:p=1").value());
    EXPECT_FALSE(pf::shouldFail("never.configured"));
    EXPECT_TRUE(pf::shouldFail("a.b"));
}

TEST(FaultRegistry, SkipAndMaxShapeTheWindow)
{
    DisarmGuard guard;
    // p=1, skip=2, max=1: fires exactly on the third evaluation.
    pf::arm(pf::parseSchedule("seed=1;a.b:p=1,skip=2,max=1").value());
    const std::vector<bool> fires = firePattern("a.b", 6);
    const std::vector<bool> want = {false, false, true,
                                    false, false, false};
    EXPECT_EQ(fires, want);

    const std::vector<pf::PointStats> stats = pf::stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].point, "a.b");
    EXPECT_EQ(stats[0].evaluations, 6u);
    EXPECT_EQ(stats[0].fires, 1u);
}

TEST(FaultRegistry, FireSequenceReplaysAcrossRearm)
{
    DisarmGuard guard;
    const pf::Schedule schedule =
        pf::parseSchedule("seed=777;a.b:p=0.4").value();
    pf::arm(schedule);
    const std::vector<bool> first = firePattern("a.b", 64);
    pf::arm(schedule);
    const std::vector<bool> second = firePattern("a.b", 64);
    EXPECT_EQ(first, second);
    // Not degenerate: p=0.4 over 64 draws fires some but not all.
    int fired = 0;
    for (const bool f : first) {
        fired += f ? 1 : 0;
    }
    EXPECT_GT(fired, 0);
    EXPECT_LT(fired, 64);
}

TEST(FaultRegistry, PointsDrawIndependentStreams)
{
    DisarmGuard guard;
    // Reference: a.b evaluated alone.
    pf::arm(pf::parseSchedule("seed=5;a.b:p=0.5").value());
    const std::vector<bool> alone = firePattern("a.b", 48);

    // Same point, same seed, but with another point's evaluations
    // interleaved between every draw: a.b's sequence must not move.
    pf::arm(pf::parseSchedule("seed=5;a.b:p=0.5;x.y:p=0.5").value());
    std::vector<bool> interleaved;
    for (std::size_t i = 0; i < 48; ++i) {
        (void)pf::shouldFail("x.y");
        interleaved.push_back(pf::shouldFail("a.b"));
        (void)pf::shouldFail("x.y");
    }
    EXPECT_EQ(alone, interleaved);
}

TEST(FaultRegistry, DifferentSeedsDifferentSequences)
{
    DisarmGuard guard;
    pf::arm(pf::parseSchedule("seed=1;a.b:p=0.5").value());
    const std::vector<bool> one = firePattern("a.b", 64);
    pf::arm(pf::parseSchedule("seed=2;a.b:p=0.5").value());
    const std::vector<bool> two = firePattern("a.b", 64);
    EXPECT_NE(one, two);
}

// ----------------------------------------------------------- armFromEnv

TEST(FaultRegistry, ArmFromEnvRoundTrip)
{
    DisarmGuard guard;
    ASSERT_EQ(::setenv("PENTIMENTO_FAULTS",
                       "seed=3;a.b:p=1,max=2", 1),
              0);
    const pu::Expected<void> armed = pf::armFromEnv();
    ASSERT_TRUE(armed.ok()) << armed.error();
    EXPECT_TRUE(pf::armed());
    EXPECT_TRUE(pf::shouldFail("a.b"));
    EXPECT_TRUE(pf::shouldFail("a.b"));
    EXPECT_FALSE(pf::shouldFail("a.b")) << "max=2 must cap fires";
    ::unsetenv("PENTIMENTO_FAULTS");
}

TEST(FaultRegistry, ArmFromEnvMalformedIsErrorNotHalfArmed)
{
    DisarmGuard guard;
    pf::disarm();
    ASSERT_EQ(::setenv("PENTIMENTO_FAULTS", "seed=1;a.b:bogus=1", 1), 0);
    const pu::Expected<void> armed = pf::armFromEnv();
    EXPECT_FALSE(armed.ok());
    EXPECT_NE(armed.error().find("PENTIMENTO_FAULTS"),
              std::string::npos)
        << armed.error();
    EXPECT_FALSE(pf::armed()) << "a malformed schedule must arm nothing";
    ::unsetenv("PENTIMENTO_FAULTS");
}

TEST(FaultRegistry, ArmFromEnvUnsetIsNoOp)
{
    DisarmGuard guard;
    ::unsetenv("PENTIMENTO_FAULTS");
    pf::disarm();
    EXPECT_TRUE(pf::armFromEnv().ok());
    EXPECT_FALSE(pf::armed());
}

#endif // PENTIMENTO_FAULT_INJECTION
