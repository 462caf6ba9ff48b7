/**
 * @file
 * perfbench_driver: runs one benchmark workload in this process and
 * prints its measurements as one JSON line.
 *
 *   perfbench_driver --workload W --seed N --seconds S --trace 0|1
 *                    [--lanes L] [--golden CSV] [--work-dir DIR]
 *                    [--port P --ping-rate R --scan-rate R
 *                     --malformed-every K]
 *
 * Workloads:
 *   campaign-112    the default fleet_campaign shape, back to back
 *   fleet-100k      the same campaign on a 100 000-board region
 *   checkpoint-112  campaign-112 with a rotating checkpoint every 7
 *                   days, each seed also halted mid-year and resumed
 *   serve-mixed     open-loop Ping + FleetScan load (plus malformed
 *                   frames) against a running campaign_server on
 *                   --port, and the engine run in-process on the same
 *                   scan requests
 *
 * Untraced runs (--trace 0) time serve::runFleetScan and the server
 * from outside: per-day and phase times come only from the
 * core::SweepObserver hook. Traced runs (--trace 1) also replay each
 * campaign through the layers' public calls inside spans (replay.hpp)
 * and report per-layer figures. Every run checks its outputs; perfbench/
 * run.py turns the result into the benchmark's report.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "replay.hpp"
#include "serve/campaign.hpp"
#include "serve/client.hpp"
#include "serve/wire.hpp"
#include "trace.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;
namespace core = pentimento::core;

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

constexpr std::uint64_t kGoldenSeed = 90902;
constexpr std::size_t kRoutesPerTenant = 8;
constexpr std::size_t kMaxMeasured = 8;
constexpr int kCheckpointEveryDays = 7;
constexpr int kHaltAtDay = 180;
/** Spans kept for the Chrome trace file per tracer (totals keep all). */
constexpr std::size_t kMaxTraceRecords = 60000;

/** serve-mixed: the small-fleet FleetScan request shape. */
constexpr std::uint32_t kScanFleet = 6;
constexpr std::uint32_t kScanDays = 60;
constexpr std::uint32_t kScanRoutes = 8;
constexpr std::uint32_t kScanMeasured = 1;
constexpr std::size_t kScanShapes = 32;
/** Length of the serve-layer probe in traced campaign runs. */
constexpr double kServeProbeSeconds = 1.5;
/** serve-mixed: client lanes (2 ping, 2 scan), slice length, and the
 *  share of each slice that runs the shapes in-process. */
constexpr std::uint32_t kLanes = 4;
constexpr double kSliceSeconds = 2.5;
constexpr double kEngineShare = 0.4;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

std::vector<double>
scaled(std::vector<double> v, double factor)
{
    for (double &x : v) {
        x *= factor;
    }
    return v;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t
fnv1a(std::uint64_t h, const std::vector<std::uint8_t> &bytes)
{
    for (const std::uint8_t b : bytes) {
        h = (h ^ b) * 0x100000001b3ULL;
    }
    return h;
}

/** Campaign k of a run: the golden seed first, then seed-derived. */
std::uint64_t
campaignSeed(std::uint64_t workload_seed, std::size_t k)
{
    if (k == 0) {
        return kGoldenSeed;
    }
    return util::Rng(workload_seed).split("perfbench-campaign").split(k)() %
           1000000000ULL;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int lanes = 2;
    std::string golden = "bench/fleet_campaign_golden.csv";
    std::string work_dir = ".bench_work";
    int port = 0;
    double ping_rate = 300.0;
    double scan_rate = 30.0;
    int malformed_every = 20;
};

/** Output accumulated by a workload, serialised by main(). */
struct Report
{
    std::map<std::string, double> named;
    std::map<std::string, double> layer;
    std::vector<std::pair<std::string, std::string>> failures;
    std::size_t checks = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed_ops = 0;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    std::string self_time;

    void
    check(bool ok, const std::string &name, const std::string &detail)
    {
        ++checks;
        if (!ok) {
            failures.emplace_back(name, detail);
        }
    }
};

/** Day-callback clock: the engine's only public timing hook. */
class DayClock final : public core::SweepObserver
{
  public:
    bool
    onSweep(std::size_t day, double, const double *, std::size_t) override
    {
        stamps.emplace_back(static_cast<int>(day), Clock::now());
        return true;
    }

    std::vector<std::pair<int, Clock::time_point>> stamps;
};

/** What one timed runFleetScan call yields. */
struct CallTiming
{
    double wall_s = 0.0;
    double setup_s = 0.0;  ///< call start to first day callback
    double attack_s = 0.0; ///< last day callback to return
    std::vector<double> day_ms;
    std::vector<double> ckpt_day_ms;
};

util::Expected<serve::FleetScanResult>
timedRun(serve::FleetScanConfig config, CallTiming *timing)
{
    DayClock clock;
    config.observer = &clock;
    const Clock::time_point start = Clock::now();
    util::Expected<serve::FleetScanResult> result =
        serve::runFleetScan(config);
    const Clock::time_point end = Clock::now();
    timing->wall_s = secondsBetween(start, end);
    if (!clock.stamps.empty()) {
        timing->setup_s = secondsBetween(start, clock.stamps.front().second);
        timing->attack_s = secondsBetween(clock.stamps.back().second, end);
    }
    for (std::size_t i = 1; i < clock.stamps.size(); ++i) {
        const int day = clock.stamps[i].first;
        const double ms = 1000.0 * secondsBetween(clock.stamps[i - 1].second,
                                                  clock.stamps[i].second);
        const bool commit_day = config.checkpoint_every_days > 0 &&
                                !config.checkpoint_path.empty() &&
                                day % config.checkpoint_every_days == 0 &&
                                day < config.days;
        (commit_day ? timing->ckpt_day_ms : timing->day_ms).push_back(ms);
    }
    return result;
}

/** Accumulates CallTimings into the campaign end-to-end metrics. */
struct CampaignStats
{
    std::vector<double> wall_s;
    std::vector<double> setup_s;
    std::vector<double> attack_s;
    std::vector<double> day_ms;
    std::vector<double> ckpt_day_ms;
    double board_hours = 0.0;
    double board_seconds = 0.0;
    std::uint64_t bits = 0;
    std::uint64_t correct = 0;

    /** A completed (not halted) call. */
    void
    addCompleted(const CallTiming &t, const serve::FleetScanResult &r,
                 std::size_t fleet, bool count_recovery)
    {
        wall_s.push_back(t.wall_s);
        setup_s.push_back(t.setup_s);
        attack_s.push_back(t.attack_s);
        addDays(t);
        board_hours += static_cast<double>(fleet) * r.simulated_h;
        board_seconds += t.wall_s;
        if (count_recovery) {
            for (const serve::FleetScanBoardScore &s : r.boards) {
                bits += s.bits;
                correct += s.correct;
            }
        }
    }

    void
    addDays(const CallTiming &t)
    {
        day_ms.insert(day_ms.end(), t.day_ms.begin(), t.day_ms.end());
        ckpt_day_ms.insert(ckpt_day_ms.end(), t.ckpt_day_ms.begin(),
                           t.ckpt_day_ms.end());
    }

    void
    emit(Report &report) const
    {
        report.named["campaign_s"] = median(wall_s);
        report.named["setup_s"] = median(setup_s);
        report.named["attack_s"] = median(attack_s);
        report.named["day_ms_p50"] = percentile(day_ms, 0.50);
        report.named["day_ms_p99"] = percentile(day_ms, 0.99);
        report.named["board_hours_per_s"] =
            board_seconds > 0.0 ? board_hours / board_seconds : 0.0;
        report.named["recovery_frac"] =
            bits > 0 ? static_cast<double>(correct) /
                           static_cast<double>(bits)
                     : 0.0;
        report.named["n_campaigns"] = static_cast<double>(wall_s.size());
        report.named["n_days"] = static_cast<double>(day_ms.size());
        report.named["n_ckpt_days"] = static_cast<double>(ckpt_day_ms.size());
    }
};

bool
sameResult(const serve::FleetScanResult &a, const serve::FleetScanResult &b)
{
    return serve::encodeFleetScanResult(0, a) ==
           serve::encodeFleetScanResult(0, b);
}

std::string
scoresCsv(const serve::FleetScanResult &r)
{
    std::string csv = "board,bits,correct,accuracy\n";
    for (const serve::FleetScanBoardScore &s : r.boards) {
        csv += s.board + "," + std::to_string(s.bits) + "," +
               std::to_string(s.correct) + "," +
               std::to_string(s.accuracy) + "\n";
    }
    return csv;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Per-layer figures of the traced campaigns, one sample per campaign. */
struct LayerStats
{
    std::map<std::string, std::vector<double>> samples;
    OpTotals all;
    std::vector<double> traced_s;
    std::vector<double> untraced_s;

    /** Snapshot work summed over commits and restores, per operation. */
    OpTotals snapshot;
    std::uint64_t snapshot_bytes = 0;

    void
    add(const std::string &name, double value)
    {
        samples[name].push_back(value);
    }

    void
    addSnapshot(const OpTotals &t, std::uint64_t bytes)
    {
        for (const Op op : {Op::Encode, Op::Crc, Op::Commit, Op::OpenSnapshot,
                            Op::RestoreState}) {
            const auto i = static_cast<std::size_t>(op);
            snapshot.calls[i] += t.calls[i];
            snapshot.ms[i] += t.ms[i];
        }
        snapshot_bytes += bytes;
    }

    /** Fold one traced campaign's span totals and work counts in. */
    void
    addCampaign(const OpTotals &t, const ReplayOutcome &o)
    {
        all.add(t);
        add("cloud.construct_ms", t.msOf(Op::PlatformCtor));
        add("cloud.advance_calls",
            static_cast<double>(t.callsOf(Op::Advance)));
        add("cloud.advance_ms", t.msOf(Op::Advance));
        add("cloud.rent_calls", static_cast<double>(t.callsOf(Op::Rent)));
        add("cloud.rent_ms", t.msOf(Op::Rent));
        add("cloud.release_ms", t.msOf(Op::Release));
        add("fabric.load_calls",
            static_cast<double>(t.callsOf(Op::LoadDesign)));
        add("fabric.load_ms", t.msOf(Op::LoadDesign));
        add("fabric.allocate_ms", t.msOf(Op::AllocateRoute));
        add("fabric.materialized", static_cast<double>(o.materialized));
        add("fabric.journaled", static_cast<double>(o.journaled));
        add("fabric.epochs", static_cast<double>(o.epochs));
        add("tdc.calibrate_ms", t.msOf(Op::Calibrate));
        add("tdc.measure_calls",
            static_cast<double>(t.callsOf(Op::Measure)));
        add("tdc.measure_ms", t.msOf(Op::Measure));
        add("core.classify_ms", t.msOf(Op::Classify));
        std::uint64_t bits = 0;
        std::uint64_t correct = 0;
        for (const serve::FleetScanBoardScore &s : o.result.boards) {
            bits += s.bits;
            correct += s.correct;
        }
        add("core.bits", static_cast<double>(bits));
        add("core.correct", static_cast<double>(correct));
        addSnapshot(t, o.snapshot_bytes);
        add("snapshot.commits", static_cast<double>(o.commits));
        double unattributed = 0.0;
        std::uint64_t spans = 0;
        for (std::size_t i = 0; i < kOpCount; ++i) {
            if (std::strcmp(opLayer(static_cast<Op>(i)), "driver") == 0) {
                unattributed += t.self_ms[i];
            }
            spans += t.calls[i];
        }
        add("trace.unattributed_ms", unattributed);
        add("trace.spans", static_cast<double>(spans));
    }

    void
    emit(Report &report) const
    {
        for (const auto &[name, values] : samples) {
            report.layer[name] = median(values);
        }
        const auto perCall = [&](Op op) {
            const std::uint64_t n = snapshot.callsOf(op);
            return n > 0 ? snapshot.msOf(op) / static_cast<double>(n) : 0.0;
        };
        report.layer["snapshot.encode_ms"] = perCall(Op::Encode);
        report.layer["snapshot.crc_ms"] = perCall(Op::Crc);
        report.layer["snapshot.commit_ms"] = perCall(Op::Commit);
        report.layer["snapshot.restore_ms"] =
            perCall(Op::OpenSnapshot) + perCall(Op::RestoreState);
        const std::uint64_t commits = snapshot.callsOf(Op::Commit);
        report.layer["snapshot.bytes"] =
            commits > 0 ? static_cast<double>(snapshot_bytes) /
                              static_cast<double>(commits)
                        : 0.0;
        const double untraced = median(untraced_s);
        report.layer["trace.overhead_pct"] =
            untraced > 0.0 ? 100.0 * (median(traced_s) / untraced - 1.0)
                           : 0.0;
        report.layer["trace.traced_campaign_s"] = median(traced_s);
        report.layer["trace.untraced_campaign_s"] = untraced;
        report.self_time = selfTimeTable(all);
    }
};

/** Where traced runs write their snapshot-probe image. */
std::string
probePath(const Args &args)
{
    fs::create_directories(args.work_dir);
    return (fs::path(args.work_dir) / "probe.ckpt").string();
}

/** Traced replay of `config`, checked against the engine's `expect`. */
util::Expected<ReplayOutcome>
tracedReplay(const ReplayConfig &config, Tracer &tracer,
             std::uint64_t owner, LayerStats &layers, Report &report,
             const serve::FleetScanResult *expect, const std::string &what,
             const std::string &probe_path = "")
{
    tracer.setOwner(owner);
    util::Expected<ReplayOutcome> outcome = replayFleetScan(config, tracer);
    const OpTotals totals = tracer.takeTotals();
    if (!outcome.ok()) {
        report.check(false, "traced-replay", what + ": " + outcome.error());
        return outcome;
    }
    if (expect != nullptr) {
        layers.addCampaign(totals, outcome.value());
    } else {
        // A halted or resumed part-campaign: its snapshot work and self
        // time count, but it is no sample of a whole campaign.
        layers.all.add(totals);
        layers.addSnapshot(totals, outcome.value().snapshot_bytes);
    }
    if (!probe_path.empty()) {
        // Workloads that never checkpoint still get one snapshot round
        // trip of their end state, outside the campaign's own figures.
        const util::Expected<std::size_t> bytes = snapshotProbe(
            config, *outcome.value().platform, probe_path, tracer);
        report.check(bytes.ok(), "snapshot-probe",
                     what + ": " + (bytes.ok() ? "" : bytes.error()));
        layers.addSnapshot(tracer.takeTotals(), bytes.ok() ? bytes.value() : 0);
    }
    outcome.value().platform.reset();
    if (expect != nullptr) {
        // The CRC pass over each image is the benchmark's own extra
        // work, not the engine's, so the overhead figure leaves it out.
        layers.traced_s.push_back(outcome.value().wall_s -
                                  totals.msOf(Op::Crc) / 1000.0);
        report.check(sameResult(outcome.value().result, *expect),
                     "traced-replay-equals-engine",
                     what + ": traced scores differ from the engine's");
    }
    return outcome;
}

// ------------------------------------------------- campaign workloads

void
runCampaigns(const Args &args, std::size_t fleet, Report &report,
             Tracer *tracer, LayerStats &layers)
{
    const bool golden = fleet == 112;
    const std::size_t min_campaigns = fleet == 112 ? 16 : 3;
    util::ThreadPool pool(static_cast<std::size_t>(args.lanes - 1));
    CampaignStats stats;
    const Clock::time_point start = Clock::now();
    for (std::size_t k = 0; k < min_campaigns ||
                            secondsBetween(start, Clock::now()) < args.seconds;
         ++k) {
        serve::FleetScanConfig config;
        config.fleet = fleet;
        config.days = 365;
        config.seed = campaignSeed(args.seed, k);
        config.routes_per_tenant = kRoutesPerTenant;
        config.max_measured = kMaxMeasured;
        config.golden_compat = true;
        config.pool = &pool;
        CallTiming timing;
        ++report.attempted;
        util::Expected<serve::FleetScanResult> run =
            timedRun(config, &timing);
        if (!run.ok()) {
            ++report.failed_ops;
            report.check(false, "campaign", run.error());
            continue;
        }
        const serve::FleetScanResult &result = run.value();
        const bool prefix = k < min_campaigns;
        stats.addCompleted(timing, result, fleet, prefix);
        if (prefix) {
            report.digest = fnv1a(report.digest,
                                  serve::encodeFleetScanResult(0, result));
        }
        if (k == 0 && golden) {
            report.check(scoresCsv(result) == readFile(args.golden),
                         "golden-csv",
                         "seed-90902 scores differ from " + args.golden);
        }
        if (tracer != nullptr) {
            layers.untraced_s.push_back(timing.wall_s);
            ReplayConfig rc;
            rc.fleet = fleet;
            rc.seed = config.seed;
            rc.pool = &pool;
            (void)tracedReplay(rc, *tracer, k, layers, report, &result,
                         "seed " + std::to_string(config.seed),
                         probePath(args));
        }
    }
    stats.emit(report);
    // The distinctive operation: a whole campaign at 112 boards; at
    // 100 000 boards too few campaigns fit a run for a tail, and the
    // fleet-wide day step is what sets the workload apart.
    const std::vector<double> key_ms =
        golden ? scaled(stats.wall_s, 1000.0) : stats.day_ms;
    report.named["key_op_ms_p50"] = percentile(key_ms, 0.50);
    report.named["key_op_ms_p90"] = percentile(key_ms, 0.90);
}

void
removeCheckpoint(const std::string &path)
{
    for (const char *suffix : {"", ".prev", ".tmp"}) {
        std::error_code ignored;
        fs::remove(path + suffix, ignored);
    }
}

void
runCheckpoint(const Args &args, Report &report, Tracer *tracer,
              LayerStats &layers)
{
    const std::size_t fleet = 112;
    const std::size_t min_seeds = 3;
    const fs::path dir = fs::path(args.work_dir) / "checkpoint";
    fs::create_directories(dir);
    const std::string path = (dir / "campaign.ckpt").string();
    const std::string traced_path = (dir / "traced.ckpt").string();
    util::ThreadPool pool(static_cast<std::size_t>(args.lanes - 1));
    CampaignStats stats;
    std::vector<double> resume_s;
    const Clock::time_point start = Clock::now();
    for (std::size_t k = 0; k < min_seeds ||
                            secondsBetween(start, Clock::now()) < args.seconds;
         ++k) {
        serve::FleetScanConfig config;
        config.fleet = fleet;
        config.days = 365;
        config.seed = campaignSeed(args.seed, k);
        config.routes_per_tenant = kRoutesPerTenant;
        config.max_measured = kMaxMeasured;
        config.golden_compat = true;
        config.pool = &pool;
        config.checkpoint_every_days = kCheckpointEveryDays;
        config.checkpoint_path = path;
        config.resume = serve::ResumeMode::Never;
        const std::string what = "seed " + std::to_string(config.seed);

        // Uninterrupted, checkpointing every week.
        removeCheckpoint(path);
        CallTiming whole;
        report.attempted += 3;
        util::Expected<serve::FleetScanResult> full =
            timedRun(config, &whole);
        if (!full.ok()) {
            report.failed_ops += 3;
            report.check(false, "campaign", what + ": " + full.error());
            continue;
        }
        stats.addCompleted(whole, full.value(), fleet, k < min_seeds);
        if (k < min_seeds) {
            report.digest = fnv1a(
                report.digest, serve::encodeFleetScanResult(0, full.value()));
        }

        // The same campaign halted mid-year, then resumed.
        removeCheckpoint(path);
        serve::FleetScanConfig halted = config;
        halted.halt_at_day = kHaltAtDay;
        CallTiming first_half;
        util::Expected<serve::FleetScanResult> part =
            timedRun(halted, &first_half);
        const bool halted_ok =
            part.ok() && part.value().halted_after_day == kHaltAtDay;
        report.check(halted_ok, "halt",
                     what + ": campaign did not halt at day " +
                         std::to_string(kHaltAtDay));
        stats.addDays(first_half);

        serve::FleetScanConfig resumed = config;
        resumed.resume = serve::ResumeMode::Require;
        CallTiming second_half;
        util::Expected<serve::FleetScanResult> rest =
            timedRun(resumed, &second_half);
        const bool resumed_ok = halted_ok && rest.ok() &&
                                rest.value().resumed_day == kHaltAtDay &&
                                sameResult(rest.value(), full.value());
        report.check(resumed_ok, "resume-equals-uninterrupted",
                     what + ": resumed campaign's scores differ from the "
                            "uninterrupted campaign's" +
                         (rest.ok() ? "" : " (" + rest.error() + ")"));
        if (!resumed_ok) {
            report.failed_ops += halted_ok ? 1 : 2;
        }
        resume_s.push_back(second_half.setup_s);
        stats.addDays(second_half);
        stats.attack_s.push_back(second_half.attack_s);

        if (tracer != nullptr) {
            layers.untraced_s.push_back(whole.wall_s);
            ReplayConfig rc;
            rc.fleet = fleet;
            rc.seed = config.seed;
            rc.pool = &pool;
            rc.checkpoint_every_days = kCheckpointEveryDays;
            rc.checkpoint_path = traced_path;
            removeCheckpoint(traced_path);
            (void)tracedReplay(rc, *tracer, 3 * k, layers, report, &full.value(),
                         what);
            removeCheckpoint(traced_path);
            rc.halt_at_day = kHaltAtDay;
            (void)tracedReplay(rc, *tracer, 3 * k + 1, layers, report, nullptr,
                         what + " halted");
            rc.halt_at_day = 0;
            rc.resume = true;
            util::Expected<ReplayOutcome> back = tracedReplay(
                rc, *tracer, 3 * k + 2, layers, report, nullptr,
                what + " resumed");
            report.check(back.ok() &&
                             sameResult(back.value().result, full.value()),
                         "traced-resume-equals-engine",
                         what + ": traced resumed scores differ from the "
                                "engine's");
        }
    }
    removeCheckpoint(path);
    removeCheckpoint(traced_path);
    stats.emit(report);
    report.named["setup_s"] = median(resume_s);
    report.named["resume_s"] = median(resume_s);
    report.named["ckpt_day_ms_p50"] = percentile(stats.ckpt_day_ms, 0.50);
    report.named["ckpt_day_ms_p90"] = percentile(stats.ckpt_day_ms, 0.90);
    report.named["key_op_ms_p50"] = report.named["ckpt_day_ms_p50"];
    report.named["key_op_ms_p90"] = report.named["ckpt_day_ms_p90"];
}

// ---------------------------------------------------------- serve-mixed

serve::Request
scanRequest(std::uint64_t id, std::uint64_t seed)
{
    serve::Request request;
    request.request_id = id;
    request.kind = serve::RequestKind::FleetScan;
    request.seed = seed;
    request.deadline_ms = 30000;
    request.fleet = kScanFleet;
    request.days = kScanDays;
    request.scan_routes_per_tenant = kScanRoutes;
    request.max_measured = kScanMeasured;
    return request;
}

/** The engine config the server derives from a scan request. */
serve::FleetScanConfig
engineConfig(const serve::Request &request)
{
    serve::FleetScanConfig config;
    config.fleet = request.fleet;
    config.days = static_cast<int>(request.days);
    config.seed = request.seed;
    config.routes_per_tenant = request.scan_routes_per_tenant;
    config.max_measured = request.max_measured;
    return config;
}

/** One client thread's tally. */
struct ClientTally
{
    std::vector<double> latency_ms; ///< from due time
    std::vector<double> call_ms;    ///< the call alone
    std::vector<double> late_ms;    ///< send time behind due time
    std::uint64_t attempted = 0;
    std::uint64_t shed = 0;
    std::uint64_t deadline = 0;
    std::uint64_t error = 0;
    std::uint64_t wrong = 0;
    std::uint64_t malformed_attempted = 0;
    std::uint64_t malformed_rejected = 0;
    std::string first_problem;

    void
    problem(const std::string &what)
    {
        if (first_problem.empty()) {
            first_problem = what;
        }
    }

    void
    merge(const ClientTally &t)
    {
        latency_ms.insert(latency_ms.end(), t.latency_ms.begin(),
                          t.latency_ms.end());
        call_ms.insert(call_ms.end(), t.call_ms.begin(), t.call_ms.end());
        late_ms.insert(late_ms.end(), t.late_ms.begin(), t.late_ms.end());
        attempted += t.attempted;
        shed += t.shed;
        deadline += t.deadline;
        error += t.error;
        wrong += t.wrong;
        malformed_attempted += t.malformed_attempted;
        malformed_rejected += t.malformed_rejected;
        problem(t.first_problem);
    }
};

std::vector<std::uint8_t>
malformedBytes(std::uint64_t variant)
{
    switch (variant % 3) {
      case 0: // wrong magic from the first byte
        return {0xde, 0xad, 0xbe, 0xef, 0x01, 0x02,
                0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
      case 1: { // declared payload far over the limit
        serve::WireWriter w;
        w.u32(serve::kFrameMagic);
        w.u32(1);
        w.u32(0x7fffffffu);
        return w.take();
      }
      default: { // structurally complete frame with a broken CRC
        std::vector<std::uint8_t> bytes = serve::encodeFrame(
            serve::FrameType::Request, {9, 9, 9, 9});
        bytes.back() ^= 0xff;
        return bytes;
      }
    }
}

/** Throwaway connection carrying one malformed frame. */
void
sendMalformed(std::uint16_t port, std::uint64_t variant, ClientTally &tally)
{
    ++tally.malformed_attempted;
    serve::ClientConnection conn;
    if (!conn.connect(port).ok()) {
        tally.problem("malformed: connect failed");
        return;
    }
    const std::vector<std::uint8_t> bytes = malformedBytes(variant);
    (void)conn.sendRaw(bytes.data(), bytes.size());
    conn.closeWrite();
    const util::Expected<serve::Frame> reply = conn.readFrame(5000);
    if (reply.ok() && reply.value().type == serve::FrameType::Error) {
        const std::optional<serve::ErrorInfo> info =
            serve::decodeError(reply.value().payload);
        if (info && info->code == serve::ErrorCode::Malformed) {
            ++tally.malformed_rejected;
            return;
        }
    }
    tally.problem("malformed frame was not rejected as MALFORMED");
}

/** Classify a terminal frame; true when it is a RESULT. */
bool
tallyReply(const util::Expected<serve::Frame> &reply, ClientTally &tally)
{
    if (!reply.ok()) {
        ++tally.error;
        tally.problem("transport: " + reply.error());
        return false;
    }
    if (reply.value().type == serve::FrameType::Result) {
        return true;
    }
    const std::optional<serve::ErrorInfo> info =
        serve::decodeError(reply.value().payload);
    if (info && info->code == serve::ErrorCode::RetryAfter) {
        ++tally.shed;
    } else if (info && info->code == serve::ErrorCode::DeadlineExceeded) {
        ++tally.deadline;
    } else {
        ++tally.error;
    }
    tally.problem("error frame: " + (info ? info->message : "undecodable"));
    return false;
}

struct ServeLoad
{
    std::uint16_t port = 0;
    Clock::time_point t0;
    double seconds = 0.0;
    double period_s = 0.0;
    double phase_s = 0.0;
    std::uint32_t lane = 0;
    /** Load slice of the run; with the lane, keeps request ids unique. */
    std::uint32_t slice = 0;
    bool scans = false;
    int malformed_every = 0;
    const std::vector<serve::Request> *shapes = nullptr;
    const std::vector<serve::FleetScanResult> *expected = nullptr;
};

void
clientLane(const ServeLoad &load, ClientTally &tally, Tracer *tracer)
{
    serve::ClientConnection conn;
    if (!conn.connect(load.port).ok()) {
        tally.problem("connect failed");
        ++tally.error;
        return;
    }
    const serve::ClientConfig no_retry{};
    for (std::uint64_t j = 0;; ++j) {
        const double due_s = load.phase_s + static_cast<double>(j) *
                                                load.period_s;
        if (due_s >= load.seconds) {
            break;
        }
        const Clock::time_point due =
            load.t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(due_s));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        tally.late_ms.push_back(1000.0 * secondsBetween(due, sent));
        const std::uint64_t id = (static_cast<std::uint64_t>(load.lane) << 56) |
                                 (static_cast<std::uint64_t>(load.slice) << 32) |
                                 j;
        if (tracer != nullptr) {
            tracer->setOwner(id);
        }
        if (!load.scans && load.malformed_every > 0 &&
            j % static_cast<std::uint64_t>(load.malformed_every) ==
                static_cast<std::uint64_t>(load.malformed_every) - 1) {
            ScopedSpan span(tracer, Op::MalformedCall);
            sendMalformed(load.port, j / load.malformed_every, tally);
            continue;
        }
        ++tally.attempted;
        serve::Request request;
        std::size_t shape = 0;
        if (load.scans) {
            shape = (j + load.lane) % load.shapes->size();
            request = (*load.shapes)[shape];
            request.request_id = id;
        } else {
            request.request_id = id;
            request.kind = serve::RequestKind::Ping;
        }
        util::Expected<serve::Frame> reply = util::unexpected("unsent");
        {
            ScopedSpan span(tracer,
                            load.scans ? Op::ScanCall : Op::PingCall);
            reply = conn.call(request, no_retry, 30000);
        }
        const Clock::time_point done = Clock::now();
        tally.call_ms.push_back(1000.0 * secondsBetween(sent, done));
        tally.latency_ms.push_back(1000.0 * secondsBetween(due, done));
        if (!tallyReply(reply, tally)) {
            if (!reply.ok()) {
                // The connection is unusable after a transport error.
                conn.close();
                if (!conn.connect(load.port).ok()) {
                    return;
                }
            }
            continue;
        }
        const std::vector<std::uint8_t> want =
            load.scans
                ? serve::encodeFleetScanResult(id, (*load.expected)[shape])
                : serve::encodePingResult(id);
        if (reply.value().payload != want) {
            ++tally.wrong;
            tally.problem(std::string(load.scans ? "FleetScan" : "Ping") +
                          " result differs from the in-process engine's");
        }
    }
}

/** Thread entry: an exception ends the lane as one more error. */
void
clientLoop(const ServeLoad &load, ClientTally &tally, Tracer *tracer)
{
    try {
        clientLane(load, tally, tracer);
    } catch (const std::exception &error) {
        ++tally.error;
        tally.problem(std::string("client lane: ") + error.what());
    }
}

/** The served scan requests and the engine's answers to them. */
struct ScanShapes
{
    std::vector<serve::Request> requests;
    std::vector<serve::FleetScanResult> expected;
};

ScanShapes
makeShapes(std::uint64_t workload_seed)
{
    ScanShapes shapes;
    for (std::size_t i = 0; i < kScanShapes; ++i) {
        shapes.requests.push_back(scanRequest(
            0, util::Rng(workload_seed).split("perfbench-serve").split(i)() %
                   1000000000ULL));
    }
    shapes.expected.resize(kScanShapes);
    return shapes;
}

/**
 * One in-process pass over the scan shapes. The first pass records the
 * expected results; later passes must reproduce them. Traced runs also
 * replay each shape and check the replay against the engine.
 */
bool
enginePass(ScanShapes &shapes, std::size_t pass, util::ThreadPool &pool,
           CampaignStats &stats, Report &report, Tracer *tracer,
           LayerStats &layers, const std::string &probe_path)
{
    for (std::size_t i = 0; i < shapes.requests.size(); ++i) {
        serve::FleetScanConfig config = engineConfig(shapes.requests[i]);
        config.pool = &pool;
        CallTiming timing;
        util::Expected<serve::FleetScanResult> run = timedRun(config, &timing);
        if (!run.ok()) {
            report.check(false, "engine", run.error());
            return false;
        }
        stats.addCompleted(timing, run.value(), config.fleet, pass == 0);
        if (pass == 0) {
            shapes.expected[i] = run.value();
            report.digest = fnv1a(report.digest,
                                  serve::encodeFleetScanResult(0, run.value()));
        } else {
            report.check(sameResult(run.value(), shapes.expected[i]),
                         "engine-repeatable",
                         "in-process scan differs between passes");
        }
        if (tracer != nullptr) {
            layers.untraced_s.push_back(timing.wall_s);
            ReplayConfig rc;
            rc.fleet = config.fleet;
            rc.days = config.days;
            rc.seed = config.seed;
            rc.routes_per_tenant = config.routes_per_tenant;
            rc.max_measured = config.max_measured;
            rc.golden_compat = false;
            rc.pool = &pool;
            (void)tracedReplay(rc, *tracer, pass * kScanShapes + i, layers,
                               report, &run.value(),
                               "scan seed " + std::to_string(config.seed),
                               probe_path);
        }
    }
    return true;
}

/** What the four client lanes saw. */
struct LoadTally
{
    ClientTally ping;
    ClientTally scan;
};

/** One tracer per client lane, reused across load slices. */
std::vector<Tracer *>
laneTracers(std::vector<std::unique_ptr<Tracer>> &tracers,
            Clock::time_point epoch)
{
    std::vector<Tracer *> lanes;
    for (std::uint32_t i = 0; i < kLanes; ++i) {
        tracers.push_back(
            std::make_unique<Tracer>(i + 1, epoch, kMaxTraceRecords / 4));
        lanes.push_back(tracers.back().get());
    }
    return lanes;
}

/**
 * Open loop on a fixed schedule for `seconds`: two ping lanes (which
 * also open the throwaway malformed connections) and two scan lanes,
 * each on its own connection, added into `load`. `tracers` is empty
 * or has one tracer per lane.
 */
void
runLoad(const Args &args, double seconds, std::uint32_t slice,
        const ScanShapes &shapes, const std::vector<Tracer *> &tracers,
        LoadTally &load)
{
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(50);
    std::vector<ServeLoad> lanes(kLanes);
    for (std::uint32_t i = 0; i < lanes.size(); ++i) {
        ServeLoad &lane = lanes[i];
        lane.port = static_cast<std::uint16_t>(args.port);
        lane.t0 = t0;
        lane.seconds = seconds;
        lane.lane = i + 1;
        lane.slice = slice;
        lane.scans = i >= 2;
        const double rate =
            (lane.scans ? args.scan_rate : args.ping_rate) / 2.0;
        lane.period_s = 1.0 / rate;
        lane.phase_s = (i % 2 == 0 ? 0.0 : 0.5) * lane.period_s;
        lane.malformed_every = args.malformed_every;
        lane.shapes = &shapes.requests;
        lane.expected = &shapes.expected;
    }
    std::vector<ClientTally> tallies(lanes.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        threads.emplace_back(clientLoop, std::cref(lanes[i]),
                             std::ref(tallies[i]),
                             tracers.empty() ? nullptr : tracers[i]);
    }
    for (std::thread &t : threads) {
        t.join();
    }
    for (std::size_t i = 0; i < tallies.size(); ++i) {
        (lanes[i].scans ? load.scan : load.ping).merge(tallies[i]);
    }
}

/** Every shed, deadline miss, error and wrong answer is a failure. */
void
countLoad(const LoadTally &load, Report &report)
{
    const ClientTally &ping = load.ping;
    const ClientTally &scan = load.scan;
    const std::uint64_t attempted =
        ping.attempted + scan.attempted + ping.malformed_attempted;
    const std::uint64_t failed =
        ping.shed + ping.deadline + ping.error + ping.wrong + scan.shed +
        scan.deadline + scan.error + scan.wrong +
        (ping.malformed_attempted - ping.malformed_rejected);
    report.attempted += attempted;
    report.failed_ops += failed;
    report.check(failed == 0, "serve-requests",
                 std::to_string(failed) + " of " + std::to_string(attempted) +
                     " requests failed; first: " + ping.first_problem +
                     scan.first_problem);
}

std::vector<double>
lateMs(const LoadTally &load)
{
    std::vector<double> late = load.ping.late_ms;
    late.insert(late.end(), load.scan.late_ms.begin(), load.scan.late_ms.end());
    return late;
}

void
emitServeLayer(const LoadTally &load, double engine_s, Report &report)
{
    const ClientTally &ping = load.ping;
    const ClientTally &scan = load.scan;
    report.layer["serve.ping_call_ms"] = median(ping.call_ms);
    report.layer["serve.scan_call_ms"] = median(scan.call_ms);
    report.layer["serve.scan_engine_ms"] = 1000.0 * engine_s;
    report.layer["serve.shed"] = static_cast<double>(ping.shed + scan.shed);
    report.layer["serve.deadline"] =
        static_cast<double>(ping.deadline + scan.deadline);
    report.layer["serve.error"] = static_cast<double>(
        ping.error + scan.error + ping.wrong + scan.wrong);
    report.layer["serve.malformed_rejected"] =
        static_cast<double>(ping.malformed_rejected);
    report.layer["serve.gen_late_ms"] = percentile(lateMs(load), 0.99);
}

void
runServe(const Args &args, Report &report, Tracer *tracer,
         LayerStats &layers, std::vector<std::unique_ptr<Tracer>> &tracers,
         Clock::time_point epoch)
{
    if (args.port <= 0) {
        report.check(false, "serve", "serve-mixed needs --port");
        return;
    }
    // The host's speed drifts over seconds, so the run alternates short
    // in-process engine phases (the served shapes, run by the library
    // directly) with open-loop load phases: both sides then sample the
    // whole run, and neither contends with the other.
    ScanShapes shapes = makeShapes(args.seed);
    const std::vector<Tracer *> lane_tracers =
        tracer != nullptr ? laneTracers(tracers, epoch)
                          : std::vector<Tracer *>{};
    const int slices =
        std::max(1, static_cast<int>(std::lround(args.seconds / kSliceSeconds)));
    const double slice_s = args.seconds / slices;
    // The same simulation lanes the server gives each request.
    util::ThreadPool pool(static_cast<std::size_t>(args.lanes - 1));
    CampaignStats stats;
    LoadTally load;
    std::size_t pass = 0;
    for (int k = 0; k < slices; ++k) {
        const Clock::time_point start = Clock::now();
        do {
            if (!enginePass(shapes, pass++, pool, stats, report, tracer,
                            layers, probePath(args))) {
                return;
            }
        } while (secondsBetween(start, Clock::now()) <
                 kEngineShare * slice_s);
        runLoad(args, slice_s - secondsBetween(start, Clock::now()),
                static_cast<std::uint32_t>(k), shapes, lane_tracers, load);
    }
    stats.emit(report);
    // Here a campaign is what the server runs for one FleetScan request:
    // the call from send to RESULT, without the wait before sending.
    report.named["engine_s"] = report.named["campaign_s"];
    report.named["campaign_s"] = median(load.scan.call_ms) / 1000.0;
    report.named["req_ping_ms_p50"] = percentile(load.ping.latency_ms, 0.50);
    report.named["req_ping_ms_p99"] = percentile(load.ping.latency_ms, 0.99);
    report.named["req_scan_ms_p50"] = percentile(load.scan.latency_ms, 0.50);
    report.named["req_scan_ms_p95"] = percentile(load.scan.latency_ms, 0.95);
    report.named["key_op_ms_p50"] = report.named["req_scan_ms_p50"];
    report.named["key_op_ms_p90"] = percentile(load.scan.latency_ms, 0.90);
    report.named["n_ping"] = static_cast<double>(load.ping.latency_ms.size());
    report.named["n_scan"] = static_cast<double>(load.scan.latency_ms.size());
    report.named["gen_late_ms_p99"] = percentile(lateMs(load), 0.99);
    countLoad(load, report);
    report.check(load.ping.latency_ms.size() >= 1000 &&
                     load.scan.latency_ms.size() >= 200,
                 "serve-samples",
                 "too few requests for the reported percentiles");
    if (tracer != nullptr) {
        emitServeLayer(load, report.named["engine_s"], report);
        for (Tracer *t : lane_tracers) {
            layers.all.add(t->takeTotals());
        }
    }
}

/**
 * Traced runs of the campaign workloads put a short load on an idle
 * server too, so the serve layer's per-call figures exist on every
 * workload: unloaded here, under open-loop load on serve-mixed.
 */
void
serveProbe(const Args &args, Report &report,
           std::vector<std::unique_ptr<Tracer>> &tracers,
           Clock::time_point epoch)
{
    ScanShapes shapes = makeShapes(args.seed);
    util::ThreadPool pool(static_cast<std::size_t>(args.lanes - 1));
    CampaignStats stats;
    LayerStats untraced;
    if (!enginePass(shapes, 0, pool, stats, report, nullptr, untraced, "")) {
        return;
    }
    LoadTally load;
    runLoad(args, kServeProbeSeconds, 0, shapes, laneTracers(tracers, epoch),
            load);
    countLoad(load, report);
    emitServeLayer(load, median(stats.wall_s), report);
}


// ------------------------------------------------------------- output

void
printJsonObject(const char *key, const std::map<std::string, double> &m,
                bool comma)
{
    std::printf("\"%s\":{", key);
    bool first = true;
    for (const auto &[name, value] : m) {
        std::printf("%s\"%s\":%.10g", first ? "" : ",", name.c_str(), value);
        first = false;
    }
    std::printf("}%s", comma ? "," : "");
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

bool
parseArgs(int argc, char **argv, Args *args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "perfbench_driver: %s needs a value\n",
                         flag.c_str());
            return false;
        }
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args->workload = value;
        } else if (flag == "--seed") {
            args->seed = std::stoull(value);
        } else if (flag == "--seconds") {
            args->seconds = std::stod(value);
        } else if (flag == "--trace") {
            args->trace = value == "1";
        } else if (flag == "--lanes") {
            args->lanes = std::max(1, std::stoi(value));
        } else if (flag == "--golden") {
            args->golden = value;
        } else if (flag == "--work-dir") {
            args->work_dir = value;
        } else if (flag == "--port") {
            args->port = std::stoi(value);
        } else if (flag == "--ping-rate") {
            args->ping_rate = std::stod(value);
        } else if (flag == "--scan-rate") {
            args->scan_rate = std::stod(value);
        } else if (flag == "--malformed-every") {
            args->malformed_every = std::stoi(value);
        } else {
            std::fprintf(stderr, "perfbench_driver: unknown flag %s\n",
                         flag.c_str());
            return false;
        }
    }
    return !args->workload.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        if (!parseArgs(argc, argv, &args)) {
            std::fprintf(stderr, "usage: perfbench_driver --workload W "
                                 "--seed N --seconds S --trace 0|1 ...\n");
            return 2;
        }
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench_driver: bad argument: %s\n",
                     error.what());
        return 2;
    }

    const Clock::time_point epoch = Clock::now();
    std::vector<std::unique_ptr<Tracer>> tracers;
    Tracer *tracer = nullptr;
    if (args.trace) {
        tracers.push_back(std::make_unique<Tracer>(0, epoch, kMaxTraceRecords));
        tracer = tracers.front().get();
    }
    Report report;
    LayerStats layers;
    try {
        if (args.workload == "campaign-112") {
            runCampaigns(args, 112, report, tracer, layers);
        } else if (args.workload == "fleet-100k") {
            runCampaigns(args, 100000, report, tracer, layers);
        } else if (args.workload == "checkpoint-112") {
            runCheckpoint(args, report, tracer, layers);
        } else if (args.workload == "serve-mixed") {
            runServe(args, report, tracer, layers, tracers, epoch);
        } else {
            std::fprintf(stderr, "perfbench_driver: unknown workload %s\n",
                         args.workload.c_str());
            return 2;
        }
        if (tracer != nullptr && args.workload != "serve-mixed") {
            if (args.port > 0) {
                serveProbe(args, report, tracers, epoch);
            } else {
                report.check(false, "serve-probe",
                             "traced runs need --port for the serve probe");
            }
        }
    } catch (const std::exception &error) {
        report.check(false, "exception", error.what());
        ++report.failed_ops;
    }
    report.named["peak_rss_mb"] = peakRssMb();
    if (tracer != nullptr) {
        layers.emit(report);
        std::vector<const Tracer *> all;
        for (const std::unique_ptr<Tracer> &t : tracers) {
            all.push_back(t.get());
        }
        fs::create_directories(args.work_dir);
        const std::string path =
            (fs::path(args.work_dir) / (args.workload + ".trace.json"))
                .string();
        report.check(writeChromeTrace(path, all), "trace-file",
                     "cannot write " + path);
        removeCheckpoint(probePath(args));
    }

    std::printf("{\"workload\":\"%s\",", args.workload.c_str());
    printJsonObject("named", report.named, true);
    printJsonObject("per_layer", report.layer, true);
    std::printf("\"checks\":%zu,\"failures\":[", report.checks);
    for (std::size_t i = 0; i < report.failures.size(); ++i) {
        std::printf("%s[\"%s\",\"%s\"]", i == 0 ? "" : ",",
                    jsonEscape(report.failures[i].first).c_str(),
                    jsonEscape(report.failures[i].second).c_str());
    }
    std::printf("],\"attempted\":%llu,\"failed\":%llu,\"digest\":\"%016llx\",",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed_ops),
                static_cast<unsigned long long>(report.digest));
    std::printf("\"self_time\":\"%s\",", jsonEscape(report.self_time).c_str());
    std::printf("\"host\":{\"compiler\":\"%s\",\"build_type\":\"%s\","
                "\"scan_lanes\":%d}}\n",
                jsonEscape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
                args.lanes);
    return report.failures.empty() ? 0 : 1;
}
