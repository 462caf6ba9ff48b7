/**
 * @file
 * Fleet-scale persistence campaign (the workload PR 3 unlocks).
 *
 * A marketplace region of 112 boards runs a simulated year of
 * interleaved tenancies: tenants rent boards, burn their secrets for
 * days at a time, release; the pool idles, is re-rented, idles again.
 * At the end a TM2 attacker flash-acquires a handful of recently
 * released boards (≤ 8) and runs the paper's park-and-watch recovery
 * attack against whatever the last tenant left behind — the
 * persistence scan across rented boards that "Security Risks Due to
 * Data Persistence in Cloud FPGA Platforms" (Zhang et al.) performs
 * on real hardware.
 *
 * The campaign engine itself lives in serve/campaign (shared with the
 * campaign server); this binary is the CLI. It runs serve::runFleetScan
 * in-process in golden-compat mode — the exact historical draw
 * sequence this bench has always produced, locked by the committed
 * golden CSV. `--workers N` widens the scan phase's pool without
 * changing a byte of output.
 *
 * Crash-safe checkpointing: `--checkpoint-every N` writes a rotating
 * two-generation snapshot every N simulated days; `--resume` continues
 * from the latest good generation; `--halt-at-day D` exits cleanly
 * after day D (the kill half of the CI kill-and-resume stress).
 * SIGINT/SIGTERM flush a final checkpoint at the next day boundary and
 * exit 128+sig. A util/fault schedule in PENTIMENTO_FAULTS (e.g.
 * `seed=7;snapshot.commit.enospc:p=0.5,max=4`) injects failures into
 * those checkpoint commits; a failed commit is reported and the
 * campaign continues without it.
 *
 * `--fleet N` and `--years Y` rescale the region and the simulated
 * horizon so the scaling claims are reproducible at other sizes;
 * `--seed S` re-rolls the tenancy/ambient sample paths. The recovery
 * rate is a high-variance statistic at these deliberately marginal
 * conditions (service-aged silicon, short tenancies, 25 h of
 * observation): across nearby seeds it spans roughly 50-85%, and the
 * default seed is chosen to sit near the middle of that range.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/campaign.hpp"
#include "util/expected.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"

using namespace pentimento;

namespace {

constexpr std::size_t kDefaultFleet = 112;
constexpr int kDefaultYears = 1;
constexpr std::uint64_t kDefaultSeed = 90902;
constexpr std::size_t kRoutesPerTenant = 8;
constexpr std::size_t kMaxMeasured = 8;
constexpr const char *kDefaultCheckpointPath = "fleet_campaign.ckpt";

/**
 * Last delivery-requested signal, observed by the day loop. SIGINT or
 * SIGTERM does not abandon the campaign: the loop finishes the current
 * day, writes a final checkpoint, and exits 128+sig — an interrupted
 * campaign is ALWAYS `--resume`-able.
 */
std::atomic<int> g_signal{0};

void
onSignal(int sig)
{
    g_signal.store(sig, std::memory_order_relaxed);
}

/** Day-boundary hook: cancels the engine once a signal is pending. */
class SignalObserver final : public core::SweepObserver
{
  public:
    explicit SignalObserver(int days) : days_(days) {}

    bool
    onSweep(std::size_t day, double, const double *,
            std::size_t) override
    {
        last_day_ = static_cast<int>(day);
        sig_ = g_signal.load(std::memory_order_relaxed);
        return sig_ == 0 || last_day_ >= days_;
    }

    int lastDay() const { return last_day_; }
    int signalNumber() const { return sig_; }

  private:
    int days_ = 0;
    int last_day_ = 0;
    int sig_ = 0;
};

// --------------------------------------------------- CLI validation

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: fleet_campaign [options]\n"
        "  --fleet N             boards in the region (default %zu)\n"
        "  --years N             simulated years (default %d)\n"
        "  --seed S              campaign seed (default %llu)\n"
        "  --workers N           parallel lanes for the scan phase\n"
        "  --csv PATH            write per-board attack scores as CSV\n"
        "  --checkpoint-every N  checkpoint every N simulated days\n"
        "  --checkpoint-path P   checkpoint file (default %s)\n"
        "  --resume              continue from the latest good "
        "checkpoint\n"
        "  --halt-at-day D       exit cleanly after day D (pairs with "
        "--resume)\n"
        "  --day-sleep-ms N      throttle each simulated day (signal "
        "tests)\n"
        "  --bram                run the BRAM content-remanence "
        "channel too\n"
        "  --bram-scrub P        provider scrub policy: none | "
        "release | rent\n"
        "environment:\n"
        "  PENTIMENTO_FAULTS     util/fault schedule to arm, e.g. "
        "'seed=7;snapshot.commit.enospc:p=0.5'\n",
        kDefaultFleet, kDefaultYears,
        static_cast<unsigned long long>(kDefaultSeed),
        kDefaultCheckpointPath);
}

/**
 * Whitelist scan: every argument must be a known flag, with its value
 * present when one is required. Anything else is a usage error — a
 * typoed scaling flag silently ignored would misattribute numbers.
 */
bool
argsAreKnown(int argc, char **argv)
{
    static const char *kValueFlags[] = {
        "--fleet",   "--years", "--seed",
        "--workers", "--csv",   "--checkpoint-every",
        "--checkpoint-path",    "--halt-at-day",
        "--day-sleep-ms",       "--bram-scrub"};
    static const char *kBareFlags[] = {"--resume", "--bram"};
    for (int i = 1; i < argc; ++i) {
        bool known = false;
        for (const char *flag : kValueFlags) {
            if (std::strcmp(argv[i], flag) == 0) {
                if (i + 1 >= argc) {
                    std::fprintf(stderr,
                                 "fleet_campaign: missing value for "
                                 "%s\n",
                                 flag);
                    return false;
                }
                ++i;
                known = true;
                break;
            }
        }
        for (const char *flag : kBareFlags) {
            if (!known && std::strcmp(argv[i], flag) == 0) {
                known = true;
                break;
            }
        }
        if (!known) {
            std::fprintf(stderr, "fleet_campaign: unknown flag '%s'\n",
                         argv[i]);
            return false;
        }
    }
    return true;
}

const char *
parseStringFlag(int argc, char **argv, const char *flag,
                const char *fallback)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) {
            return argv[i + 1];
        }
    }
    return fallback;
}

// ------------------------------------------------------------ report

/**
 * BRAM-channel report, stdout only: the CSV grid keeps its historical
 * aging-channel columns so the committed golden stays byte-exact even
 * under --bram.
 */
void
printBramSummary(const serve::FleetScanResult &result)
{
    std::printf("\n  BRAM channel          %zu provider scrubs\n",
                static_cast<std::size_t>(result.bram_scrub_ops));
    std::printf("  %-12s %8s %10s %8s %8s %9s\n", "board", "blocks",
                "recovered", "decayed", "zeroed", "teardown");
    std::size_t blocks = 0;
    std::size_t recovered = 0;
    for (const serve::FleetScanBramScore &s : result.bram_boards) {
        std::printf("  %-12s %8zu %10zu %8zu %8zu %9s\n",
                    s.board.c_str(),
                    static_cast<std::size_t>(s.blocks),
                    static_cast<std::size_t>(s.recovered),
                    static_cast<std::size_t>(s.decayed),
                    static_cast<std::size_t>(s.zeroed),
                    s.unclean ? "unclean" : "clean");
        blocks += s.blocks;
        recovered += s.recovered;
    }
    if (blocks > 0) {
        std::printf("  %-12s %8zu %9.1f%%\n", "overall", blocks,
                    100.0 * static_cast<double>(recovered) /
                        static_cast<double>(blocks));
    }
}

void
printSummary(const serve::FleetScanResult &result, std::size_t fleet,
             double wall_s, int argc, char **argv)
{
    std::printf("  fleet                 %zu boards\n", fleet);
    std::printf("  simulated             %.0f h (%.1f board-years)\n",
                result.simulated_h,
                result.simulated_h * static_cast<double>(fleet) /
                    8760.0);
    std::printf("  tenancies             %zu\n",
                static_cast<std::size_t>(result.tenancies));
    std::printf("  boards measured       %zu (+%zu virgin skipped)\n\n",
                result.boards.size(),
                static_cast<std::size_t>(result.skipped));

    std::printf("  %-12s %8s %10s\n", "board", "bits", "recovered");
    std::size_t bits = 0;
    std::size_t correct = 0;
    std::vector<std::vector<std::string>> rows;
    for (const serve::FleetScanBoardScore &s : result.boards) {
        std::printf("  %-12s %8zu %9.1f%%\n", s.board.c_str(),
                    static_cast<std::size_t>(s.bits),
                    100.0 * s.accuracy);
        bits += s.bits;
        correct += s.correct;
        rows.push_back({s.board, std::to_string(s.bits),
                        std::to_string(s.correct),
                        std::to_string(s.accuracy)});
    }
    if (bits > 0) {
        std::printf("  %-12s %8zu %9.1f%%\n", "overall", bits,
                    100.0 * static_cast<double>(correct) /
                        static_cast<double>(bits));
    }
    if (!result.bram_boards.empty()) {
        printBramSummary(result);
    }
    std::printf("\n  wall clock            %.2f s (%.0f simulated "
                "board-hours per ms)\n",
                wall_s,
                result.simulated_h * static_cast<double>(fleet) /
                    (1000.0 * wall_s));
    bench::dumpGridCsv(argc, argv,
                       {"board", "bits", "correct", "accuracy"}, rows);
}

} // namespace

int
main(int argc, char **argv)
{
    if (!argsAreKnown(argc, argv)) {
        printUsage(stderr);
        return 2;
    }
    std::size_t kFleet = 0;
    int kDays = 0;
    std::uint64_t seed = 0;
    long checkpoint_every = 0;
    long halt_at_day = 0;
    long day_sleep_ms = 0;
    std::string checkpoint_path;
    try {
        kFleet = static_cast<std::size_t>(
            bench::parseLongFlag(argc, argv, "--fleet", kDefaultFleet));
        kDays = 365 * static_cast<int>(bench::parseLongFlag(
                          argc, argv, "--years", kDefaultYears));
        // Seed 0 is a legal Rng seed, so the floor is 0 here.
        seed = static_cast<std::uint64_t>(bench::parseLongFlag(
            argc, argv, "--seed", static_cast<long>(kDefaultSeed), 0));
        checkpoint_every =
            bench::parseLongFlag(argc, argv, "--checkpoint-every", 0);
        halt_at_day =
            bench::parseLongFlag(argc, argv, "--halt-at-day", 0);
        day_sleep_ms =
            bench::parseLongFlag(argc, argv, "--day-sleep-ms", 0, 0);
        checkpoint_path = parseStringFlag(
            argc, argv, "--checkpoint-path", kDefaultCheckpointPath);
    } catch (const util::FatalError &error) {
        std::fprintf(stderr, "fleet_campaign: %s\n", error.what());
        printUsage(stderr);
        return 2;
    }
    const bool resume = bench::hasFlag(argc, argv, "--resume");
    const bool bram = bench::hasFlag(argc, argv, "--bram");
    const std::string bram_scrub_name =
        parseStringFlag(argc, argv, "--bram-scrub", "none");
    cloud::BramScrubPolicy bram_scrub = cloud::BramScrubPolicy::None;
    if (bram_scrub_name == "release") {
        bram_scrub = cloud::BramScrubPolicy::ZeroOnRelease;
    } else if (bram_scrub_name == "rent") {
        bram_scrub = cloud::BramScrubPolicy::ZeroOnRent;
    } else if (bram_scrub_name != "none") {
        std::fprintf(stderr,
                     "fleet_campaign: unknown --bram-scrub policy "
                     "'%s'\n",
                     bram_scrub_name.c_str());
        printUsage(stderr);
        return 2;
    }
    const util::Expected<void> armed = util::fault::armFromEnv();
    if (!armed.ok()) {
        std::fprintf(stderr, "fleet_campaign: %s\n",
                     armed.error().c_str());
        return 1;
    }

    std::printf("=== Fleet campaign: %zu boards, %d simulated days, "
                "TM2 scan of <= %zu boards ===\n\n",
                kFleet, kDays, kMaxMeasured);
    const auto wall_start = std::chrono::steady_clock::now();

    serve::FleetScanConfig config;
    config.fleet = kFleet;
    config.days = kDays;
    config.seed = seed;
    config.routes_per_tenant = kRoutesPerTenant;
    config.max_measured = kMaxMeasured;
    config.checkpoint_every_days = static_cast<int>(checkpoint_every);
    config.checkpoint_path = checkpoint_path;
    config.throttle_ms_per_day =
        static_cast<std::uint32_t>(day_sleep_ms);
    // --resume is a promise, not a hint: if both generations are bad,
    // fail rather than silently redo the year.
    config.resume = resume ? serve::ResumeMode::Require
                           : serve::ResumeMode::Never;
    // This bench's historical draw sequence (fixed driver stream,
    // "tenant_" naming) is locked by the committed golden CSV.
    config.golden_compat = true;
    config.bram_channel = bram;
    config.bram_scrub = bram_scrub;
    config.halt_at_day = static_cast<int>(halt_at_day);
    const auto pool = bench::makePool(argc, argv);
    config.pool = pool.get();
    SignalObserver observer(kDays);
    config.observer = &observer;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    serve::FleetScanResult result;
    try {
        util::Expected<serve::FleetScanResult> run =
            serve::runFleetScan(config);
        if (!run.ok()) {
            std::fprintf(stderr, "fleet_campaign: %s\n",
                         run.error().c_str());
            return 1;
        }
        result = std::move(run.value());
    } catch (const util::CancelledError &) {
        std::fprintf(stderr,
                     "fleet_campaign: signal %d after day %d; "
                     "checkpoint written to %s (resume with "
                     "--resume)\n",
                     observer.signalNumber(), observer.lastDay(),
                     checkpoint_path.c_str());
        return 128 + observer.signalNumber();
    }
    if (!result.resumed_from.empty()) {
        std::printf("  resumed from %s at day %d (%zu finished, "
                    "%zu active tenancies)\n\n",
                    result.resumed_from.c_str(), result.resumed_day,
                    static_cast<std::size_t>(result.resumed_finished),
                    static_cast<std::size_t>(result.resumed_active));
    }
    if (result.halted_after_day > 0) {
        std::printf("  halted after day %d; checkpoint written to %s "
                    "(resume with --resume)\n",
                    result.halted_after_day, checkpoint_path.c_str());
        return 0;
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    printSummary(result, kFleet, wall_s, argc, argv);
    return 0;
}
