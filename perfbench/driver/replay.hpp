/**
 * @file
 * Traced replay of serve::runFleetScan through the layers' public API.
 *
 * The replay walks the same campaign loop as the engine — daily
 * rent/allocate/load/release ticks, rotating checkpoints, halt and
 * resume, then the TM2 park-and-watch scan — but calls each layer's
 * public function itself, inside a span. It makes the same calls in
 * the same order with the same draws, so its per-board scores equal
 * the engine's for the same config; the benchmark checks that on every
 * traced campaign, which is what makes the per-layer times a breakdown
 * of the program being measured rather than of a look-alike.
 */

#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "serve/protocol.hpp"
#include "trace.hpp"
#include "util/expected.hpp"
#include "util/parallel.hpp"

namespace pentimento::cloud {
class CloudPlatform;
}

namespace perfbench {

namespace serve = pentimento::serve;
namespace util = pentimento::util;

/** The FleetScanConfig subset the benchmark's workloads use. */
struct ReplayConfig
{
    std::size_t fleet = 112;
    int days = 365;
    std::uint64_t seed = 90902;
    std::size_t routes_per_tenant = 8;
    std::size_t max_measured = 8;
    bool golden_compat = true;
    int checkpoint_every_days = 0;
    std::string checkpoint_path;
    /** Checkpoint and return after this completed day (0 = run out). */
    int halt_at_day = 0;
    /** Restore from checkpoint_path (or its .prev) instead of building. */
    bool resume = false;
    util::ThreadPool *pool = nullptr;
};

struct ReplayOutcome
{
    serve::FleetScanResult result;
    /** Work counts summed over every board at the end of the run. */
    std::uint64_t materialized = 0;
    std::uint64_t journaled = 0;
    std::uint64_t epochs = 0;
    /** Checkpoint images committed, and their summed size. */
    std::uint64_t commits = 0;
    std::uint64_t snapshot_bytes = 0;
    /** Wall time of the campaign itself, without the count readout. */
    double wall_s = 0.0;
    /** The platform as the campaign left it. */
    std::shared_ptr<pentimento::cloud::CloudPlatform> platform;
};

/** Run (or resume) one traced campaign. */
util::Expected<ReplayOutcome> replayFleetScan(
    const ReplayConfig &config, Tracer &tracer);

/**
 * One traced snapshot round trip of `platform`: encode, CRC, commit to
 * `path`, then open and restore into a fresh platform built from
 * `config`. Returns the image size.
 */
util::Expected<std::size_t> snapshotProbe(
    const ReplayConfig &config, const pentimento::cloud::CloudPlatform &platform,
    const std::string &path, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HPP
