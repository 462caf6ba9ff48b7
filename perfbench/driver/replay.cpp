#include "replay.hpp"

#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cloud/platform.hpp"
#include "core/classifier.hpp"
#include "core/delta_series.hpp"
#include "core/experiment.hpp"
#include "fabric/design.hpp"
#include "tdc/measure_design.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"

namespace perfbench {

namespace cloud = pentimento::cloud;
namespace core = pentimento::core;
namespace fabric = pentimento::fabric;
namespace tdc = pentimento::tdc;

namespace {

// The engine's constants (serve/campaign.cpp): target route delay and
// the length of the park-and-watch observation.
constexpr double kRouteTargetPs = 2000.0;
constexpr double kRecoveryHours = 25.0;
/** The engine's fixed golden-compat driver stream seed. */
constexpr std::uint64_t kGoldenDriverSeed = 424261;

constexpr std::uint32_t kCfgTag = util::snapshotTag('P', 'B', 'C', '!');
constexpr std::uint32_t kCmpTag = util::snapshotTag('P', 'B', 'M', '!');

struct Tenancy
{
    std::string board;
    std::vector<fabric::RouteSpec> specs;
    std::vector<bool> bits;
    double released_at_h = 0.0;
};

struct Active
{
    std::string board;
    double ends_at_h = 0.0;
    int start_day = 0;
    Tenancy record;
};

struct State
{
    std::shared_ptr<cloud::CloudPlatform> platform;
    util::Rng rng{kGoldenDriverSeed};
    std::vector<Active> active;
    std::vector<Tenancy> finished;
    int next_day = 0;
};

cloud::PlatformConfig
platformConfig(const ReplayConfig &config)
{
    cloud::PlatformConfig pc;
    pc.fleet_size = config.fleet;
    pc.region = "fleet-sim";
    pc.policy = cloud::AllocationPolicy::MostRecentlyReleased;
    pc.seed = config.seed;
    return pc;
}

std::shared_ptr<fabric::TargetDesign>
tenantDesign(Tracer &tracer, const Tenancy &tenancy, int start_day,
             bool golden)
{
    ScopedSpan span(&tracer, Op::TenantDesign);
    fabric::ArithmeticHeavyConfig arith;
    arith.dsp_count = 128;
    return std::make_shared<fabric::TargetDesign>(
        (golden ? "tenant_" : "srv_tenant_") + tenancy.board + "_d" +
            std::to_string(start_day),
        tenancy.specs, tenancy.bits, arith);
}

bool
load(Tracer &tracer, cloud::CloudPlatform &platform,
     const std::string &board, std::shared_ptr<fabric::Design> design)
{
    ScopedSpan span(&tracer, Op::LoadDesign);
    return platform.loadDesign(board, std::move(design)).empty();
}

void
advance(Tracer &tracer, cloud::CloudPlatform &platform, double hours)
{
    ScopedSpan span(&tracer, Op::Advance);
    platform.advanceHours(hours);
}

void
release(Tracer &tracer, cloud::CloudPlatform &platform,
        const std::string &board)
{
    ScopedSpan span(&tracer, Op::Release);
    platform.release(board);
}

std::optional<std::string>
rent(Tracer &tracer, cloud::CloudPlatform &platform)
{
    ScopedSpan span(&tracer, Op::Rent);
    return platform.rent();
}

void
writeTenancy(util::SnapshotWriter &w, const Tenancy &t)
{
    w.str(t.board);
    w.u64(t.specs.size());
    for (const fabric::RouteSpec &spec : t.specs) {
        w.str(spec.name);
        w.f64(spec.target_ps);
        w.u64(spec.elements.size());
        for (const fabric::ResourceId &id : spec.elements) {
            w.u64(id.key());
        }
    }
    w.u64(t.bits.size());
    for (const bool bit : t.bits) {
        w.u8(bit ? 1 : 0);
    }
    w.f64(t.released_at_h);
}

void
readTenancy(util::SnapshotReader &r, Tenancy *t)
{
    t->board = r.str();
    const std::uint64_t specs = r.u64();
    for (std::uint64_t s = 0; s < specs && r.ok(); ++s) {
        fabric::RouteSpec spec;
        spec.name = r.str();
        spec.target_ps = r.f64();
        const std::uint64_t elems = r.u64();
        for (std::uint64_t e = 0; e < elems && r.ok(); ++e) {
            spec.elements.push_back(fabric::ResourceId::fromKey(r.u64()));
        }
        t->specs.push_back(std::move(spec));
    }
    const std::uint64_t bits = r.u64();
    for (std::uint64_t b = 0; b < bits && r.ok(); ++b) {
        t->bits.push_back(r.u8() != 0);
    }
    t->released_at_h = r.f64();
}

/** One rotating checkpoint: encode, CRC the image, commit. */
util::Expected<std::size_t>
checkpoint(Tracer &tracer, const State &state, const ReplayConfig &config)
{
    ScopedSpan span(&tracer, Op::Checkpoint);
    util::SnapshotWriter writer;
    const std::vector<std::uint8_t> *image = nullptr;
    {
        ScopedSpan encode(&tracer, Op::Encode);
        writer.beginChunk(kCfgTag);
        writer.u64(config.fleet);
        writer.u64(static_cast<std::uint64_t>(config.days));
        writer.u64(config.seed);
        writer.u64(config.routes_per_tenant);
        writer.u64(config.max_measured);
        writer.u8(config.golden_compat ? 1 : 0);
        writer.endChunk();
        state.platform->saveState(writer);
        writer.beginChunk(kCmpTag);
        writer.u64(static_cast<std::uint64_t>(state.next_day));
        const util::Rng::State rng = state.rng.state();
        for (const std::uint64_t word : rng.words) {
            writer.u64(word);
        }
        writer.f64(rng.cached);
        writer.u8(rng.have_cached ? 1 : 0);
        writer.u64(state.finished.size());
        for (const Tenancy &t : state.finished) {
            writeTenancy(writer, t);
        }
        writer.u64(state.active.size());
        for (const Active &a : state.active) {
            writer.f64(a.ends_at_h);
            writer.u64(static_cast<std::uint64_t>(a.start_day));
            writeTenancy(writer, a.record);
        }
        writer.endChunk();
        image = &writer.finish();
    }
    {
        // The engine's commit CRCs each chunk as it is written; this
        // span prices one pass of util::crc32c over the whole image.
        ScopedSpan crc(&tracer, Op::Crc);
        volatile std::uint32_t sink =
            util::crc32c(image->data(), image->size());
        (void)sink;
    }
    const std::size_t bytes = image->size();
    ScopedSpan commit(&tracer, Op::Commit);
    const util::Expected<void> committed =
        writer.commitRotating(config.checkpoint_path);
    if (!committed.ok()) {
        return util::unexpected(committed.error());
    }
    return bytes;
}

util::Expected<State>
restore(Tracer &tracer, const ReplayConfig &config)
{
    ScopedSpan span(&tracer, Op::Resume);
    std::optional<util::SnapshotReader> opened;
    {
        ScopedSpan open(&tracer, Op::OpenSnapshot);
        util::Expected<util::SnapshotReader> r =
            util::SnapshotReader::openWithFallback(config.checkpoint_path);
        if (!r.ok()) {
            return util::unexpected(r.error());
        }
        opened.emplace(std::move(r.value()));
    }
    util::SnapshotReader &reader = *opened;
    State state;
    {
        ScopedSpan ctor(&tracer, Op::PlatformCtor);
        state.platform =
            std::make_shared<cloud::CloudPlatform>(platformConfig(config));
    }
    std::vector<std::string> boards_with_design;
    {
        ScopedSpan rs(&tracer, Op::RestoreState);
        if (!reader.enterChunk(kCfgTag)) {
            return util::unexpected(reader.error());
        }
        const bool same = reader.u64() == config.fleet &&
                          reader.u64() ==
                              static_cast<std::uint64_t>(config.days) &&
                          reader.u64() == config.seed &&
                          reader.u64() == config.routes_per_tenant &&
                          reader.u64() == config.max_measured &&
                          (reader.u8() != 0) == config.golden_compat;
        if (!reader.leaveChunk() || !same) {
            return util::unexpected("checkpoint config skew");
        }
        const util::Expected<void> restored =
            state.platform->restoreState(reader, &boards_with_design);
        if (!restored.ok()) {
            return util::unexpected(restored.error());
        }
        if (!reader.enterChunk(kCmpTag)) {
            return util::unexpected(reader.error());
        }
        state.next_day = static_cast<int>(reader.u64());
        util::Rng::State rng;
        for (std::uint64_t &word : rng.words) {
            word = reader.u64();
        }
        rng.cached = reader.f64();
        rng.have_cached = reader.u8() != 0;
        state.rng.setState(rng);
        const std::uint64_t finished = reader.u64();
        for (std::uint64_t i = 0; i < finished && reader.ok(); ++i) {
            Tenancy t;
            readTenancy(reader, &t);
            state.finished.push_back(std::move(t));
        }
        const std::uint64_t active = reader.u64();
        for (std::uint64_t i = 0; i < active && reader.ok(); ++i) {
            Active a;
            a.ends_at_h = reader.f64();
            a.start_day = static_cast<int>(reader.u64());
            readTenancy(reader, &a.record);
            a.board = a.record.board;
            state.active.push_back(std::move(a));
        }
        if (!reader.leaveChunk() || !reader.expectEnd()) {
            return util::unexpected(reader.error());
        }
    }
    if (boards_with_design.size() != state.active.size()) {
        return util::unexpected("checkpoint: residency/ledger mismatch");
    }
    // Designs are code, not state: rebuild and re-load each active
    // tenant's design, as the engine does on resume.
    for (const Active &a : state.active) {
        if (!load(tracer, *state.platform, a.board,
                  tenantDesign(tracer, a.record, a.start_day,
                               config.golden_compat))) {
            return util::unexpected("reconstructed design failed DRC");
        }
    }
    return state;
}

serve::FleetScanBoardScore
attackBoard(Tracer &tracer, cloud::CloudPlatform &platform,
            const std::string &board, const Tenancy &tenancy,
            util::ThreadPool *pool)
{
    ScopedSpan span(&tracer, Op::Board);
    cloud::FpgaInstance &inst = platform.instance(board);
    fabric::Device &device = inst.device();
    device.setWorkPool(pool);

    tdc::TdcConfig sensor;
    sensor.fast_sampling = true;
    std::shared_ptr<tdc::MeasureDesign> measure;
    {
        ScopedSpan ctor(&tracer, Op::MeasureCtor);
        measure = std::make_shared<tdc::MeasureDesign>(device, tenancy.specs,
                                                       sensor);
    }
    load(tracer, platform, board, measure);
    {
        ScopedSpan cal(&tracer, Op::Calibrate);
        measure->calibrateAll(inst.dieTempK(), inst.rng(), pool);
    }
    auto park = std::make_shared<fabric::Design>("park0_" + board);
    for (const fabric::RouteSpec &spec : tenancy.specs) {
        park->setRouteValue(spec, false);
    }
    park->setPowerW(2.0);

    std::vector<core::DeltaSeries> series(tenancy.specs.size());
    const auto sweepNow = [&](double hour) {
        load(tracer, platform, board, measure);
        advance(tracer, platform, core::kMeasureSettleHours);
        tdc::MeasurementSweep sweep;
        {
            ScopedSpan ms(&tracer, Op::Measure);
            sweep = measure->measureAll(inst.dieTempK(), inst.rng(), pool);
        }
        for (std::size_t i = 0; i < series.size(); ++i) {
            series[i].addPoint(hour, sweep.per_route[i].deltaPs());
        }
    };
    double observed = 0.0;
    sweepNow(0.0);
    while (observed < kRecoveryHours - 1e-9) {
        load(tracer, platform, board, park);
        advance(tracer, platform, 1.0 - core::kMeasureSettleHours);
        observed += 1.0;
        sweepNow(observed);
    }

    core::ExperimentResult result;
    for (std::size_t i = 0; i < tenancy.specs.size(); ++i) {
        core::RouteRecord record;
        record.name = tenancy.specs[i].name;
        record.target_ps = tenancy.specs[i].target_ps;
        record.burn_value = tenancy.bits[i];
        record.series = series[i].centeredAtFirst();
        result.routes.push_back(std::move(record));
    }
    core::ClassificationReport report;
    {
        ScopedSpan cls(&tracer, Op::Classify);
        report = core::ThreatModel2Classifier().classify(result);
    }
    release(tracer, platform, board);
    device.setWorkPool(nullptr);
    serve::FleetScanBoardScore score;
    score.board = board;
    score.bits = report.bits.size();
    score.correct = report.correct;
    score.accuracy = report.accuracy;
    return score;
}

} // namespace

util::Expected<ReplayOutcome>
replayFleetScan(const ReplayConfig &config, Tracer &tracer)
{
    ReplayOutcome out;
    State state;
    std::set<std::string> touched;
    const Clock::time_point start = Clock::now();
    {
        ScopedSpan campaign(&tracer, Op::Campaign);
        if (config.resume) {
            util::Expected<State> restored = restore(tracer, config);
            if (!restored.ok()) {
                return util::unexpected("resume: " + restored.error());
            }
            state = std::move(restored.value());
        } else {
            ScopedSpan ctor(&tracer, Op::PlatformCtor);
            state.platform = std::make_shared<cloud::CloudPlatform>(
                platformConfig(config));
            if (!config.golden_compat) {
                state.rng = util::Rng(config.seed).split("serve_fleet_scan");
            }
        }
        cloud::CloudPlatform &platform = *state.platform;
        const bool checkpointing = !config.checkpoint_path.empty();

        for (int day = state.next_day; day < config.days; ++day) {
            ScopedSpan day_span(&tracer, Op::Day);
            const double now = platform.nowHours();
            for (std::size_t i = state.active.size(); i-- > 0;) {
                if (state.active[i].ends_at_h <= now) {
                    state.active[i].record.released_at_h = now;
                    release(tracer, platform, state.active[i].board);
                    state.finished.push_back(
                        std::move(state.active[i].record));
                    state.active.erase(state.active.begin() +
                                       static_cast<std::ptrdiff_t>(i));
                }
            }
            while (state.active.size() < config.fleet / 3 &&
                   state.rng.bernoulli(0.35)) {
                const std::optional<std::string> board =
                    rent(tracer, platform);
                if (!board) {
                    break;
                }
                fabric::Device &device = platform.instance(*board).device();
                Tenancy tenancy;
                tenancy.board = *board;
                for (std::size_t r = 0; r < config.routes_per_tenant; ++r) {
                    ScopedSpan alloc(&tracer, Op::AllocateRoute);
                    tenancy.specs.push_back(device.allocateRoute(
                        *board + "_d" + std::to_string(day) + "_r" +
                            std::to_string(r),
                        kRouteTargetPs));
                    tenancy.bits.push_back(state.rng.bernoulli(0.5));
                }
                if (!load(tracer, platform, *board,
                          tenantDesign(tracer, tenancy, day,
                                       config.golden_compat))) {
                    return util::unexpected("tenant design failed DRC");
                }
                const double duration_h =
                    24.0 * static_cast<double>(state.rng.uniformInt(2, 14));
                state.active.push_back(
                    Active{*board, now + duration_h, day, std::move(tenancy)});
            }
            advance(tracer, platform, 24.0);

            const int completed = day + 1;
            state.next_day = completed;
            const bool halting = config.halt_at_day > 0 &&
                                 completed >= config.halt_at_day &&
                                 completed < config.days;
            const bool periodic =
                checkpointing && config.checkpoint_every_days > 0 &&
                completed % config.checkpoint_every_days == 0 &&
                completed < config.days;
            if (periodic || (halting && checkpointing)) {
                const util::Expected<std::size_t> bytes =
                    checkpoint(tracer, state, config);
                if (!bytes.ok()) {
                    return util::unexpected(bytes.error());
                }
                ++out.commits;
                out.snapshot_bytes += bytes.value();
            }
            if (halting) {
                out.result.halted_after_day = completed;
                out.result.tenancies = state.finished.size();
                out.result.simulated_h = platform.nowHours();
                out.wall_s = std::chrono::duration<double>(Clock::now() -
                                                           start)
                                 .count();
                return out;
            }
        }

        ScopedSpan attack(&tracer, Op::Attack);
        for (Active &a : state.active) {
            a.record.released_at_h = platform.nowHours();
            release(tracer, platform, a.board);
            state.finished.push_back(std::move(a.record));
        }
        state.active.clear();
        out.result.tenancies = state.finished.size();
        out.result.simulated_h = platform.nowHours();

        std::vector<std::pair<std::string, const Tenancy *>> targets;
        std::vector<std::string> skipped;
        while (targets.size() < config.max_measured) {
            const std::optional<std::string> board = rent(tracer, platform);
            if (!board) {
                break;
            }
            const Tenancy *last = nullptr;
            for (const Tenancy &t : state.finished) {
                if (t.board == *board &&
                    (last == nullptr ||
                     t.released_at_h > last->released_at_h)) {
                    last = &t;
                }
            }
            if (last == nullptr) {
                skipped.push_back(*board);
                continue;
            }
            targets.emplace_back(*board, last);
        }
        out.result.skipped = skipped.size();
        for (const auto &[board, tenancy] : targets) {
            out.result.boards.push_back(
                attackBoard(tracer, platform, board, *tenancy, config.pool));
        }
        for (const std::string &board : skipped) {
            release(tracer, platform, board);
            touched.insert(board);
        }
        for (const Tenancy &t : state.finished) {
            touched.insert(t.board);
        }
    }
    out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    // Work counts are read after the campaign span closes. Reading a
    // board flushes its deferred idle backlog, so only the boards the
    // campaign rented are read; a board never rented holds no design
    // state to count.
    for (const std::string &id : touched) {
        const fabric::Device &device = state.platform->instance(id).device();
        out.materialized += device.materializedCount();
        out.journaled += device.journaledKeyCount();
        out.epochs += device.stateEpoch();
    }
    out.platform = state.platform;
    return out;
}

util::Expected<std::size_t>
snapshotProbe(const ReplayConfig &config, const cloud::CloudPlatform &platform,
              const std::string &path, Tracer &tracer)
{
    ScopedSpan span(&tracer, Op::Checkpoint);
    util::SnapshotWriter writer;
    const std::vector<std::uint8_t> *image = nullptr;
    {
        ScopedSpan encode(&tracer, Op::Encode);
        platform.saveState(writer);
        image = &writer.finish();
    }
    {
        ScopedSpan crc(&tracer, Op::Crc);
        volatile std::uint32_t sink =
            util::crc32c(image->data(), image->size());
        (void)sink;
    }
    const std::size_t bytes = image->size();
    {
        ScopedSpan commit(&tracer, Op::Commit);
        const util::Expected<void> committed = writer.commitRotating(path);
        if (!committed.ok()) {
            return util::unexpected(committed.error());
        }
    }
    std::optional<util::SnapshotReader> reader;
    {
        ScopedSpan open(&tracer, Op::OpenSnapshot);
        util::Expected<util::SnapshotReader> r =
            util::SnapshotReader::openWithFallback(path);
        if (!r.ok()) {
            return util::unexpected(r.error());
        }
        reader.emplace(std::move(r.value()));
    }
    cloud::CloudPlatform fresh(platformConfig(config));
    ScopedSpan restore(&tracer, Op::RestoreState);
    const util::Expected<void> restored = fresh.restoreState(*reader);
    if (!restored.ok()) {
        return util::unexpected(restored.error());
    }
    return bytes;
}

} // namespace perfbench
