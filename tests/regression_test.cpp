/**
 * @file
 * Regression locks for the dense-aging-store refactor.
 *
 *  - Golden values: a small Figure-6-style Experiment 1 (fixed seed,
 *    4 routes, 6 sweeps) recorded from the pre-refactor hash-map
 *    implementation. The dense slab, bind-time handles, per-step
 *    kinetics context and epoch-keyed arrival caches must reproduce
 *    every ∆ps sample bit for bit.
 *  - State-epoch semantics: advance/loadDesign/wipe/applyServiceWear
 *    bump the epoch (cache invalidation), reads don't.
 *  - Worker-count invariance of the dense aging sweep and the
 *    measurement sweep: 1 lane vs 4 lanes, bit-identical.
 *  - materializedIds() determinism: sorted by packed key.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/experiment.hpp"
#include "fabric/design.hpp"
#include "fabric/device.hpp"
#include "phys/thermal.hpp"
#include "tdc/measure_design.hpp"
#include "tdc/tdc.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace pc = pentimento::core;
namespace pf = pentimento::fabric;
namespace pp = pentimento::phys;
namespace pt = pentimento::tdc;
namespace pu = pentimento::util;

namespace {

pc::Experiment1Config
goldenConfig()
{
    pc::Experiment1Config config;
    config.groups = {{1000.0, 2}, {2000.0, 2}};
    config.burn_hours = 6.0;
    config.recovery_hours = 4.0;
    config.measure_every_h = 2.0;
    config.arith.dsp_count = 8;
    config.seed = 424242;
    return config;
}

struct GoldenRoute
{
    const char *name;
    bool burn_value;
    std::vector<double> hours;
    std::vector<double> delta_ps;
};

/** Recorded from the pre-refactor implementation (hexfloat exact). */
const std::vector<GoldenRoute> kGolden = {
    {"rut_1000ps_0", false,
     {0x0p+0, 0x1p+1, 0x1p+2, 0x1.8p+2, 0x1p+3, 0x1.4p+3},
     {0x0p+0, -0x1.06d3a06d3ap-1, -0x1.6c5f92c5f938p-1,
      -0x1.06d3a06d3ap-1, -0x1.ddddddddddep-3, -0x1.06d3a06d3a2p-3}},
    {"rut_1000ps_1", true,
     {0x0p+0, 0x1p+1, 0x1p+2, 0x1.8p+2, 0x1p+3, 0x1.4p+3},
     {0x0p+0, 0x1.dddddddddep-3, 0x1.7e4b17e4b19p-2,
      0x1.428f5c28f5dp-2, -0x1.06d3a06d3ap-2, -0x1.2aaaaaaaaaap-2}},
    {"rut_2000ps_0", false,
     {0x0p+0, 0x1p+1, 0x1p+2, 0x1.8p+2, 0x1p+3, 0x1.4p+3},
     {0x0p+0, -0x1.844444444438p-1, -0x1.ddddddddddd8p-1,
      -0x1.0fc962fc962cp+0, -0x1.428f5c28f5b8p-1,
      -0x1.7e4b17e4b16p-3}},
    {"rut_2000ps_1", true,
     {0x0p+0, 0x1p+1, 0x1p+2, 0x1.8p+2, 0x1p+3, 0x1.4p+3},
     {0x0p+0, 0x1.48888888888p-1, 0x1.4e81b4e81b5p-1,
      0x1.a2222222222p-1, 0x1.1eb851eb84cp-3, -0x1.7e4b17e4b4p-6}},
};

void
expectMatchesGolden(const pc::ExperimentResult &result)
{
    ASSERT_EQ(result.routes.size(), kGolden.size());
    EXPECT_EQ(result.sweeps, 6u);
    EXPECT_EQ(result.measure_seconds, 0x1.16c8b43958106p+4);
    for (std::size_t r = 0; r < kGolden.size(); ++r) {
        const pc::RouteRecord &route = result.routes[r];
        const GoldenRoute &golden = kGolden[r];
        EXPECT_EQ(route.name, golden.name);
        EXPECT_EQ(route.burn_value, golden.burn_value);
        ASSERT_EQ(route.series.size(), golden.hours.size());
        for (std::size_t k = 0; k < golden.hours.size(); ++k) {
            // Bit-exact: the refactor's caches must return the same
            // doubles the per-element recomputation produced.
            EXPECT_EQ(route.series.hours()[k], golden.hours[k])
                << route.name << " point " << k;
            EXPECT_EQ(route.series.values()[k], golden.delta_ps[k])
                << route.name << " point " << k;
        }
    }
}

TEST(GoldenRegression, Figure6StyleRunIsBitIdenticalToSeed)
{
    expectMatchesGolden(pc::runExperiment1(goldenConfig()));
}

TEST(GoldenRegression, Figure6StyleRunIsBitIdenticalWithWorkers)
{
    pu::ThreadPool pool(3);
    pc::Experiment1Config config = goldenConfig();
    config.pool = &pool;
    expectMatchesGolden(pc::runExperiment1(config));
}

// --------------------------------------------------- state epoch

pf::DeviceConfig
tinyConfig()
{
    pf::DeviceConfig config;
    config.tiles_x = 8;
    config.tiles_y = 8;
    config.nodes_per_tile = 32;
    return config;
}

TEST(StateEpoch, AdvanceBumps)
{
    pf::Device device(tinyConfig());
    pp::OvenEnvironment oven(333.15);
    const std::uint64_t before = device.stateEpoch();
    device.advance(1.0, oven);
    EXPECT_GT(device.stateEpoch(), before);
}

TEST(StateEpoch, LoadDesignBumps)
{
    pf::Device device(tinyConfig());
    const pf::RouteSpec spec = device.allocateRoute("r", 250.0);
    auto design = std::make_shared<pf::Design>("d");
    design->setRouteValue(spec, true);
    const std::uint64_t before = device.stateEpoch();
    device.loadDesign(design);
    EXPECT_GT(device.stateEpoch(), before);
}

TEST(StateEpoch, WipeBumps)
{
    pf::Device device(tinyConfig());
    const pf::RouteSpec spec = device.allocateRoute("r", 250.0);
    auto design = std::make_shared<pf::Design>("d");
    design->setRouteValue(spec, true);
    device.loadDesign(design);
    const std::uint64_t before = device.stateEpoch();
    device.wipe();
    EXPECT_GT(device.stateEpoch(), before);
}

TEST(StateEpoch, ServiceWearBumpsOnlyWhenWearing)
{
    pf::Device device(tinyConfig());
    device.element(device.allocateRoute("r", 250.0).elements[0]);
    const std::uint64_t before = device.stateEpoch();
    device.applyServiceWear(0.0);
    EXPECT_EQ(device.stateEpoch(), before);
    device.applyServiceWear(100.0);
    EXPECT_GT(device.stateEpoch(), before);
}

TEST(StateEpoch, ReadsDoNotBump)
{
    pf::Device device(tinyConfig());
    const pf::RouteSpec spec = device.allocateRoute("r", 250.0);
    pf::Route route = device.bindRoute(spec);
    const std::uint64_t before = device.stateEpoch();
    (void)route.delayPs(pp::Transition::Rising, 333.15);
    (void)device.materializedIds();
    (void)device.findElement(spec.elements[0]);
    EXPECT_EQ(device.stateEpoch(), before);
}

// ------------------------------------------- cache invalidation

TEST(ArrivalCache, SameStateSameRngGivesSameCapture)
{
    pf::Device device(tinyConfig());
    pt::Tdc sensor(device, device.allocateRoute("r", 500.0),
                   device.allocateCarryChain("c", 64));
    pu::Rng rng_a(7);
    pu::Rng rng_b(7);
    // First call populates the cache, second reads through it; both
    // must see identical arrivals.
    const pt::Capture a =
        sensor.capture(pp::Transition::Rising, 700.0, 333.15, rng_a);
    const pt::Capture b =
        sensor.capture(pp::Transition::Rising, 700.0, 333.15, rng_b);
    EXPECT_EQ(a.bits, b.bits);
}

TEST(ArrivalCache, AgingInvalidatesCachedArrivals)
{
    pf::Device device(tinyConfig());
    const pf::RouteSpec route = device.allocateRoute("r", 500.0);
    pt::Tdc sensor(device, route, device.allocateCarryChain("c", 64));
    pu::Rng rng(7);
    sensor.calibrate(333.15, rng);
    const double before = sensor.measure(333.15, rng).deltaPs();

    // Burn the route hard; a stale arrival cache would keep reporting
    // the pre-burn delta.
    auto design = std::make_shared<pf::Design>("burn");
    design->setRouteValue(route, true);
    device.loadDesign(design);
    pp::OvenEnvironment oven(333.15);
    device.advance(500.0, oven);
    device.wipe();

    pu::Rng rng2(7);
    const double after = sensor.measure(333.15, rng2).deltaPs();
    EXPECT_GT(after - before, 0.5);
}

TEST(ArrivalCache, TemperatureChangeInvalidates)
{
    pf::Device device(tinyConfig());
    pt::Tdc sensor(device, device.allocateRoute("r", 500.0),
                   device.allocateCarryChain("c", 64));
    pu::Rng rng(7);
    const double theta = sensor.calibrate(333.15, rng);
    // Warmer die, slower route: fewer taps passed at the same θ.
    pu::Rng rng_cool(9);
    pu::Rng rng_hot(9);
    const auto cool =
        sensor.capture(pp::Transition::Rising, theta, 333.15, rng_cool);
    const auto hot =
        sensor.capture(pp::Transition::Rising, theta, 363.15, rng_hot);
    EXPECT_LT(hot.hammingDistance(), cool.hammingDistance());
}

TEST(ActivityCache, RecycledDesignAllocationDoesNotAliasCache)
{
    // The ablation_device_age pattern: each burn phase builds a fresh
    // Design (often landing on the just-freed allocation, with the
    // same revision count), loads it, advances, wipes. A cache keyed
    // on a raw pointer would mistake the new design for the old one
    // and keep aging with stale activity.
    pf::Device device(tinyConfig());
    const pf::RouteSpec route = device.allocateRoute("r", 500.0);
    pp::OvenEnvironment oven(333.15);
    {
        auto burn1 = std::make_shared<pf::Design>("burn1");
        burn1->setRouteValue(route, true);
        device.loadDesign(burn1);
    }
    device.advance(50.0, oven);
    device.wipe();
    {
        auto burn0 = std::make_shared<pf::Design>("burn0");
        burn0->setRouteValue(route, false);
        device.loadDesign(burn0);
    }
    device.advance(50.0, oven);
    pf::Route bound = device.bindRoute(route);
    // Both phases must have imprinted: burn 1 slows falling edges,
    // burn 0 slows rising edges.
    EXPECT_GT(bound.btiShiftPs(pp::Transition::Falling), 0.1);
    EXPECT_GT(bound.btiShiftPs(pp::Transition::Rising), 0.1);
}

TEST(ActivityCache, LateMaterialisedElementAgesAfterInPlaceMutation)
{
    pf::Device device(tinyConfig());
    const pf::RouteSpec route_a = device.allocateRoute("a", 250.0);
    const pf::RouteSpec route_b = device.allocateRoute("b", 250.0);
    pp::OvenEnvironment oven(333.15);
    auto design = std::make_shared<pf::Design>("d");
    design->setRouteValue(route_a, true);
    device.loadDesign(design);
    device.advance(1.0, oven); // builds the dense activity cache
    // Mutate the loaded design in place to also burn route b, whose
    // elements only materialise afterwards (via binding, not via a
    // reload). The slab-growth check must fold them into the sweep.
    design->setRouteValue(route_b, true);
    pf::Route bound_b = device.bindRoute(route_b);
    device.advance(50.0, oven);
    EXPECT_GT(bound_b.btiShiftPs(pp::Transition::Falling), 0.1);
}

// ------------------------------------- dense sweep determinism

TEST(DenseSweep, WorkerCountInvariantAging)
{
    const auto runAging = [](pu::ThreadPool *pool) {
        pf::Device device(tinyConfig());
        std::vector<pf::RouteSpec> specs;
        auto design = std::make_shared<pf::Design>("d");
        for (int r = 0; r < 6; ++r) {
            specs.push_back(
                device.allocateRoute("r" + std::to_string(r), 400.0));
            if (r % 3 == 0) {
                design->setRouteValue(specs.back(), r % 2 == 0);
            } else {
                design->setRouteToggling(specs.back(), 0.3);
            }
        }
        device.setWorkPool(pool);
        device.loadDesign(design);
        pp::OvenEnvironment oven(333.15);
        for (int step = 0; step < 10; ++step) {
            device.advance(1.0, oven);
        }
        device.setWorkPool(nullptr);
        std::vector<double> delays;
        for (const pf::RouteSpec &spec : specs) {
            pf::Route route = device.bindRoute(spec);
            delays.push_back(
                route.delayPs(pp::Transition::Rising, 333.15));
            delays.push_back(
                route.delayPs(pp::Transition::Falling, 333.15));
        }
        return delays;
    };
    pu::ThreadPool pool(3);
    const std::vector<double> serial = runAging(nullptr);
    const std::vector<double> parallel = runAging(&pool);
    EXPECT_EQ(serial, parallel);
}

TEST(DenseSweep, WorkerCountInvariantMeasurement)
{
    const auto runSweep = [](pu::ThreadPool *pool) {
        pf::Device device(tinyConfig());
        std::vector<pf::RouteSpec> routes;
        for (int r = 0; r < 6; ++r) {
            routes.push_back(
                device.allocateRoute("r" + std::to_string(r), 400.0));
        }
        pt::MeasureDesign design(device, routes);
        pu::Rng rng(21);
        design.calibrateAll(333.15, rng, pool);
        const pt::MeasurementSweep sweep =
            design.measureAll(333.15, rng, pool);
        std::vector<double> flat;
        for (const pt::Measurement &m : sweep.per_route) {
            flat.push_back(m.rising_distance_ps);
            flat.push_back(m.falling_distance_ps);
        }
        return flat;
    };
    pu::ThreadPool pool(3);
    const std::vector<double> serial = runSweep(nullptr);
    const std::vector<double> parallel = runSweep(&pool);
    EXPECT_EQ(serial, parallel);
}

// ---------------------------------------- tenancy-churn golden

/**
 * Multi-tenant golden: 16 journal-backed tenancies (mid-tenancy
 * mitigation flips, fresh routes each, idle recovery between), with
 * only the last two tenancies' routes observed. Recorded from the
 * first journal implementation, which is bit-identical to eager
 * materialisation (journal_test locks that equivalence; this golden
 * pins the absolute values so a later change cannot silently perturb
 * the variation/tenancy draw streams or the replay arithmetic).
 */
const std::vector<double> kChurnGolden = {
    0x1.f43518bc3cc1fp+9, 0x1.f511461078846p+9,
    0x1.f4255cef75926p+9, 0x1.f4101631150a4p+9,
    0x1.f49153a7bc7fp+9,  0x1.f2f8a24502bd6p+9,
    0x1.f3681bae805edp+9, 0x1.f2f3a1c61ad86p+9,
    0x1.f2dbfca84afb4p+9, 0x1.ef52fc1ee34afp+9,
    0x1.f5f416203389ep+9, 0x1.f43ff8d492b4fp+9,
    0x1.f4e28b69e0397p+9, 0x1.f0ee594ab659ep+9,
    0x1.f5685bdfbe82cp+9, 0x1.f654550b4683ep+9,
};

TEST(GoldenRegression, TenancyChurnIsBitIdentical)
{
    const pc::TenancyChurnResult result =
        pc::runTenancyChurn(pc::TenancyChurnConfig{});
    ASSERT_EQ(result.observed_delays_ps.size(), kChurnGolden.size());
    for (std::size_t i = 0; i < kChurnGolden.size(); ++i) {
        EXPECT_EQ(result.observed_delays_ps[i], kChurnGolden[i])
            << "churn delay " << i;
    }
    // Only the two observed tenancies' routes materialised; the other
    // fourteen (plus the arithmetic-heavy filler) stay journaled.
    EXPECT_EQ(result.materialized, 320u);
    EXPECT_EQ(result.journaled, 2272u);
    EXPECT_EQ(result.elapsed_h, 0x1.36cp+10);
}

// ------------------------------------------- deterministic ids

TEST(MaterializedIds, SortedByPackedKey)
{
    pf::Device device(tinyConfig());
    // Materialise in deliberately shuffled order.
    const pf::RouteSpec spec = device.allocateRoute("r", 500.0);
    std::vector<pf::ResourceId> shuffled = spec.elements;
    std::reverse(shuffled.begin(), shuffled.end());
    std::swap(shuffled.front(), shuffled[shuffled.size() / 2]);
    for (const pf::ResourceId &id : shuffled) {
        device.element(id);
    }
    const std::vector<pf::ResourceId> ids = device.materializedIds();
    ASSERT_EQ(ids.size(), spec.elements.size());
    EXPECT_TRUE(std::is_sorted(
        ids.begin(), ids.end(),
        [](const pf::ResourceId &a, const pf::ResourceId &b) {
            return a.key() < b.key();
        }));
}

} // namespace
