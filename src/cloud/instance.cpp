#include "cloud/instance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hpp"
#include "util/snapshot.hpp"

namespace pentimento::cloud {

FpgaInstance::FpgaInstance(std::string id,
                           fabric::DeviceConfig device_config,
                           AmbientParams ambient, util::Rng rng)
    : id_(std::move(id)), device_(std::move(device_config)),
      ambient_(ambient, rng.split("ambient")),
      thermal_(ambient.mean_k), rng_(rng.split("noise"))
{
    if (id_.empty()) {
        util::fatal("FpgaInstance: empty id");
    }
    // Any read or flip of element aging state (a bound Route or TDC
    // walking the device directly, a design load, a wipe) replays the
    // deferred idle backlog first, so laziness is unobservable.
    device_.setPreObservationHook([this] { materializeDeferred(); });
}

void
FpgaInstance::walkSpans(double hours, double step_h,
                        bool credit_elapsed) const
{
    // One iteration per span over which everything is constant: the
    // ambient (between events), the dissipated power, and therefore
    // the segment's Arrhenius context. Under hourly stepping this is
    // the per-hour walk bit for bit: one ambient draw, one package
    // relaxation and one segment per hour.
    const fabric::Design *design = device_.currentDesign();
    const double power = design != nullptr ? design->powerW() : 0.0;
    double remaining = hours;
    while (remaining > 1e-12) {
        const double dt =
            std::min({remaining, step_h, ambient_.hoursUntilBoundary()});
        ambient_.advance(dt);
        thermal_.setAmbientK(ambient_.ambientK());
        const double die_k = thermal_.step(power, dt);
        if (credit_elapsed) {
            device_.advanceAt(dt, die_k);
        } else {
            device_.ingestSegment(dt, die_k);
        }
        remaining -= dt;
    }
}

void
FpgaInstance::materializeDeferred() const
{
    const double backlog = deferred_h_.value();
    if (backlog <= 0.0) {
        return;
    }
    deferred_h_.reset();
    // Deferred spans are design-free by construction, so the walk is
    // bounded only by ambient events: one relaxation + one ingested
    // segment per event cell, regardless of how the idle time was
    // split across advanceHours calls.
    walkSpans(backlog, std::numeric_limits<double>::infinity(), false);
}

void
FpgaInstance::advanceHours(double hours, double step_h)
{
    if (!(hours >= 0.0) || !(step_h > 0.0) || !std::isfinite(hours)) {
        util::fatal("FpgaInstance::advanceHours: bad time step");
    }
    if (device_.currentDesign() == nullptr) {
        // Unconfigured card: nothing dissipates power and nothing is
        // being observed — credit the hours now (O(1)) and walk the
        // ambient events when (if ever) someone looks. Idle pooled
        // stock accrues simulated years at bookkeeping cost.
        deferred_h_.add(hours);
        device_.creditIdleHours(hours);
        return;
    }
    materializeDeferred();
    walkSpans(hours, step_h, true);
}

void
FpgaInstance::powerCycle(double off_hours)
{
    if (!(off_hours >= 0.0) || !std::isfinite(off_hours)) {
        util::fatal("FpgaInstance::powerCycle: bad off-power hours");
    }
    // The wipe is an observation (it flips configured activities), so
    // the deferred idle backlog must land first.
    materializeDeferred();
    device_.wipe();
    device_.accrueBramOffPower(off_hours);
    // Unpowered silicon holds no heat: the die is at ambient when the
    // card comes back.
    thermal_.restoreState(thermal_.ambientK(), thermal_.ambientK());
    ++power_cycles_;
}

void
FpgaInstance::pcieReset()
{
    materializeDeferred();
    ++pcie_resets_;
}

void
FpgaInstance::saveState(util::SnapshotWriter &writer) const
{
    writer.str(id_);
    device_.saveState(writer);
    ambient_.saveState(writer);
    writer.f64(thermal_.ambientK());
    writer.f64(thermal_.dieTempK());
    writer.f64(deferred_h_.rawSum());
    writer.f64(deferred_h_.rawCompensation());
    const util::Rng::State rng = rng_.state();
    for (const std::uint64_t word : rng.words) {
        writer.u64(word);
    }
    writer.f64(rng.cached);
    writer.u8(rng.have_cached ? 1 : 0);
    writer.u8(rented_ ? 1 : 0);
    writer.f64(released_at_h_);
    writer.u64(power_cycles_);
    writer.u64(pcie_resets_);
}

util::Expected<void>
FpgaInstance::restoreState(util::SnapshotReader &reader,
                           bool *had_design)
{
    const std::string id = reader.str();
    if (!reader.ok()) {
        return reader.status();
    }
    if (id != id_) {
        reader.fail("snapshot: instance id mismatch (expected '" + id_ +
                    "', checkpoint has '" + id + "')");
        return reader.status();
    }
    const util::Expected<void> device_result =
        device_.restoreState(reader, had_design);
    if (!device_result.ok()) {
        return device_result;
    }
    if (!ambient_.restoreState(reader)) {
        return reader.status();
    }
    const double ambient_k = reader.f64();
    const double die_k = reader.f64();
    const double deferred_sum = reader.f64();
    const double deferred_comp = reader.f64();
    util::Rng::State rng;
    for (std::uint64_t &word : rng.words) {
        word = reader.u64();
    }
    rng.cached = reader.f64();
    rng.have_cached = reader.u8() != 0;
    const bool rented = reader.u8() != 0;
    const double released_at_h = reader.f64();
    const std::uint64_t power_cycles = reader.u64();
    const std::uint64_t pcie_resets = reader.u64();
    if (!reader.ok()) {
        return reader.status();
    }
    if (!std::isfinite(ambient_k) || ambient_k <= 0.0 ||
        !std::isfinite(die_k) || die_k <= 0.0 ||
        !std::isfinite(deferred_sum) || deferred_sum < 0.0 ||
        !std::isfinite(released_at_h)) {
        reader.fail("snapshot: instance thermal/deferred state is not "
                    "physical");
        return reader.status();
    }
    thermal_.restoreState(ambient_k, die_k);
    deferred_h_.restoreParts(deferred_sum, deferred_comp);
    rng_.setState(rng);
    rented_ = rented;
    released_at_h_ = released_at_h;
    power_cycles_ = power_cycles;
    pcie_resets_ = pcie_resets;
    return reader.status();
}

} // namespace pentimento::cloud
