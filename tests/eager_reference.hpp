/**
 * @file
 * Eager-materialisation reference for the journal equivalence tests.
 *
 * A Device defers every configured element it has not materialised
 * yet: design loads and wipes only journal the element's activity
 * flips, and the element replays them at first observation. The
 * reference that laziness must match binds every configured element
 * the moment it is configured. bindResident() builds that reference
 * from the public API: called right after each loadDesign, each
 * in-place mutation of the resident design, and each platform
 * release/rent (which load or wipe designs internally), it binds
 * every key of the resident design, so nothing stays journaled and
 * each element sees every later flip as a materialised element.
 */

#ifndef PENTIMENTO_TESTS_EAGER_REFERENCE_HPP
#define PENTIMENTO_TESTS_EAGER_REFERENCE_HPP

#include "fabric/design.hpp"
#include "fabric/device.hpp"

namespace pentimento::testing {

/** Bind every key of the device's resident design (if any). */
inline void
bindResident(fabric::Device &device)
{
    const fabric::Design *design = device.currentDesign();
    if (design == nullptr) {
        return;
    }
    for (const auto &[key, activity] : design->activityMap()) {
        (void)activity;
        device.bindElement(fabric::ResourceId::fromKey(key));
    }
}

} // namespace pentimento::testing

#endif // PENTIMENTO_TESTS_EAGER_REFERENCE_HPP
