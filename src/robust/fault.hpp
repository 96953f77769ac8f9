// Deterministic fault injection (DESIGN.md "Robustness").
//
// Stages mark their failure-prone entry points with a named site:
//
//     STREAK_FAULT_POINT("ilp/solve");
//
// Every site is compiled in; a disarmed process pays one relaxed atomic
// load per site execution. Tests arm exactly one (site, hit index) at a
// time — directly, from a seeded schedule, or from the STREAK_FAULT
// environment variable — and the matching execution throws
// a recoverable StreakException of kind FaultInjected, which the flow's
// degradation ladder must absorb or surface as a structured error
// (never a crash). tests/chaos_test.cpp sweeps every cataloged site.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "robust/error.hpp"

namespace streak::robust {

/// The canonical catalog of every fault site in the code base, sorted.
/// Kept by hand in fault.cpp next to the macro so chaos sweeps can
/// enumerate sites without executing code first; robust_test checks the
/// catalog against the sites actually observed (catalog rot).
[[nodiscard]] const std::vector<std::string>& faultSiteCatalog();

/// Arm `site`: its (hitIndex + 1)-th execution throws. Replaces any
/// previously armed site and restarts hit counting.
void armFault(std::string_view site, long hitIndex = 0);

/// Arm `site` with a hit index derived deterministically (FNV-1a, no
/// std::hash — stable across platforms) from `seed` in [0, maxHit);
/// returns the chosen index. The seeded-schedule entry point for tests.
long armFaultFromSeed(std::string_view site, unsigned long seed,
                      long maxHit = 3);

/// Disarm and reset all hit counters.
void disarmFaults();

/// Arm from the STREAK_FAULT environment variable — "site" or
/// "site:hitIndex" — for CLI runs; no-op when unset. Returns true when a
/// fault was armed.
bool armFaultFromEnv();

/// Executions of `site` observed since the last arm/disarm (counting is
/// active only while a fault is armed, keeping the disarmed fast path
/// to a single atomic load).
[[nodiscard]] long faultHits(std::string_view site);

/// Sites executed at least once since the last arm/disarm.
[[nodiscard]] std::vector<std::string> faultSitesSeen();

namespace detail {
[[nodiscard]] bool faultsArmed();
void hitFaultPoint(const char* site);
}  // namespace detail

}  // namespace streak::robust

#define STREAK_FAULT_POINT(site)                               \
    do {                                                       \
        if (::streak::robust::detail::faultsArmed())           \
            ::streak::robust::detail::hitFaultPoint(site);     \
    } while (false)
