// Degradation-ladder records (DESIGN.md "Robustness").
//
// The flow's graceful-degradation ladder formalizes the fallbacks that
// used to be ad-hoc (ILP timeout -> PD result and the like): when a
// stage throws a *recoverable* StreakError — deadline share expired,
// injected fault — the flow falls back to the cheaper engine or the last
// valid partial solution instead of failing the run. Every rung always
// applies; there is no switch. Each rung taken records a
// `robust/degraded.<rung>` counter, a span event, and a Degradation
// entry in the StreakResult so run reports show exactly what degraded.
// Degraded output still passes the deep auditors (auditSolution /
// auditRoutedDesign).
#pragma once

#include <string>

namespace streak::robust {

/// One rung taken during a run, surfaced in StreakResult::degradations
/// and the JSON run report's "robust" section.
struct Degradation {
    std::string stage;   ///< flow stage ("flow/solve", ...)
    std::string site;    ///< fault site of the absorbed error, if any
    std::string rung;    ///< counter suffix ("solve.ilp_to_pd", ...)
    std::string message; ///< the absorbed error's description
};

}  // namespace streak::robust
