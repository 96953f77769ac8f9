// The Streak flow facade (Fig. 2): identification -> backbone /
// equivalent-topology generation -> candidate selection via primal-dual
// or ILP -> optional post optimization (layer prediction + bottom-up
// clustering + distance refinement).
//
// This is the library's main entry point:
//
//   streak::Design design = ...;
//   streak::StreakOptions opts;
//   opts.solver = streak::SolverKind::PrimalDual;
//   opts.postOptimize = true;
//   streak::FlowResult res = streak::runStreak(design, opts);
//   if (res.ok()) { use(res.value()); } else { log(res.error()); }
//
// The caller owns the Design and must keep it alive while using the
// result (the embedded RoutingProblem refers to it).
//
// Fault tolerance (DESIGN.md "Robustness"): runStreak never leaks an
// exception — every failure comes back as the structured StreakError
// arm of FlowResult. Recoverable mid-stage failures (deadline share
// expired, injected faults) are absorbed by a per-stage degradation
// ladder: the flow falls back to the cheaper engine or the last valid
// partial solution, records a `robust/degraded.<rung>` counter plus a
// span event, and lists the rung in StreakResult::degradations.
// Degraded output still passes the deep auditors.
//
// Observability (DESIGN.md "Observability"): every run records into an
// obs::Session of its own, so two runs — back to back or on two threads
// at once — never share a counter or a span. The run's span tree, rooted
// at "flow/run" with one child per stage, and its counters come back in
// StreakResult::trace and ::counters. The buildSeconds()/solveSeconds()/
// ... accessors and the per-stage RegionStats derive from the span tree,
// so it is the single source of truth for where the run's wall time
// went. Hot-path detail (solver spans and work counters) is on when the
// calling thread's gate is: obs::setDetailEnabled(true) before the call.
#pragma once

#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "check/assert.hpp"
#include "core/distance.hpp"
#include "core/metrics.hpp"
#include "core/options.hpp"
#include "core/problem.hpp"
#include "core/solution.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "robust/error.hpp"
#include "robust/recovery.hpp"

namespace streak {

/// Span names of the flow stages (children of "flow/run"); the stage
/// RegionStats are attached to these spans as span args.
namespace stage {
inline constexpr const char* kRun = "flow/run";
inline constexpr const char* kBuild = "flow/build";
inline constexpr const char* kSolve = "flow/solve";
inline constexpr const char* kDistance = "flow/distance";
inline constexpr const char* kPost = "flow/post";
}  // namespace stage

struct StreakResult {
    RoutingProblem problem;
    RoutingSolution solverSolution;
    RoutedDesign routed;
    Metrics metrics;

    /// Vio(dst) before / after post optimization ("after" reuses the
    /// initial thresholds, as in Table II).
    int distanceViolationsBefore = 0;
    int distanceViolationsAfter = 0;

    /// Group-indexed Vio(dst) flags (1 = violating) backing the counts
    /// above; "after" tracks the post stage exactly like
    /// distanceViolationsAfter (rollback restores the pre-post flags,
    /// a skipped analysis leaves all groups clean). The incremental-ECO
    /// stitcher carries untouched groups' flags over verbatim.
    std::vector<char> groupDistanceBefore;
    std::vector<char> groupDistanceAfter;

    bool hitTimeLimit = false;
    int pdIterations = 0;
    long ilpNodes = 0;
    /// Absolute optimality gap of the flat ILP solve (IlpRouteResult::gap):
    /// 0 when proven. +inf when unknown: a `pd` or `hilp` run, an ILP
    /// that fell back to the primal-dual result, or a component capped
    /// before its root LP.
    double ilpGap = std::numeric_limits<double>::infinity();

    /// Degradation-ladder rungs taken during the run, in stage order
    /// (empty for a clean run); also surfaced in the JSON run report's
    /// "robust" section and as `robust/degraded.*` counters.
    std::vector<robust::Degradation> degradations;
    [[nodiscard]] bool degraded() const { return !degradations.empty(); }

    /// Worker threads the parallel stages ran with (resolved, >= 1).
    int threadsUsed = 1;

    /// The run's span tree (rooted at "flow/run"): stage spans always;
    /// detailed solver/router spans when detail instrumentation was on.
    obs::Trace trace;
    /// The run's own counters and histograms — everything its session
    /// recorded, minus the entries that stayed at zero. Counter values
    /// are byte-identical for every `threads` value (timestamps live only
    /// in spans); the hot-path counters appear only when detail
    /// instrumentation was on for the run.
    obs::Snapshot counters;

    /// Wall seconds of a stage span (0 when absent from the trace).
    [[nodiscard]] double stageSeconds(std::string_view span) const {
        return obs::spanSeconds(trace, span);
    }
    /// A stage span's parallel-execution stats, reconstructed from the
    /// span args the flow attached (all-zero when absent).
    [[nodiscard]] parallel::RegionStats stageParallel(
        std::string_view span) const;

    // Derived accessors over the span tree, kept with the historical
    // field names so benches and the CLI stage table read naturally.
    [[nodiscard]] double buildSeconds() const {
        return stageSeconds(stage::kBuild);
    }
    [[nodiscard]] double solveSeconds() const {
        return stageSeconds(stage::kSolve);
    }
    /// Baseline distance analysis (always runs, even without post
    /// optimization; kept out of postSeconds so post-stage timings only
    /// cover actual post-optimization work).
    [[nodiscard]] double distanceSeconds() const {
        return stageSeconds(stage::kDistance);
    }
    [[nodiscard]] double postSeconds() const {
        return stageSeconds(stage::kPost);
    }
    [[nodiscard]] double totalSeconds() const {
        return stageSeconds(stage::kRun);
    }
    [[nodiscard]] parallel::RegionStats buildParallel() const {
        return stageParallel(stage::kBuild);
    }
    [[nodiscard]] parallel::RegionStats solveParallel() const {
        return stageParallel(stage::kSolve);
    }
    [[nodiscard]] parallel::RegionStats distanceParallel() const {
        return stageParallel(stage::kDistance);
    }
    [[nodiscard]] parallel::RegionStats postParallel() const {
        return stageParallel(stage::kPost);
    }

    explicit StreakResult(const grid::RoutingGrid& grid) : routed(grid) {}
};

/// Result-or-error of one flow run. Successful runs (possibly degraded;
/// see StreakResult::degradations) carry a StreakResult; failed runs a
/// structured StreakError. Accessing the wrong arm is a contract
/// violation (STREAK_REQUIRE), never undefined behavior.
class FlowResult {
public:
    /*implicit*/ FlowResult(StreakResult&& result)
        : result_(std::move(result)) {}
    explicit FlowResult(robust::StreakError error)
        : error_(std::move(error)) {}

    [[nodiscard]] bool ok() const { return result_.has_value(); }

    [[nodiscard]] const robust::StreakError& error() const {
        STREAK_REQUIRE(!ok(), "error() called on a successful run");
        return error_;
    }

    [[nodiscard]] const StreakResult& value() const& {
        STREAK_REQUIRE(ok(), "value() called on a failed run: {}",
                       error_.describe());
        return *result_;
    }
    /// rvalue overload returns by value so `auto r = runStreak(...).value()`
    /// moves and a reference bound to it never dangles.
    [[nodiscard]] StreakResult value() && {
        STREAK_REQUIRE(ok(), "value() called on a failed run: {}",
                       error_.describe());
        return *std::move(result_);
    }

private:
    std::optional<StreakResult> result_;
    robust::StreakError error_;
};

/// Run the whole flow. Never throws: every failure — invalid input,
/// deadline expiry, injected fault, internal error — is returned as
/// FlowResult's error arm with a distinct ErrorKind. Options out of range
/// (validateOptions) and bits without pins, with a driver index out of
/// range or with a pin off the grid (validatePins) are InvalidInput
/// before any stage runs.
[[nodiscard]] FlowResult runStreak(const Design& design,
                                   const StreakOptions& opts);

}  // namespace streak
