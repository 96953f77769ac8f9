#include "flow/streak.hpp"

#include <memory>
#include <string>
#include <utility>

#include "check/audit.hpp"
#include "core/hier_ilp.hpp"
#include "core/ilp_router.hpp"
#include "core/pd_solver.hpp"
#include "core/validate.hpp"
#include "obs/counters.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "post/clustering.hpp"
#include "post/refine.hpp"
#include "robust/control.hpp"
#include "robust/error.hpp"

namespace streak {

namespace {

/// Attach a stage's parallel-execution stats to its span so the span
/// tree is the single record of the stage (see stageParallel()).
void annotateStage(obs::SpanScope* span, const parallel::RegionStats& stats) {
    span->addArg("threads", stats.threads);
    span->addArg("regions", stats.regions);
    span->addArg("tasks", static_cast<double>(stats.tasks));
    span->addArg("wallSeconds", stats.wallSeconds);
    span->addArg("taskSeconds", stats.taskSeconds);
}

/// Final per-edge utilization distribution (in percent of capacity, with
/// > 100% overflow buckets) — the congestion signal aggregate Vio/WL
/// numbers hide.
void recordEdgeUtilization(const RoutedDesign& routed) {
    // Resolved per run, never cached in a static: the handle belongs to
    // this run's session.
    obs::Histogram& hist = obs::session().histogram(
        "route/edge.utilization_pct", {10, 25, 50, 75, 90, 100, 125, 150, 200});
    const grid::RoutingGrid& grid = routed.usage.grid();
    for (int e = 0; e < grid.numEdges(); ++e) {
        const int used = routed.usage.usage(e);
        const int cap = grid.capacity(e);
        if (cap <= 0) {
            // Capacity-less edges only matter when something routed over
            // them anyway; park those in the overflow bucket.
            if (used > 0) hist.record(1000);
            continue;
        }
        hist.record(100LL * used / cap);
    }
}

/// True when the degradation ladder may absorb this error (cancellation
/// always unwinds the whole run).
bool ladderMayAbsorb(const robust::StreakError& err) {
    return err.recoverable && err.kind != robust::ErrorKind::Cancelled;
}

/// Record one ladder rung: a `robust/degraded.<rung>` counter (always,
/// not detail-gated — degradations are rare and the run report must
/// show them), a zero-length span event, and a Degradation entry.
void recordDegradation(StreakResult* result, const char* stage,
                       const char* rung, const robust::StreakError& cause) {
    obs::session().counter(std::string("robust/degraded.") + rung).add(1);
    const obs::SpanScope event(std::string("robust/degraded/") + rung);
    robust::Degradation d;
    d.stage = stage;
    d.site = cause.site;
    d.rung = rung;
    d.message = cause.describe();
    result->degradations.push_back(std::move(d));
}

/// Run one stage body. Everything escaping a stage boundary becomes a
/// StreakException: native ones get the stage name annotated, foreign
/// exceptions (contract failures under a throwing handler, stray
/// std::runtime_error) are wrapped as non-recoverable Internal errors.
template <typename Fn>
void runStage(const char* stageName, Fn&& body) {
    try {
        body();
    } catch (robust::StreakException& e) {
        e.noteStage(stageName);
        throw;
    } catch (const std::exception& e) {
        robust::StreakError err;
        err.kind = robust::ErrorKind::Internal;
        err.stage = stageName;
        err.message = e.what();
        throw robust::StreakException(std::move(err));
    }
}

}  // namespace

parallel::RegionStats StreakResult::stageParallel(
    std::string_view span) const {
    parallel::RegionStats stats;
    stats.threads = static_cast<int>(obs::spanArg(trace, span, "threads", 1));
    stats.regions = static_cast<int>(obs::spanArg(trace, span, "regions", 0));
    stats.tasks = static_cast<long>(obs::spanArg(trace, span, "tasks", 0));
    stats.wallSeconds = obs::spanArg(trace, span, "wallSeconds", 0.0);
    stats.taskSeconds = obs::spanArg(trace, span, "taskSeconds", 0.0);
    return stats;
}

namespace {

/// The flow body proper, with the degradation ladder at every stage
/// boundary. `opts.control` is already armed by runStreak(). Throws
/// only StreakException (via runStage), never anything else.
StreakResult runStreakGuarded(const Design& design,
                              const StreakOptions& opts) {
    StreakResult result(design.grid);
    result.threadsUsed = parallel::resolveThreads(opts.threads);

    // The run records into a session of its own: every counter flush and
    // span below — including on pool workers — lands in it and nowhere
    // else, so concurrent runs cannot see each other's values. Detail
    // instrumentation follows the caller's gate.
    obs::Session sess;
    sess.setDetailEnabled(obs::detailEnabled());
    const obs::SessionBind bind(sess);
    obs::SpanScope runSpan(stage::kRun);

    // Once the run-wide deadline has been absorbed by a rung, later
    // optional stages are skipped outright instead of being started
    // only to trip at their first tick.
    bool deadlineSpent = false;
    const auto absorbedDeadline = [&](const robust::StreakError& err) {
        if (err.kind == robust::ErrorKind::DeadlineExpired) {
            deadlineSpent = true;
        }
    };

    // Build has no cheaper engine to fall back to: failures (including
    // deadline expiry before any solution exists) surface as errors.
    runStage(stage::kBuild, [&] {
        obs::SpanScope span(stage::kBuild);
        parallel::RegionStats stats;
        result.problem = buildProblem(design, opts, &stats);
        annotateStage(&span, stats);
        STREAK_DEEP_AUDIT(check::auditProblem(result.problem));
    });

    runStage(stage::kSolve, [&] {
        obs::SpanScope span(stage::kSolve);
        parallel::RegionStats stats;
        if (opts.solver == SolverKind::Ilp ||
            opts.solver == SolverKind::IlpHierarchical) {
            // Warm-start the ILP from the (cheap) primal-dual solution —
            // the analogue of handing a commercial solver a MIP start; at
            // the time limit each unfinished component keeps that start.
            RoutingSolution warmSolution;
            int warmIterations = 0;
            bool haveWarm = false;
            try {
                PdResult warm = solvePrimalDual(result.problem);
                warmSolution = std::move(warm.solution);
                warmIterations = warm.iterations;
                haveWarm = true;
            } catch (const robust::StreakException& e) {
                // Rung: continue the ILP cold. Only for injected faults —
                // a deadline that already killed the cheap solver leaves
                // nothing for the expensive one either.
                if (e.error().kind != robust::ErrorKind::FaultInjected ||
                    !ladderMayAbsorb(e.error())) {
                    throw;
                }
                recordDegradation(&result, stage::kSolve, "solve.cold_start",
                                  e.error());
            }
            try {
                const RoutingSolution* warmPtr =
                    haveWarm ? &warmSolution : nullptr;
                IlpRouteResult ilp =
                    opts.solver == SolverKind::Ilp
                        ? solveIlpRouting(result.problem,
                                          opts.ilpTimeLimitSeconds, warmPtr)
                        : solveIlpHierarchical(result.problem,
                                               opts.ilpTimeLimitSeconds,
                                               warmPtr);
                result.solverSolution = std::move(ilp.solution);
                result.ilpNodes = ilp.nodesExplored;
                result.hitTimeLimit = ilp.hitTimeLimit;
                stats.merge(ilp.parallelStats);
            } catch (const robust::StreakException& e) {
                // Rung: the formal "ILP timeout -> PD result" fallback,
                // now also covering deadline expiry and injected faults.
                if (!haveWarm || !ladderMayAbsorb(e.error()) ||
                    !opts.recovery.ilpFallbackToPd) {
                    throw;
                }
                recordDegradation(&result, stage::kSolve, "solve.ilp_to_pd",
                                  e.error());
                absorbedDeadline(e.error());
                result.solverSolution = std::move(warmSolution);
                result.pdIterations = warmIterations;
                result.hitTimeLimit = true;
            }
        } else {
            // The primal-dual solver is the bottom of the ladder; its
            // failures are the run's failures.
            PdResult pd = solvePrimalDual(result.problem);
            result.solverSolution = std::move(pd.solution);
            result.pdIterations = pd.iterations;
        }
        annotateStage(&span, stats);
        STREAK_DEEP_AUDIT(
            check::auditSolution(result.problem, result.solverSolution));

        result.routed = materialize(result.problem, result.solverSolution);
        STREAK_DEEP_AUDIT(
            check::auditRoutedDesign(result.problem, result.routed));
    });

    // The baseline distance analysis always runs (it feeds the reported
    // Vio(dst) numbers) and is timed on its own: counting it into the
    // post stage used to inflate the post timing that benches report
    // even when postOptimize was off.
    std::vector<GroupDistanceReport> before;
    runStage(stage::kDistance, [&] {
        obs::SpanScope span(stage::kDistance);
        parallel::RegionStats stats;
        const auto skipRung = [&](const robust::StreakError& cause) {
            if (!opts.recovery.distanceSkipOnFailure) robust::raise(cause);
            recordDegradation(&result, stage::kDistance, "distance.skipped",
                              cause);
            before.clear();
            result.distanceViolationsBefore = 0;
            result.distanceViolationsAfter = 0;
            result.groupDistanceBefore.assign(
                static_cast<size_t>(design.numGroups()), 0);
            result.groupDistanceAfter = result.groupDistanceBefore;
        };
        if (deadlineSpent) {
            skipRung(robust::Ticket::tripError(robust::Trip::DeadlineExpired,
                                               "distance/analyze"));
            return;
        }
        try {
            before = analyzeDistances(result.problem, result.routed,
                                      opts.distanceThresholdFraction, nullptr,
                                      &stats);
            result.distanceViolationsBefore = countViolatingGroups(before);
            result.distanceViolationsAfter = result.distanceViolationsBefore;
            result.groupDistanceBefore.assign(
                static_cast<size_t>(design.numGroups()), 0);
            for (const GroupDistanceReport& r : before) {
                result.groupDistanceBefore[static_cast<size_t>(
                    r.groupIndex)] = r.violating() ? 1 : 0;
            }
            result.groupDistanceAfter = result.groupDistanceBefore;
        } catch (const robust::StreakException& e) {
            // Rung: the analysis is diagnostic — skip it rather than
            // fail a run that already has a routed solution.
            if (!ladderMayAbsorb(e.error())) throw;
            absorbedDeadline(e.error());
            skipRung(e.error());
        }
        annotateStage(&span, stats);
    });

    runStage(stage::kPost, [&] {
        obs::SpanScope span(stage::kPost);
        parallel::RegionStats stats;
        if (opts.postOptimize && deadlineSpent) {
            // Rung: the budget is gone; keep the pre-post solution.
            recordDegradation(
                &result, stage::kPost, "post.skipped",
                robust::Ticket::tripError(robust::Trip::DeadlineExpired,
                                          "flow/post"));
        } else if (opts.postOptimize) {
            // Snapshot for rollback: post optimization mutates `routed`
            // in place, and a half-applied post pass is worse than none.
            const RoutedDesign prePost = result.routed;
            const int prePostViolations = result.distanceViolationsAfter;
            const std::vector<char> prePostFlags = result.groupDistanceAfter;
            try {
                if (opts.clusteringEnabled) {
                    post::clusterAndRoute(result.problem, &result.routed);
                    STREAK_DEEP_AUDIT(check::auditRoutedDesign(
                        result.problem, result.routed));
                }
                if (opts.refinementEnabled) {
                    const post::RefinementResult ref =
                        post::refineDistances(result.problem, &result.routed);
                    result.distanceViolationsAfter = ref.violatingGroupsAfter;
                    result.groupDistanceAfter = ref.groupViolatingAfter;
                    stats.merge(ref.parallelStats);
                } else {
                    // Clustering may add bits; re-evaluate with the initial
                    // thresholds for a fair "after" number.
                    std::vector<int> thresholds(before.size(), -1);
                    for (const GroupDistanceReport& r : before) {
                        thresholds[static_cast<size_t>(r.groupIndex)] =
                            r.threshold;
                    }
                    const auto after = analyzeDistances(
                        result.problem, result.routed,
                        opts.distanceThresholdFraction, &thresholds, &stats);
                    result.distanceViolationsAfter =
                        countViolatingGroups(after);
                    result.groupDistanceAfter.assign(
                        static_cast<size_t>(design.numGroups()), 0);
                    for (const GroupDistanceReport& r : after) {
                        result.groupDistanceAfter[static_cast<size_t>(
                            r.groupIndex)] = r.violating() ? 1 : 0;
                    }
                }
            } catch (const robust::StreakException& e) {
                // Rung: restore the last valid solution.
                if (!ladderMayAbsorb(e.error()) ||
                    !opts.recovery.postRollback) {
                    throw;
                }
                recordDegradation(&result, stage::kPost, "post.rolled_back",
                                  e.error());
                absorbedDeadline(e.error());
                result.routed = prePost;
                result.distanceViolationsAfter = prePostViolations;
                result.groupDistanceAfter = prePostFlags;
            }
        }
        annotateStage(&span, stats);
        // Degraded or not, the output must audit clean.
        STREAK_DEEP_AUDIT(
            check::auditRoutedDesign(result.problem, result.routed));

        result.metrics = evaluate(result.problem, result.routed);
    });
    if (obs::detailEnabled()) recordEdgeUtilization(result.routed);

    runSpan.addArg("threads", result.threadsUsed);
    runSpan.addArg("degradations",
                   static_cast<double>(result.degradations.size()));
    sess.tracer().endSpan(runSpan.id());
    result.trace = sess.tracer().snapshot();
    // minus({}) drops the counters and histograms that stayed at zero.
    result.counters = sess.snapshotMetrics().minus({});
    return result;
}

}  // namespace

FlowResult runStreak(const Design& design, const StreakOptions& callerOpts) {
    if (std::string why = validateOptions(callerOpts); !why.empty()) {
        robust::StreakError err;
        err.kind = robust::ErrorKind::InvalidInput;
        err.stage = stage::kRun;
        err.message = std::move(why);
        return FlowResult(std::move(err));
    }
    StreakOptions opts = callerOpts;
    // Arm the run-wide ticket; every stage below sees it through the
    // options copies it already receives (Problem::opts et al.).
    std::shared_ptr<const robust::Deadline> deadline;
    if (opts.deadlineSeconds > 0.0) {
        deadline = std::make_shared<robust::Deadline>(opts.deadlineSeconds);
    }
    opts.control = robust::Ticket(deadline, opts.cancel);

    try {
        return FlowResult(runStreakGuarded(design, opts));
    } catch (const robust::StreakException& e) {
        return FlowResult(e.error());
    } catch (const std::exception& e) {
        // Belt and braces: runStage should have wrapped everything, but
        // the rim between stages (snapshots) can still throw.
        robust::StreakError err;
        err.kind = robust::ErrorKind::Internal;
        err.stage = stage::kRun;
        err.message = e.what();
        return FlowResult(std::move(err));
    }
}

}  // namespace streak
