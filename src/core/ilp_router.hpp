// Exact route selection via 0/1 ILP (Sec. III-C, formulation (3)).
//
// The quadratic regularity terms x_ij * x_pq are linearized with
// continuous product variables y >= x_ij + x_pq - 1, y >= 0 (valid because
// all pair costs are non-negative). Independent connected components —
// objects linked by group membership or by contended edges — are solved
// separately, sharing one time budget; hitting it reproduces the paper's
// ">3600 s" rows (at our scale, a smaller default).
#pragma once

#include "core/problem.hpp"
#include "core/solution.hpp"
#include "parallel/thread_pool.hpp"

namespace streak {

struct IlpRouteResult {
    RoutingSolution solution;
    long nodesExplored = 0;
    int components = 0;
    bool hitTimeLimit = false;
    /// Sum of the components' absolute optimality gaps (ilp::BnbStats::gap,
    /// measured against the warm start where a component kept it): 0 when
    /// every component was proven, +inf when one was capped before its
    /// root LP.
    double gap = 0.0;
    /// Stats of the per-component parallel solve (`opts.threads` workers).
    parallel::RegionStats parallelStats;
};

/// `warmStart` (typically the primal-dual result) seeds every component
/// with a known solution: the branch-and-bound only searches for strictly
/// better selections and the warm choice is kept when the time limit cuts
/// a component short — mirroring how a commercial solver's MIP start
/// behaves under the paper's 3600 s cap.
///
/// Components solve in parallel (`prob.opts.threads`) under one stage
/// deadline: each component may search until `timeLimitSeconds` after
/// the call began, so time that finished components left is not lost.
/// A run that meets the deadline proves every component, and its result
/// is byte-identical for every thread count; only a run that hits the
/// limit depends on how far each capped search got.
[[nodiscard]] IlpRouteResult solveIlpRouting(
    const RoutingProblem& prob, double timeLimitSeconds,
    const RoutingSolution* warmStart = nullptr);

}  // namespace streak
