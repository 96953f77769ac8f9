// Primal-dual selection flow (Sec. III-D, Algorithm 2).
//
// A progressive primal-dual scheme over the linearized formulation
// (Eq. 4-6): starting from the all-zero (primal infeasible, dual feasible)
// point, the cheapest feasible candidate — base cost c(i, j) plus the
// linearized pair cost c'(i, j) — is committed each iteration; capacities
// are updated, newly infeasible candidates are pruned, and c' values are
// refreshed for the affected group mates.
//
// The loop is incremental and picks exactly what the literal rescan
// picks. Once per solve it indexes the tight edges and via cells
// (core/tight.hpp) with their users; a commit re-checks only the users of
// the committed candidate's tight elements, since no other element can
// prune anything. It caches c + c' per alive candidate and re-costs only
// the objects whose group mate was just chosen or lost a candidate,
// summing c' in the same order, so every cost is the same double. The
// pick is the first strict minimum in (object, candidate) order.
//
// With detail instrumentation on, the solve records the span solve/pd and
// the counters solve/pd.{iterations, pruned_candidates, recosts (c + c'
// evaluations), prune_checks (tight-element users examined)}.
#pragma once

#include "core/problem.hpp"
#include "core/solution.hpp"

namespace streak {

struct PdResult {
    RoutingSolution solution;
    /// Lower bound certified by the dual construction (sum of per-object
    /// minimum admissible costs at commit time). Only this scalar is kept;
    /// the solver holds no explicit alpha / beta dual vectors.
    double dualBound = 0.0;
    int iterations = 0;
};

[[nodiscard]] PdResult solvePrimalDual(const RoutingProblem& prob);

}  // namespace streak
