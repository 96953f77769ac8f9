// 0/1 branch-and-bound ILP solver over the simplex LP relaxation.
//
// Best-bound node selection, most-fractional branching, optional time /
// node limits (used to reproduce the paper's ">3600 s" ILP timeout rows).
#pragma once

#include "ilp/model.hpp"
#include "robust/deadline.hpp"

namespace streak::ilp {

struct BnbOptions {
    /// Wall-clock limit on the search, polled before every node and at
    /// every tick of a node's LP (each 64 simplex iterations). Reaching
    /// it ends the search with the incumbent and the gap to the best
    /// open node.
    double timeLimitSeconds = 60.0;
    long maxNodes = 1000000;
    /// Known upper bound from a warm-start solution (e.g. a primal-dual
    /// result): nodes at or above it are pruned, so the search only looks
    /// for strictly better solutions. +inf disables.
    double initialUpperBound = kInfinity;
    /// Run deadline polled once per node (and threaded into every LP
    /// relaxation solve). Unlike timeLimitSeconds — which ends the
    /// search with the incumbent — an expired deadline unwinds the solve
    /// with a structured StreakError.
    robust::Deadline control;
};

struct BnbStats {
    long nodesExplored = 0;
    bool hitLimit = false;
    /// Absolute optimality gap: 0 when proven; at a limit, the incumbent
    /// (or the warm-start bound when no incumbent was found) minus the
    /// best open node's bound. +inf when neither exists or the root LP
    /// never ran.
    double gap = 0.0;
};

/// Minimize the model with its integer variables restricted to {0, 1}.
/// Status: Optimal (proven), Feasible (incumbent, limit hit), Infeasible,
/// or Limit (limit hit before any incumbent, or a warm-start bound that
/// the search proved cannot be beaten). A search whose open nodes are
/// all dominated by the incumbent is proven even when a limit lands on
/// that step. Each node's LP relaxation is solved by one ilp::Relaxation
/// prepared for the whole search.
[[nodiscard]] Solution solveIlp(const Model& model, const BnbOptions& opts = {},
                                BnbStats* stats = nullptr);

}  // namespace streak::ilp
