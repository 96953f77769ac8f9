// The assembled routing problem: objects, candidate sets and the pairwise
// regularity costs of formulation (3), ready for either solver.
#pragma once

#include <vector>

#include "core/candidate.hpp"
#include "core/identify.hpp"
#include "core/options.hpp"
#include "core/signal.hpp"
#include "parallel/thread_pool.hpp"

namespace streak {

/// Pairwise candidate costs c(i, j, p, q) between two group mates:
/// cost[j][q] for candidates j of objA and q of objB.
struct PairBlock {
    int objA = 0;
    int objB = 0;  // objA < objB
    std::vector<std::vector<double>> cost;
};

struct RoutingProblem {
    const Design* design = nullptr;
    StreakOptions opts;
    std::vector<RoutingObject> objects;
    /// shapes[i][b] = shape of backbone b of object i, for every backbone
    /// generated, whether or not any of its layer pairs fit.
    std::vector<std::vector<BackboneShape>> shapes;
    /// candidates[i] = candidate set of object i (may be empty).
    std::vector<std::vector<RouteCandidate>> candidates;
    /// groupObjects[g] = object ids belonging to group g.
    std::vector<std::vector<int>> groupObjects;
    std::vector<PairBlock> pairBlocks;
    /// pairsOf[i] = indices into pairBlocks that involve object i.
    std::vector<std::vector<int>> pairsOf;

    [[nodiscard]] int numObjects() const { return static_cast<int>(objects.size()); }

    /// c(i, j, p, q) lookup through a pair block (either orientation).
    [[nodiscard]] double pairCost(int block, int obj, int candOfObj,
                                  int candOfOther) const {
        const PairBlock& pb = pairBlocks[static_cast<size_t>(block)];
        if (obj == pb.objA) {
            return pb.cost[static_cast<size_t>(candOfObj)]
                          [static_cast<size_t>(candOfOther)];
        }
        return pb.cost[static_cast<size_t>(candOfOther)]
                      [static_cast<size_t>(candOfObj)];
    }

    /// The other endpoint of a pair block.
    [[nodiscard]] int pairOther(int block, int obj) const {
        const PairBlock& pb = pairBlocks[static_cast<size_t>(block)];
        return obj == pb.objA ? pb.objB : pb.objA;
    }

    /// Lower bound on formulation (3): sum of per-object minimum base
    /// costs (pair terms and M are non-negative). Used by tests to check
    /// weak duality of both solvers.
    [[nodiscard]] double costLowerBound() const;
};

/// Run identification, backbone/equivalent-topology generation, 3-D
/// expansion and pair-cost precomputation for a design. Candidate
/// generation and pair-cost blocks parallelize over objects / groups
/// (`opts.threads`); the result is identical for every thread count.
/// `parallelStats`, when given, accumulates the stage's region stats.
/// With detail instrumentation on, records the spans build/candidates and
/// build/pairs and the counters build/candidates.{objects, backbones,
/// candidates} and build/pairs.{blocks, ratio_evals}.
[[nodiscard]] RoutingProblem buildProblem(
    const Design& design, const StreakOptions& opts,
    parallel::RegionStats* parallelStats = nullptr);

}  // namespace streak
