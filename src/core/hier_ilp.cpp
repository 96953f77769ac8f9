#include "core/hier_ilp.hpp"

#include <algorithm>
#include <set>

namespace streak {

FilteredProblem filterProblem(const RoutingProblem& src,
                              const std::vector<std::vector<int>>& keep) {
    FilteredProblem out;
    out.prob.design = src.design;
    out.prob.opts = src.opts;
    out.prob.objects = src.objects;
    out.prob.shapes = src.shapes;
    out.prob.groupObjects = src.groupObjects;
    out.toOriginal = keep;

    out.prob.candidates.reserve(src.candidates.size());
    for (size_t i = 0; i < src.candidates.size(); ++i) {
        std::vector<RouteCandidate> cands;
        cands.reserve(keep[i].size());
        for (const int j : keep[i]) {
            cands.push_back(src.candidates[i][static_cast<size_t>(j)]);
        }
        out.prob.candidates.push_back(std::move(cands));
    }

    out.prob.pairsOf.assign(src.objects.size(), {});
    for (const PairBlock& pb : src.pairBlocks) {
        const auto& keepA = keep[static_cast<size_t>(pb.objA)];
        const auto& keepB = keep[static_cast<size_t>(pb.objB)];
        if (keepA.empty() || keepB.empty()) continue;
        PairBlock nb;
        nb.objA = pb.objA;
        nb.objB = pb.objB;
        nb.cost.reserve(keepA.size());
        for (const int ja : keepA) {
            std::vector<double> row;
            row.reserve(keepB.size());
            for (const int jb : keepB) {
                row.push_back(pb.cost[static_cast<size_t>(ja)]
                                     [static_cast<size_t>(jb)]);
            }
            nb.cost.push_back(std::move(row));
        }
        const int id = static_cast<int>(out.prob.pairBlocks.size());
        out.prob.pairBlocks.push_back(std::move(nb));
        out.prob.pairsOf[static_cast<size_t>(pb.objA)].push_back(id);
        out.prob.pairsOf[static_cast<size_t>(pb.objB)].push_back(id);
    }
    return out;
}

namespace {

/// Translate a solution in original indices into filtered indices: the
/// same candidate if kept, else any kept candidate with the same backbone
/// (a valid warm start of equal topology), else none.
RoutingSolution mapWarmStart(const RoutingProblem& src,
                             const FilteredProblem& filtered,
                             const RoutingSolution& warm) {
    RoutingSolution out;
    out.chosen.assign(warm.chosen.size(), -1);
    for (size_t i = 0; i < warm.chosen.size(); ++i) {
        const int jOld = warm.chosen[i];
        if (jOld < 0) continue;
        const auto& keep = filtered.toOriginal[i];
        const auto exact = std::find(keep.begin(), keep.end(), jOld);
        if (exact != keep.end()) {
            out.chosen[i] = static_cast<int>(exact - keep.begin());
            continue;
        }
        const int bb = src.candidates[i][static_cast<size_t>(jOld)].backboneId;
        for (size_t j = 0; j < keep.size(); ++j) {
            if (src.candidates[i][static_cast<size_t>(keep[j])].backboneId ==
                bb) {
                out.chosen[i] = static_cast<int>(j);
                break;
            }
        }
    }
    // Remapping can move a candidate to different layers; drop whatever no
    // longer fits so the warm start is a genuine feasible solution.
    makeCapacityFeasible(filtered.prob, &out);
    return out;
}

RoutingSolution mapBack(const FilteredProblem& filtered,
                        const RoutingSolution& sol) {
    RoutingSolution out;
    out.chosen.assign(sol.chosen.size(), -1);
    for (size_t i = 0; i < sol.chosen.size(); ++i) {
        if (sol.chosen[i] >= 0) {
            out.chosen[i] =
                filtered.toOriginal[i][static_cast<size_t>(sol.chosen[i])];
        }
    }
    out.hitLimit = sol.hitLimit;
    return out;
}

}  // namespace

IlpRouteResult solveIlpHierarchical(const RoutingProblem& prob,
                                    double timeLimitSeconds,
                                    const RoutingSolution* warmStart) {
    // Stage 1: topology selection — cheapest layer pair per backbone.
    std::vector<std::vector<int>> stage1Keep(prob.candidates.size());
    for (size_t i = 0; i < prob.candidates.size(); ++i) {
        std::set<int> seen;
        for (size_t j = 0; j < prob.candidates[i].size(); ++j) {
            if (seen.insert(prob.candidates[i][j].backboneId).second) {
                stage1Keep[i].push_back(static_cast<int>(j));
            }
        }
    }
    const FilteredProblem stage1 = filterProblem(prob, stage1Keep);
    RoutingSolution warm1;
    const RoutingSolution* warm1Ptr = nullptr;
    if (warmStart != nullptr) {
        warm1 = mapWarmStart(prob, stage1, *warmStart);
        warm1Ptr = &warm1;
    }
    IlpRouteResult r1 =
        solveIlpRouting(stage1.prob, timeLimitSeconds / 2.0, warm1Ptr);

    // Stage-1 result expressed in original candidate indices.
    const RoutingSolution r1Original = mapBack(stage1, r1.solution);

    // Stage 2: layering — candidates restricted to the stage-1 backbone
    // (all candidates when stage 1 left the object unrouted, so stage 2
    // can still rescue it).
    std::vector<std::vector<int>> stage2Keep(prob.candidates.size());
    for (size_t i = 0; i < prob.candidates.size(); ++i) {
        const int j1 = r1Original.chosen[i];
        if (j1 < 0) {
            for (size_t j = 0; j < prob.candidates[i].size(); ++j) {
                stage2Keep[i].push_back(static_cast<int>(j));
            }
            continue;
        }
        const int bb = prob.candidates[i][static_cast<size_t>(j1)].backboneId;
        for (size_t j = 0; j < prob.candidates[i].size(); ++j) {
            if (prob.candidates[i][j].backboneId == bb) {
                stage2Keep[i].push_back(static_cast<int>(j));
            }
        }
    }
    const FilteredProblem stage2 = filterProblem(prob, stage2Keep);
    const RoutingSolution warm2 = mapWarmStart(prob, stage2, r1Original);
    IlpRouteResult r2 =
        solveIlpRouting(stage2.prob, timeLimitSeconds / 2.0, &warm2);

    IlpRouteResult out;
    out.solution = mapBack(stage2, r2.solution);
    out.solution.objective = solutionObjective(prob, out.solution.chosen);
    out.nodesExplored = r1.nodesExplored + r2.nodesExplored;
    out.components = r2.components;
    out.hitTimeLimit = r1.hitTimeLimit || r2.hitTimeLimit;
    out.parallelStats.merge(r1.parallelStats);
    out.parallelStats.merge(r2.parallelStats);

    // MIP-start contract: never return worse than the warm start. The
    // stage-1 candidate reduction can strand a warm start behind capacity
    // repairs; if the cascade ends up costlier, the original stands.
    if (warmStart != nullptr) {
        const double warmObjective = solutionObjective(prob, warmStart->chosen);
        if (warmObjective < out.solution.objective) {
            out.solution.chosen = warmStart->chosen;
            out.solution.objective = warmObjective;
        }
    }
    out.solution.hitLimit = out.hitTimeLimit;
    return out;
}

}  // namespace streak
