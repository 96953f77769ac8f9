#include "core/ilp_router.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <span>

#include "check/audit.hpp"
#include "check/ilp_audit.hpp"
#include "core/tight.hpp"
#include "ilp/branch_and_bound.hpp"
#include "ilp/model.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "robust/fault.hpp"

namespace streak {

namespace {

/// Union-find over object indices.
class UnionFind {
public:
    explicit UnionFind(int n) : parent_(static_cast<size_t>(n)) {
        std::iota(parent_.begin(), parent_.end(), 0);
    }
    int find(int a) {
        while (parent_[static_cast<size_t>(a)] != a) {
            parent_[static_cast<size_t>(a)] =
                parent_[static_cast<size_t>(parent_[static_cast<size_t>(a)])];
            a = parent_[static_cast<size_t>(a)];
        }
        return a;
    }
    void unite(int a, int b) { parent_[static_cast<size_t>(find(a))] = find(b); }

private:
    std::vector<int> parent_;
};

/// Objective contribution of a component under a given assignment.
double componentObjective(const RoutingProblem& prob,
                          const std::vector<int>& objs,
                          const std::vector<int>& chosen) {
    double total = 0.0;
    for (const int i : objs) {
        const int j = chosen[static_cast<size_t>(i)];
        if (j < 0) {
            total += kNonRoutePenaltyM;
        } else {
            total += prob.candidates[static_cast<size_t>(i)]
                                    [static_cast<size_t>(j)].cost;
        }
    }
    std::vector<bool> inComp(chosen.size(), false);
    for (const int i : objs) inComp[static_cast<size_t>(i)] = true;
    for (const PairBlock& pb : prob.pairBlocks) {
        if (!inComp[static_cast<size_t>(pb.objA)]) continue;
        const int ja = chosen[static_cast<size_t>(pb.objA)];
        const int jb = chosen[static_cast<size_t>(pb.objB)];
        if (ja >= 0 && jb >= 0) {
            total += pb.cost[static_cast<size_t>(ja)][static_cast<size_t>(jb)];
        }
    }
    return total;
}

}  // namespace

namespace {

/// Outcome of one component's branch-and-bound, merged in component order.
struct ComponentOutcome {
    /// (object, candidate or -1) assignments; empty when the component
    /// found no solution and the warm start (if any) stands.
    std::vector<std::pair<int, int>> chosen;
    long nodesExplored = 0;
    bool hitTimeLimit = false;
    double gap = 0.0;
};

}  // namespace

IlpRouteResult solveIlpRouting(const RoutingProblem& prob,
                               double timeLimitSeconds,
                               const RoutingSolution* warmStart) {
    // One deadline for the whole stage, measured from here.
    const obs::Stopwatch stage;
    IlpRouteResult result;
    if (warmStart != nullptr) {
        STREAK_REQUIRE(static_cast<int>(warmStart->chosen.size()) ==
                           prob.numObjects(),
                       "warm start covers {} objects, problem has {}",
                       warmStart->chosen.size(), prob.numObjects());
        result.solution.chosen = warmStart->chosen;
    } else {
        result.solution.chosen.assign(static_cast<size_t>(prob.numObjects()),
                                      -1);
    }

    // Only tight edges and via cells need capacity rows (3c), and only
    // they couple otherwise-independent objects.
    const TightIndex tight = buildTightIndex(prob);

    // Component decomposition: same-group objects interact through pair
    // costs; objects sharing a tight edge or via cell interact through
    // capacity.
    UnionFind uf(prob.numObjects());
    for (const std::vector<int>& members : prob.groupObjects) {
        for (size_t k = 1; k < members.size(); ++k) {
            uf.unite(members[0], members[k]);
        }
    }
    for (const TightElements* el : {&tight.edges, &tight.viaCells}) {
        for (int k = 0; k < el->size(); ++k) {
            // Users are sorted by object, so each object joins the first
            // one's set in object order; repeats are already in it.
            const std::span<const TightUse> users = el->usersOf(k);
            for (const TightUse& u : users) {
                uf.unite(users.front().object, u.object);
            }
        }
    }
    // Roots resolved up front: find() path-compresses, so the parallel
    // component solves below must only read the frozen root table.
    std::vector<int> rootOf(static_cast<size_t>(prob.numObjects()));
    std::map<int, std::vector<int>> componentMap;
    for (int i = 0; i < prob.numObjects(); ++i) {
        rootOf[static_cast<size_t>(i)] = uf.find(i);
        componentMap[rootOf[static_cast<size_t>(i)]].push_back(i);
    }
    result.components = static_cast<int>(componentMap.size());

    // Smallest components first (by total candidate count): stable across
    // runs, and the cheap proofs land before the expensive ones.
    std::vector<std::pair<int, std::vector<int>>> components(
        componentMap.begin(), componentMap.end());
    const auto weightOf = [&](const std::vector<int>& objs) {
        size_t w = 0;
        for (const int i : objs) {
            w += prob.candidates[static_cast<size_t>(i)].size();
        }
        return w;
    };
    std::stable_sort(components.begin(), components.end(),
                     [&](const auto& a, const auto& b) {
                         return weightOf(a.second) < weightOf(b.second);
                     });

    const auto solveComponent = [&](int comp) {
        // Worker-side span: nests under the owning region's span through
        // the thread pool's worker binding, one per independent component.
        STREAK_SPAN("ilp/component");
        STREAK_FAULT_POINT("ilp/solve");
        const int root = components[static_cast<size_t>(comp)].first;
        const std::vector<int>& objs =
            components[static_cast<size_t>(comp)].second;
        ComponentOutcome outcome;
        ilp::Model model;
        // x variables per (object, candidate); s per object.
        std::map<std::pair<int, int>, int> xVar;
        std::map<int, int> sVar;
        for (const int i : objs) {
            const auto& cands = prob.candidates[static_cast<size_t>(i)];
            for (size_t j = 0; j < cands.size(); ++j) {
                xVar[{i, static_cast<int>(j)}] =
                    model.addVariable(cands[j].cost, /*integer=*/true);
            }
            sVar[i] = model.addVariable(kNonRoutePenaltyM, /*integer=*/false);
        }
        // (3b): sum_j x_ij + s_i = 1.
        for (const int i : objs) {
            std::vector<std::pair<int, double>> row;
            const auto& cands = prob.candidates[static_cast<size_t>(i)];
            for (size_t j = 0; j < cands.size(); ++j) {
                row.emplace_back(xVar.at({i, static_cast<int>(j)}), 1.0);
            }
            row.emplace_back(sVar.at(i), 1.0);
            model.addRow(std::move(row), ilp::Sense::Equal, 1.0);
        }
        // (3c): capacity rows on the tight edges, then the tight via
        // cells, touched by this component.
        const auto addCapacityRows = [&](const TightElements& el,
                                         const auto& capacityOf) {
            for (int k = 0; k < el.size(); ++k) {
                std::vector<std::pair<int, double>> row;
                for (const TightUse& u : el.usersOf(k)) {
                    if (rootOf[static_cast<size_t>(u.object)] != root) continue;
                    row.emplace_back(xVar.at({u.object, u.candidate}),
                                     static_cast<double>(u.amount));
                }
                if (!row.empty()) {
                    model.addRow(std::move(row), ilp::Sense::LessEqual,
                                 static_cast<double>(capacityOf(
                                     el.ids[static_cast<size_t>(k)])));
                }
            }
        };
        addCapacityRows(tight.edges, [&](int edge) {
            return prob.design->grid.capacity(edge);
        });
        addCapacityRows(tight.viaCells, [&](int cell) {
            return prob.design->grid.viaCapacity(cell);
        });
        // Linearized pair terms: y >= x_ij + x_pq - 1, cost >= 0.
        for (const PairBlock& pb : prob.pairBlocks) {
            if (rootOf[static_cast<size_t>(pb.objA)] != root) continue;
            for (size_t j = 0; j < pb.cost.size(); ++j) {
                for (size_t q = 0; q < pb.cost[j].size(); ++q) {
                    const double c = pb.cost[j][q];
                    if (c <= 0.0) continue;
                    const int y = model.addVariable(c, /*integer=*/false);
                    model.addRow({{y, 1.0},
                                  {xVar.at({pb.objA, static_cast<int>(j)}), -1.0},
                                  {xVar.at({pb.objB, static_cast<int>(q)}), -1.0}},
                                 ilp::Sense::GreaterEqual, -1.0);
                }
            }
        }

        // The model as built must be structurally sound: the product-term
        // linearization only references x variables of this component and
        // every capacity row a valid candidate demand.
        STREAK_DEEP_AUDIT(check::auditIlpModel(model));

        // A component may search until the stage deadline, so the time
        // that components finished early left over goes to the ones still
        // running. The clock only decides where a capped search stops:
        // a component that finishes in time is proven whatever the
        // thread count or the order components ran in.
        ilp::BnbOptions bopts;
        bopts.timeLimitSeconds =
            std::max(0.0, timeLimitSeconds - stage.seconds());
        bopts.control = prob.opts.control;
        if (warmStart != nullptr) {
            bopts.initialUpperBound =
                componentObjective(prob, objs, warmStart->chosen);
        }
        ilp::BnbStats stats;
        const ilp::Solution sol = ilp::solveIlp(model, bopts, &stats);
        outcome.nodesExplored = stats.nodesExplored;
        outcome.hitTimeLimit = stats.hitLimit;
        outcome.gap = stats.gap;
        if (!sol.hasSolution()) return outcome;  // warm start (if any) stands
        std::map<int, int> pick;
        for (const int i : objs) pick[i] = -1;
        for (const auto& [key, var] : xVar) {
            if (sol.values[static_cast<size_t>(var)] > 0.5) {
                pick[key.first] = key.second;
            }
        }
        outcome.chosen.assign(pick.begin(), pick.end());
        return outcome;
    };

    if (obs::detailEnabled()) {
        obs::session()
            .counter("ilp/router.components")
            .add(static_cast<long long>(components.size()));
    }

    // Components solve in parallel; outcomes merge in the (deterministic)
    // sorted component order, each touching a disjoint slice of `chosen`.
    parallel::ThreadPool pool(parallel::resolveThreads(prob.opts.threads));
    pool.setControl(prob.opts.control);
    pool.orderedReduce<ComponentOutcome>(
        static_cast<int>(components.size()), solveComponent,
        [&](int /*comp*/, ComponentOutcome&& outcome) {
            result.nodesExplored += outcome.nodesExplored;
            if (outcome.hitTimeLimit) result.hitTimeLimit = true;
            result.gap += outcome.gap;
            for (const auto& [obj, cand] : outcome.chosen) {
                result.solution.chosen[static_cast<size_t>(obj)] = cand;
            }
        });
    result.parallelStats.merge(pool.stats());

    result.solution.hitLimit = result.hitTimeLimit;
    result.solution.objective =
        solutionObjective(prob, result.solution.chosen);
    STREAK_DEEP_AUDIT(check::auditSolution(prob, result.solution));
    return result;
}

}  // namespace streak
