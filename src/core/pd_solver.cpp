#include "core/pd_solver.hpp"

#include <algorithm>
#include <limits>

#include "check/audit.hpp"
#include "core/tight.hpp"
#include "grid/routing_grid.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "robust/fault.hpp"

namespace streak {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Alg. 2, run incrementally. Per candidate it caches alive and
/// c(i, j) + c'(i, j), and per object its cheapest alive candidate. A
/// commit re-checks only the users of the committed candidate's tight
/// elements and re-costs only the objects whose c' inputs changed, so
/// every cached value is the double the literal rescan would compute.
class PdState {
public:
    explicit PdState(const RoutingProblem& prob)
        : prob_(prob), tight_(buildTightIndex(prob)),
          usage_(prob.design->grid) {
        const auto n = static_cast<size_t>(prob.numObjects());
        first_.reserve(n + 1);
        size_t total = 0;
        for (const auto& cands : prob.candidates) {
            first_.push_back(total);
            total += cands.size();
        }
        first_.push_back(total);
        alive_.assign(total, 1);
        cost_.assign(total, kInf);
        aliveCount_.resize(n);
        for (size_t i = 0; i < n; ++i) {
            aliveCount_[i] = static_cast<int>(first_[i + 1] - first_[i]);
        }
        chosen_.assign(n, -1);
        decided_.assign(n, 0);
        bestCand_.assign(n, -1);
        bestCost_.assign(n, kInf);
        stale_.assign(n, 0);
        shrunkMark_.assign(n, 0);
    }

    PdResult run() {
        PdResult result;
        // Objects with no candidate at all are non-routable up front.
        for (int i = 0; i < prob_.numObjects(); ++i) {
            if (aliveCount_[static_cast<size_t>(i)] == 0) {
                decided_[static_cast<size_t>(i)] = 1;
            } else {
                recost(i);
            }
        }
        bool firstCommit = true;
        for (;;) {
            // Tick point: one poll per committed object.
            prob_.opts.control.checkpoint("pd/iteration");
            STREAK_FAULT_POINT("pd/iteration");
            // Line 5-6: pick the undecided object / candidate with the
            // minimum c(i, j) + c'(i, j) among currently feasible ones.
            // Each object's cached best is its first strict minimum in
            // candidate order, so the first strict minimum over objects
            // is the (object, candidate)-order scan's pick.
            int bestObj = -1;
            double bestCost = kInf;
            for (int i = 0; i < prob_.numObjects(); ++i) {
                const auto at = static_cast<size_t>(i);
                if (decided_[at] || bestCand_[at] < 0) continue;
                if (bestCost_[at] < bestCost) {
                    bestCost = bestCost_[at];
                    bestObj = i;
                }
            }
            // Objects whose candidate sets drained are skipped (s_p = 1).
            bool anyUndecided = false;
            for (int i = 0; i < prob_.numObjects(); ++i) {
                const auto at = static_cast<size_t>(i);
                if (decided_[at] || i == bestObj) continue;
                if (aliveCount_[at] == 0) {
                    decided_[at] = 1;
                } else {
                    anyUndecided = true;
                }
            }
            if (bestObj < 0) break;  // everything decided or dead

            // Line 7: commit; the dual objective rises by the admitted
            // cost (the object's cheapest alive base cost).
            const auto obj = static_cast<size_t>(bestObj);
            STREAK_ASSERT(!decided_[obj],
                          "object {} picked twice by the primal-dual loop",
                          bestObj);
            const int bestCand = bestCand_[obj];
            ++result.iterations;
            result.dualBound += minAliveBaseCost(bestObj);
            chosen_[obj] = bestCand;
            decided_[obj] = 1;

            // Line 8: update capacities.
            const RouteCandidate& cand =
                prob_.candidates[obj][static_cast<size_t>(bestCand)];
            for (const auto& [edge, amount] : cand.edgeUse) {
                usage_.add(edge, amount);
            }
            for (const auto& [cell, amount] : cand.viaUse) {
                usage_.addVias(cell, amount);
            }
            // Line 9: remove primal solutions made infeasible by the
            // reduced capacities.
            pruneInfeasible(cand, firstCommit);
            firstCommit = false;
            // Refresh c' for the group mates of the committed object and
            // of every object that lost a candidate.
            markMatesStale(bestObj);
            for (const int i : shrunk_) markMatesStale(i);
            for (const int i : staleList_) {
                stale_[static_cast<size_t>(i)] = 0;
                if (!decided_[static_cast<size_t>(i)]) recost(i);
            }
            for (const int i : shrunk_) {
                // A pruned candidate leaves its own object's c' alone.
                shrunkMark_[static_cast<size_t>(i)] = 0;
                if (!decided_[static_cast<size_t>(i)]) pickBest(i);
            }
            staleList_.clear();
            shrunk_.clear();

            if (!anyUndecided) break;
        }

        result.solution.chosen = chosen_;
        result.solution.objective = solutionObjective(prob_, chosen_);
        // Counters are accumulated locally above and flushed once, so the
        // gate check is off the per-iteration path.
        if (obs::detailEnabled()) {
            obs::Session& sess = obs::session();
            sess.counter("solve/pd.iterations").add(result.iterations);
            sess.counter("solve/pd.pruned_candidates").add(prunedCandidates_);
            sess.counter("solve/pd.recosts").add(recosts_);
            sess.counter("solve/pd.prune_checks").add(pruneChecks_);
        }
        // The dual bound certifies weak duality; a violation means the
        // capacity pruning admitted an infeasible pick somewhere.
        STREAK_INVARIANT(
            result.dualBound <= result.solution.objective + 1e-6,
            "dual bound {} exceeds primal objective {} after {} iterations",
            result.dualBound, result.solution.objective, result.iterations);
        STREAK_DEEP_AUDIT(check::auditSolution(prob_, result.solution));
        return result;
    }

private:
    /// Re-cost every alive candidate of object i: c(i, j) + c'(i, j), with
    /// c' per Eq. (5) summed over i's pair blocks in pairsOf order.
    /// Decided group mates contribute their exact pair cost; undecided
    /// ones their minimum pair cost over their alive candidates.
    void recost(int i) {
        const auto& cands = prob_.candidates[static_cast<size_t>(i)];
        const size_t base = first_[static_cast<size_t>(i)];
        cPrime_.assign(cands.size(), 0.0);
        for (const int block : prob_.pairsOf[static_cast<size_t>(i)]) {
            const PairBlock& pb = prob_.pairBlocks[static_cast<size_t>(block)];
            const bool isA = pb.objA == i;
            const int p = isA ? pb.objB : pb.objA;
            // cost(j, q) = c(i, j, p, q) in either block orientation.
            const auto cost = [&](size_t j, size_t q) {
                return isA ? pb.cost[j][q] : pb.cost[q][j];
            };
            const int cp = chosen_[static_cast<size_t>(p)];
            if (cp >= 0) {
                for (size_t j = 0; j < cands.size(); ++j) {
                    if (alive_[base + j]) {
                        cPrime_[j] += cost(j, static_cast<size_t>(cp));
                    }
                }
                continue;
            }
            if (decided_[static_cast<size_t>(p)]) continue;
            partnerAlive_.clear();
            const size_t pBase = first_[static_cast<size_t>(p)];
            for (size_t q = pBase; q < first_[static_cast<size_t>(p) + 1];
                 ++q) {
                if (alive_[q]) partnerAlive_.push_back(q - pBase);
            }
            for (size_t j = 0; j < cands.size(); ++j) {
                if (!alive_[base + j]) continue;
                double best = kInf;
                for (const size_t q : partnerAlive_) {
                    best = std::min(best, cost(j, q));
                }
                if (best < kInf) cPrime_[j] += best;
            }
        }
        for (size_t j = 0; j < cands.size(); ++j) {
            if (!alive_[base + j]) continue;
            cost_[base + j] = cands[j].cost + cPrime_[j];
            ++recosts_;
        }
        pickBest(i);
    }

    /// The first alive candidate of object i with the strictly smallest
    /// cached cost (-1 when no cost is below infinity).
    void pickBest(int i) {
        const size_t base = first_[static_cast<size_t>(i)];
        const size_t end = first_[static_cast<size_t>(i) + 1];
        int best = -1;
        double bestCost = kInf;
        for (size_t s = base; s < end; ++s) {
            if (alive_[s] && cost_[s] < bestCost) {
                bestCost = cost_[s];
                best = static_cast<int>(s - base);
            }
        }
        bestCand_[static_cast<size_t>(i)] = best;
        bestCost_[static_cast<size_t>(i)] = bestCost;
    }

    [[nodiscard]] double minAliveBaseCost(int i) const {
        double best = kInf;
        const auto& cands = prob_.candidates[static_cast<size_t>(i)];
        const size_t base = first_[static_cast<size_t>(i)];
        for (size_t j = 0; j < cands.size(); ++j) {
            if (alive_[base + j]) best = std::min(best, cands[j].cost);
        }
        return best < kInf ? best : 0.0;
    }

    /// Prune the alive candidates of undecided objects that no longer fit.
    /// Usage only grows and a non-tight element always has room for any
    /// one object's use, so after the first commit (which also catches
    /// candidates that never fit) only the users of the committed
    /// candidate's tight elements can have become infeasible.
    void pruneInfeasible(const RouteCandidate& committed, bool everything) {
        const auto check = [&](const TightElements& el, int k, int remaining) {
            for (const TightUse& u : el.usersOf(k)) {
                ++pruneChecks_;
                const auto obj = static_cast<size_t>(u.object);
                const size_t s = first_[obj] + static_cast<size_t>(u.candidate);
                if (decided_[obj] || !alive_[s] || remaining >= u.amount) {
                    continue;
                }
                alive_[s] = 0;
                --aliveCount_[obj];
                ++prunedCandidates_;
                if (!shrunkMark_[obj]) {
                    shrunkMark_[obj] = 1;
                    shrunk_.push_back(u.object);
                }
            }
        };
        const TightElements& edges = tight_.edges;
        const TightElements& cells = tight_.viaCells;
        if (everything) {
            for (int k = 0; k < edges.size(); ++k) {
                check(edges, k,
                      usage_.remaining(edges.ids[static_cast<size_t>(k)]));
            }
            for (int k = 0; k < cells.size(); ++k) {
                check(cells, k,
                      usage_.viaRemaining(cells.ids[static_cast<size_t>(k)]));
            }
            return;
        }
        for (const auto& [edge, amount] : committed.edgeUse) {
            const int k = edges.slotOf(edge);
            if (k >= 0) check(edges, k, usage_.remaining(edge));
        }
        for (const auto& [cell, amount] : committed.viaUse) {
            const int k = cells.slotOf(cell);
            if (k >= 0) check(cells, k, usage_.viaRemaining(cell));
        }
    }

    /// Queue the undecided group mates of object i for a re-cost.
    void markMatesStale(int i) {
        for (const int block : prob_.pairsOf[static_cast<size_t>(i)]) {
            const int p = prob_.pairOther(block, i);
            const auto at = static_cast<size_t>(p);
            if (decided_[at] || stale_[at]) continue;
            stale_[at] = 1;
            staleList_.push_back(p);
        }
    }

    const RoutingProblem& prob_;
    const TightIndex tight_;
    grid::EdgeUsage usage_;
    /// Candidates of object i are flat slots first_[i] .. first_[i + 1].
    std::vector<size_t> first_;
    std::vector<char> alive_;
    std::vector<double> cost_;  // c + c', valid for alive slots
    std::vector<int> aliveCount_;
    std::vector<int> chosen_;
    std::vector<char> decided_;
    std::vector<int> bestCand_;
    std::vector<double> bestCost_;
    std::vector<char> stale_;
    std::vector<int> staleList_;
    std::vector<char> shrunkMark_;
    std::vector<int> shrunk_;
    std::vector<double> cPrime_;         // recost scratch
    std::vector<size_t> partnerAlive_;  // recost scratch
    long prunedCandidates_ = 0;
    long long recosts_ = 0;
    long long pruneChecks_ = 0;
};

}  // namespace

PdResult solvePrimalDual(const RoutingProblem& prob) {
    STREAK_SPAN("solve/pd");
    return PdState(prob).run();
}

}  // namespace streak
