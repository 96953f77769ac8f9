#include "post/clustering.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "core/regularity.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "post/layer_predict.hpp"
#include "robust/fault.hpp"

namespace streak::post {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Cluster {
    /// (objectIndex, memberIndex) of every bit in the cluster.
    std::vector<std::pair<int, int>> members;
    /// Candidate topologies of the *founding* member (cluster style), one
    /// per backbone of its object, pointing into the group's candidate
    /// lists.
    std::vector<const steiner::Topology*> candidates;
    /// Committed topology per member once routed (member-aligned).
    std::vector<steiner::Topology> routedTopos;
    /// Index into `candidates` of the committed style; -1 until routed.
    int styleIdx = -1;
    bool dead = false;  // no feasible candidate remains

    [[nodiscard]] bool routed() const { return styleIdx >= 0; }
    [[nodiscard]] const steiner::Topology& style() const {
        return routedTopos.front();
    }
};

/// Work done by one clusterAndRoute call, flushed as post/cluster.*.
struct ClusterWork {
    long long rounds = 0;
    long long pairCosts = 0;
    long long ratioEvals = 0;
    long long fitsCalls = 0;
    long long merges = 0;
};

/// Cost of adopting a candidate: wire-length plus via weight, mirroring
/// the candidate cost model.
double baseCost(const steiner::Topology& t, const StreakOptions& opts) {
    return static_cast<double>(t.wirelength()) +
           opts.viaWeight * (t.bendCount() + static_cast<int>(t.pins().size()));
}

bool fits(const grid::EdgeUsage& usage, const steiner::Topology& t,
          const LayerPrediction& layers, ClusterWork* work) {
    ++work->fitsCalls;
    const grid::RoutingGrid& grid = usage.grid();
    for (const steiner::UnitEdge& e : t.wire()) {
        const int layer = e.horizontal ? layers.hLayer : layers.vLayer;
        if (!grid.validEdge(layer, e.at.x, e.at.y)) return false;
        if (usage.remaining(grid.edgeId(layer, e.at.x, e.at.y)) < 1) {
            return false;
        }
    }
    if (grid.viaLimited()) {
        for (const auto& [cell, amount] : computeViaUse(grid, t)) {
            if (usage.viaRemaining(cell) < amount) return false;
        }
    }
    return true;
}

void commit(grid::EdgeUsage* usage, const steiner::Topology& t,
            const LayerPrediction& layers) {
    const grid::RoutingGrid& grid = usage->grid();
    for (const steiner::UnitEdge& e : t.wire()) {
        const int layer = e.horizontal ? layers.hLayer : layers.vLayer;
        usage->add(grid.edgeId(layer, e.at.x, e.at.y), 1);
    }
    if (grid.viaLimited()) {
        for (const auto& [cell, amount] : computeViaUse(grid, t)) {
            usage->addVias(cell, amount);
        }
    }
}

/// Alg. 3's pair costs over one group's clusters, with everything a pair
/// cost reads cached: base cost and feasibility per candidate, a match
/// view per candidate (built on first use), the regularity ratio per
/// candidate pair, and the cost and minimizing candidates per cluster
/// pair. See DESIGN.md §4e, "Incremental bottom-up clustering", for why
/// the caches are exact.
class PairCostCache {
public:
    struct Pair {
        double cost = kInf;
        size_t i = 0;
        size_t j = 0;
        int candI = -1;
        int candJ = -1;
    };

    PairCostCache(const std::vector<Cluster>& clusters,
                  const grid::EdgeUsage& usage, const LayerPrediction& layers,
                  const StreakOptions& opts, ClusterWork* work)
        : clusters_(clusters),
          usage_(usage),
          layers_(layers),
          opts_(opts),
          work_(work),
          n_(clusters.size()) {
        offset_.reserve(n_ + 1);
        offset_.push_back(0);
        for (const Cluster& c : clusters_) {
            offset_.push_back(offset_.back() + c.candidates.size());
            for (const steiner::Topology* t : c.candidates) {
                base_.push_back(baseCost(*t, opts_));
                feasible_.push_back(fits(usage_, *t, layers_, work_) ? 1 : 0);
            }
        }
        numCands_ = offset_.back();
        views_.resize(numCands_);
        ratio_.assign(numCands_ * numCands_, -1.0);
        cost_.assign(n_ * n_, kInf);
        bestA_.assign(n_ * n_, -1);
        bestB_.assign(n_ * n_, -1);
        fresh_.assign(n_ * n_, 0);
        visited_.assign(n_ * n_, 0);
    }

    /// The cheapest live pair not yet visited, found by the literal
    /// rescan's row-major strict-< scan so ties break the same way. Stale
    /// pairs are re-costed on the way; all others reuse their cost.
    Pair cheapestPair() {
        Pair best;
        for (size_t i = 0; i < n_; ++i) {
            if (clusters_[i].dead) continue;
            for (size_t j = i + 1; j < n_; ++j) {
                if (clusters_[j].dead) continue;
                const size_t p = i * n_ + j;
                if (visited_[p] != 0) continue;
                if (stale(i, j, p)) {
                    cost_[p] = pairCost(i, j, &bestA_[p], &bestB_[p]);
                    fresh_[p] = 1;
                }
                if (cost_[p] < best.cost) {
                    best = {cost_[p], i, j, bestA_[p], bestB_[p]};
                }
            }
        }
        return best;
    }

    void visit(size_t i, size_t j) { visited_[i * n_ + j] = 1; }

    /// Cluster `c` committed its style: its pairs now read that style
    /// alone, without a base cost.
    void markRouted(size_t c) {
        for (size_t k = 0; k < n_; ++k) {
            fresh_[std::min(c, k) * n_ + std::max(c, k)] = 0;
        }
    }

    /// Usage grew: clear the bit of every unrouted candidate that no longer
    /// fits. Bits never come back, as usage never shrinks here.
    void refreshFeasibility() {
        for (size_t c = 0; c < n_; ++c) {
            const Cluster& cl = clusters_[c];
            if (cl.routed()) continue;
            for (size_t k = 0; k < cl.candidates.size(); ++k) {
                char& bit = feasible_[offset_[c] + k];
                if (bit != 0 &&
                    !fits(usage_, *cl.candidates[k], layers_, work_)) {
                    bit = 0;
                }
            }
        }
    }

    /// Ratio(candidate ja of cluster i, candidate jb of cluster j), i < j.
    double ratio(size_t i, int ja, size_t j, int jb) {
        const size_t a = offset_[i] + static_cast<size_t>(ja);
        const size_t b = offset_[j] + static_cast<size_t>(jb);
        double& r = ratio_[a * numCands_ + b];
        if (r < 0.0) {
            r = regularityRatio(view(i, ja), view(j, jb));
            ++work_->ratioEvals;
        }
        return r;
    }

private:
    const RegularityView& view(size_t c, int cand) {
        std::optional<RegularityView>& v =
            views_[offset_[c] + static_cast<size_t>(cand)];
        if (!v) {
            v = regularityView(
                *clusters_[c].candidates[static_cast<size_t>(cand)]);
        }
        return *v;
    }

    /// A cached minimum holds until a cluster of the pair is routed or one
    /// of its minimizing candidates stops fitting: the candidates still
    /// fitting are a subset of those scanned, visited in the same order.
    bool stale(size_t i, size_t j, size_t p) const {
        return fresh_[p] == 0 || lost(i, bestA_[p]) || lost(j, bestB_[p]);
    }
    bool lost(size_t c, int cand) const {
        return !clusters_[c].routed() && cand >= 0 &&
               feasible_[offset_[c] + static_cast<size_t>(cand)] == 0;
    }

    /// Lines 5-6 for one pair: the cheapest feasible candidate combination
    /// (a routed cluster offers only its style, without a base cost).
    double pairCost(size_t i, size_t j, int* bestA, int* bestB) {
        ++work_->pairCosts;
        const Cluster& a = clusters_[i];
        const Cluster& b = clusters_[j];
        const auto range = [](const Cluster& c) {
            return c.routed()
                       ? std::pair{c.styleIdx, c.styleIdx + 1}
                       : std::pair{0, static_cast<int>(c.candidates.size())};
        };
        const auto [firstA, endA] = range(a);
        const auto [firstB, endB] = range(b);
        double best = kInf;
        *bestA = -1;
        *bestB = -1;
        for (int ja = firstA; ja < endA; ++ja) {
            const size_t ca = offset_[i] + static_cast<size_t>(ja);
            if (!a.routed() && feasible_[ca] == 0) continue;
            for (int jb = firstB; jb < endB; ++jb) {
                const size_t cb = offset_[j] + static_cast<size_t>(jb);
                if (!b.routed() && feasible_[cb] == 0) continue;
                double c = 0.0;
                if (!a.routed()) c += base_[ca];
                if (!b.routed()) c += base_[cb];
                const double r = ratio(i, ja, j, jb);
                c += r > 0.0 ? opts_.irregularityWeight * (1.0 / r - 1.0)
                             : kNoSharePenalty;
                if (c < best) {
                    best = c;
                    *bestA = ja;
                    *bestB = jb;
                }
            }
        }
        return best;
    }

    const std::vector<Cluster>& clusters_;
    const grid::EdgeUsage& usage_;
    const LayerPrediction& layers_;
    const StreakOptions& opts_;
    ClusterWork* work_;
    size_t n_;
    size_t numCands_ = 0;
    /// Candidate c of cluster k has the flat index offset_[k] + c.
    std::vector<size_t> offset_;
    std::vector<double> base_;
    std::vector<char> feasible_;
    std::vector<std::optional<RegularityView>> views_;
    /// numCands_ x numCands_; -1 until computed.
    std::vector<double> ratio_;
    /// n_ x n_ per cluster pair (i < j): cost, its minimizing candidates,
    /// whether the cost is current, and whether the pair was visited.
    std::vector<double> cost_;
    std::vector<int> bestA_;
    std::vector<int> bestB_;
    std::vector<char> fresh_;
    std::vector<char> visited_;
};

}  // namespace

ClusteringResult clusterAndRoute(const RoutingProblem& prob,
                                 RoutedDesign* routed) {
    STREAK_SPAN("post/cluster");
    STREAK_FAULT_POINT("post/cluster");
    const StreakOptions& opts = prob.opts;
    ClusteringResult result;
    ClusterWork work;
    int nextClusterKey = prob.numObjects();

    // Unrouted members grouped by signal group.
    std::map<int, std::vector<std::pair<int, int>>> leftovers;
    for (const auto& [objIdx, member] : routed->unroutedMembers) {
        leftovers[prob.objects[static_cast<size_t>(objIdx)].groupIndex]
            .push_back({objIdx, member});
    }
    std::vector<std::pair<int, int>> stillUnrouted;

    for (const auto& [groupIdx, members] : leftovers) {
        result.bitsAttempted += static_cast<int>(members.size());

        // Line 1 (Alg. 3): candidate topologies per bit: the bit's
        // equivalent topology of every backbone of its object, including
        // backbones none of whose layer pairs fit as a whole object.
        const SignalGroup& group =
            prob.design->groups[static_cast<size_t>(groupIdx)];
        std::vector<std::vector<steiner::Topology>> allCandidates;
        for (const auto& [objIdx, member] : members) {
            std::vector<steiner::Topology>& cands =
                allCandidates.emplace_back();
            for (const BackboneShape& shape :
                 prob.shapes[static_cast<size_t>(objIdx)]) {
                cands.push_back(shape.memberTopology(
                    group, prob.objects[static_cast<size_t>(objIdx)], member));
            }
        }
        std::vector<Cluster> clusters(members.size());
        for (size_t c = 0; c < members.size(); ++c) {
            clusters[c].members.push_back(members[c]);
            for (const steiner::Topology& t : allCandidates[c]) {
                clusters[c].candidates.push_back(&t);
            }
        }

        // Line 2: layer prediction for this group.
        const LayerPrediction layers =
            predictLayers(routed->usage, allCandidates);

        // Commits candidate `candIdx` as the cluster's style; false if it
        // no longer fits.
        const auto routeCluster = [&](Cluster* c, int candIdx) {
            // The pair-cost feasibility check predates the partner's
            // commit; re-validate before committing.
            const steiner::Topology& cand =
                *c->candidates[static_cast<size_t>(candIdx)];
            if (!fits(routed->usage, cand, layers, &work)) return false;
            c->styleIdx = candIdx;
            c->routedTopos = {cand};
            commit(&routed->usage, c->style(), layers);
            return true;
        };

        // Best feasible single-cluster candidate (by base cost); -1 if
        // nothing fits.
        const auto bestCandidate = [&](const Cluster& c) {
            double best = kInf;
            int bestIdx = -1;
            for (size_t j = 0; j < c.candidates.size(); ++j) {
                if (!fits(routed->usage, *c.candidates[j], layers, &work)) {
                    continue;
                }
                const double cost = baseCost(*c.candidates[j], opts);
                if (cost < best) {
                    best = cost;
                    bestIdx = static_cast<int>(j);
                }
            }
            return bestIdx;
        };

        // Lines 5-15: visit cluster pairs in minimum-cost order.
        if (clusters.size() >= 2) {
            PairCostCache pairs(clusters, routed->usage, layers, opts, &work);
            for (;;) {
                opts.control.checkpoint("cluster/round");
                const PairCostCache::Pair best = pairs.cheapestPair();
                if (best.cost == kInf) break;
                ++work.rounds;
                pairs.visit(best.i, best.j);
                Cluster& a = clusters[best.i];
                Cluster& b = clusters[best.j];
                // Lines 7-9: route the not-yet-routed cluster(s) with the
                // minimum-cost combination found.
                const bool routedA =
                    !a.routed() && routeCluster(&a, best.candI);
                const bool routedB =
                    !b.routed() && routeCluster(&b, best.candJ);
                if (routedA) pairs.markRouted(best.i);
                if (routedB) pairs.markRouted(best.j);
                if (routedA || routedB) pairs.refreshFeasibility();
                // Lines 11-14: merge equal-topology clusters.
                if (a.routed() && b.routed() &&
                    pairs.ratio(best.i, a.styleIdx, best.j, b.styleIdx) >=
                        1.0) {
                    for (size_t k = 0; k < b.members.size(); ++k) {
                        a.members.push_back(b.members[k]);
                        a.routedTopos.push_back(std::move(b.routedTopos[k]));
                    }
                    b.members.clear();
                    b.routedTopos.clear();
                    b.dead = true;
                    ++work.merges;
                }
            }
        }

        // Isolated clusters (single-bit groups have no pairs) route alone.
        for (Cluster& c : clusters) {
            if (c.dead || c.routed()) continue;
            const int bestIdx = bestCandidate(c);
            if (bestIdx >= 0) {
                routeCluster(&c, bestIdx);
            } else {
                c.dead = true;
            }
        }

        // Emit routed bits; collect leftovers.
        for (Cluster& c : clusters) {
            if (!c.routed()) {
                for (const auto& m : c.members) stillUnrouted.push_back(m);
                continue;
            }
            if (c.members.empty()) continue;  // merged-away shell
            const int key = nextClusterKey++;
            ++result.clustersFormed;
            for (size_t k = 0; k < c.members.size(); ++k) {
                const auto& [objIdx, member] = c.members[k];
                const RoutingObject& obj =
                    prob.objects[static_cast<size_t>(objIdx)];
                RoutedBit rb;
                rb.groupIndex = groupIdx;
                rb.bitIndex = obj.bitIndices[static_cast<size_t>(member)];
                rb.objectIndex = objIdx;
                rb.memberIndex = member;
                rb.clusterKey = key;
                rb.topo = std::move(c.routedTopos[k]);
                rb.hLayer = layers.hLayer;
                rb.vLayer = layers.vLayer;
                routed->bits.push_back(std::move(rb));
                ++result.bitsRouted;
            }
        }
    }

    routed->unroutedMembers = std::move(stillUnrouted);
    if (obs::detailEnabled()) {
        obs::Session& sess = obs::session();
        sess.counter("post/cluster.groups")
            .add(static_cast<long long>(leftovers.size()));
        sess.counter("post/cluster.rounds").add(work.rounds);
        sess.counter("post/cluster.pair_costs").add(work.pairCosts);
        sess.counter("post/cluster.ratio_evals").add(work.ratioEvals);
        sess.counter("post/cluster.fits_calls").add(work.fitsCalls);
        sess.counter("post/cluster.merges").add(work.merges);
        sess.counter("post/cluster.bits_attempted").add(result.bitsAttempted);
        sess.counter("post/cluster.bits_routed").add(result.bitsRouted);
    }
    return result;
}

}  // namespace streak::post
