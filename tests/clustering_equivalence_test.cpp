// Differential test of post::clusterAndRoute against the literal Alg. 3
// loop (Sec. IV-B, lines 5-15). The reference below rescans every cluster
// pair in every round and re-costs each one from scratch; the production
// version caches pair costs and re-costs only the pairs a round changed.
// Both start from the same pre-post routed design (buildProblem ->
// solvePrimalDual -> materialize) and must leave byte-identical routed
// bits, leftovers, edge and via usage, and result counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/backbone.hpp"
#include "core/candidate.hpp"
#include "core/pd_solver.hpp"
#include "core/regularity.hpp"
#include "equiv_reference.hpp"
#include "gen/generator.hpp"
#include "post/clustering.hpp"
#include "post/layer_predict.hpp"
#include "test_util.hpp"

namespace streak {
namespace {

// ------------------------------------------------------- the reference

namespace reference {

using streak::reference::equivalentTopology;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Cluster {
    /// (objectIndex, memberIndex) of every bit in the cluster.
    std::vector<std::pair<int, int>> members;
    /// Candidate topologies of the *founding* member (cluster style).
    std::vector<steiner::Topology> candidates;
    /// Committed topology per member once routed (member-aligned).
    std::vector<steiner::Topology> routedTopos;
    bool routed = false;
    bool dead = false;  // no feasible candidate remains

    [[nodiscard]] const steiner::Topology& style() const {
        return routedTopos.front();
    }
};

double baseCost(const steiner::Topology& t, const StreakOptions& opts) {
    return static_cast<double>(t.wirelength()) +
           opts.viaWeight * (t.bendCount() + static_cast<int>(t.pins().size()));
}

bool fits(const grid::EdgeUsage& usage, const steiner::Topology& t, int h,
          int v) {
    const grid::RoutingGrid& grid = usage.grid();
    for (const steiner::UnitEdge& e : t.wire()) {
        const int layer = e.horizontal ? h : v;
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

void commit(grid::EdgeUsage* usage, const steiner::Topology& t, int h, int v) {
    const grid::RoutingGrid& grid = usage->grid();
    for (const steiner::UnitEdge& e : t.wire()) {
        const int layer = e.horizontal ? h : v;
        usage->add(grid.edgeId(layer, e.at.x, e.at.y), 1);
    }
    if (grid.viaLimited()) {
        for (const auto& [cell, amount] : computeViaUse(grid, t)) {
            usage->addVias(cell, amount);
        }
    }
}

post::ClusteringResult clusterAndRoute(const RoutingProblem& prob,
                                       RoutedDesign* routed) {
    const Design& design = *prob.design;
    const StreakOptions& opts = prob.opts;
    post::ClusteringResult result;
    int nextClusterKey = prob.numObjects();

    std::map<int, std::vector<std::pair<int, int>>> leftovers;
    for (const auto& [objIdx, member] : routed->unroutedMembers) {
        leftovers[prob.objects[static_cast<size_t>(objIdx)].groupIndex]
            .push_back({objIdx, member});
    }
    std::vector<std::pair<int, int>> stillUnrouted;

    for (const auto& [groupIdx, members] : leftovers) {
        const SignalGroup& group = design.groups[static_cast<size_t>(groupIdx)];
        result.bitsAttempted += static_cast<int>(members.size());

        std::map<int, std::vector<steiner::Topology>> backbonesOf;
        std::vector<Cluster> clusters;
        std::vector<std::vector<steiner::Topology>> allCandidates;
        for (const auto& [objIdx, member] : members) {
            const RoutingObject& obj = prob.objects[static_cast<size_t>(objIdx)];
            auto it = backbonesOf.find(objIdx);
            if (it == backbonesOf.end()) {
                it = backbonesOf
                         .emplace(objIdx,
                                  generateBackbones(group, obj, opts.backbone))
                         .first;
            }
            std::vector<steiner::Topology> cands;
            cands.reserve(it->second.size());
            for (const steiner::Topology& bb : it->second) {
                cands.push_back(equivalentTopology(bb, group, obj, member));
            }
            allCandidates.push_back(cands);
            Cluster c;
            c.members.push_back({objIdx, member});
            c.candidates = std::move(cands);
            clusters.push_back(std::move(c));
        }

        const post::LayerPrediction layers =
            post::predictLayers(routed->usage, allCandidates);

        const auto routeCluster = [&](Cluster* c, int candIdx) {
            if (!fits(routed->usage, c->candidates[static_cast<size_t>(candIdx)],
                      layers.hLayer, layers.vLayer)) {
                return;
            }
            c->routed = true;
            c->routedTopos = {c->candidates[static_cast<size_t>(candIdx)]};
            commit(&routed->usage, c->style(), layers.hLayer, layers.vLayer);
        };

        const auto bestCandidate = [&](const Cluster& c) {
            double best = kInf;
            int bestIdx = -1;
            for (size_t j = 0; j < c.candidates.size(); ++j) {
                if (!fits(routed->usage, c.candidates[j], layers.hLayer,
                          layers.vLayer)) {
                    continue;
                }
                const double cost = baseCost(c.candidates[j], opts);
                if (cost < best) {
                    best = cost;
                    bestIdx = static_cast<int>(j);
                }
            }
            return bestIdx;
        };

        std::set<std::pair<size_t, size_t>> visited;
        const auto pairCost = [&](const Cluster& a, const Cluster& b,
                                  int* bestA, int* bestB) -> double {
            double best = kInf;
            const int na = a.routed ? 1 : static_cast<int>(a.candidates.size());
            const int nb = b.routed ? 1 : static_cast<int>(b.candidates.size());
            for (int ja = 0; ja < na; ++ja) {
                const steiner::Topology& ta =
                    a.routed ? a.style()
                             : a.candidates[static_cast<size_t>(ja)];
                if (!a.routed &&
                    !fits(routed->usage, ta, layers.hLayer, layers.vLayer)) {
                    continue;
                }
                for (int jb = 0; jb < nb; ++jb) {
                    const steiner::Topology& tb =
                        b.routed ? b.style()
                                 : b.candidates[static_cast<size_t>(jb)];
                    if (!b.routed &&
                        !fits(routed->usage, tb, layers.hLayer, layers.vLayer)) {
                        continue;
                    }
                    double c = 0.0;
                    if (!a.routed) c += baseCost(ta, opts);
                    if (!b.routed) c += baseCost(tb, opts);
                    const double ratio = regularityRatio(ta, tb);
                    c += ratio > 0.0
                             ? opts.irregularityWeight * (1.0 / ratio - 1.0)
                             : kNoSharePenalty;
                    if (c < best) {
                        best = c;
                        *bestA = ja;
                        *bestB = jb;
                    }
                }
            }
            return best;
        };

        for (;;) {
            double bestCost = kInf;
            size_t bestI = 0, bestJ = 0;
            int candI = -1, candJ = -1;
            for (size_t i = 0; i < clusters.size(); ++i) {
                if (clusters[i].dead) continue;
                for (size_t j = i + 1; j < clusters.size(); ++j) {
                    if (clusters[j].dead) continue;
                    if (visited.contains({i, j})) continue;
                    int ja = -1, jb = -1;
                    const double c =
                        pairCost(clusters[i], clusters[j], &ja, &jb);
                    if (c < bestCost) {
                        bestCost = c;
                        bestI = i;
                        bestJ = j;
                        candI = ja;
                        candJ = jb;
                    }
                }
            }
            if (bestCost == kInf) break;
            visited.insert({bestI, bestJ});
            Cluster& a = clusters[bestI];
            Cluster& b = clusters[bestJ];
            if (!a.routed) routeCluster(&a, candI);
            if (!b.routed) routeCluster(&b, candJ);
            if (a.routed && b.routed &&
                regularityRatio(a.style(), b.style()) >= 1.0) {
                for (size_t k = 0; k < b.members.size(); ++k) {
                    a.members.push_back(b.members[k]);
                    a.routedTopos.push_back(b.routedTopos[k]);
                }
                b.members.clear();
                b.routedTopos.clear();
                b.dead = true;
            }
        }

        for (Cluster& c : clusters) {
            if (c.dead || c.routed) continue;
            const int bestIdx = bestCandidate(c);
            if (bestIdx >= 0) {
                routeCluster(&c, bestIdx);
            } else {
                c.dead = true;
            }
        }

        for (const Cluster& c : clusters) {
            if (!c.routed) {
                for (const auto& m : c.members) stillUnrouted.push_back(m);
                continue;
            }
            if (c.members.empty()) continue;
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
                rb.topo = c.routedTopos[k];
                rb.hLayer = layers.hLayer;
                rb.vLayer = layers.vLayer;
                routed->bits.push_back(std::move(rb));
                ++result.bitsRouted;
            }
        }
    }

    routed->unroutedMembers = std::move(stillUnrouted);
    return result;
}

}  // namespace reference

// ------------------------------------------------------ the comparison

/// Totals over a sweep, so a sweep that never reaches clustering (or
/// never merges) fails instead of passing vacuously.
struct Coverage {
    int designs = 0;
    long long bitsAttempted = 0;
    long long bitsRouted = 0;
    long long clustersFormed = 0;
    int mismatches = 0;
};

/// Every way the two runs can differ, one line each.
std::vector<std::string> differences(const RoutedDesign& want,
                                     const RoutedDesign& got,
                                     const post::ClusteringResult& wantRes,
                                     const post::ClusteringResult& gotRes) {
    std::vector<std::string> out;
    const auto note = [&](const std::string& what, long long w, long long g) {
        std::ostringstream os;
        os << what << ": reference " << w << ", incremental " << g;
        out.push_back(os.str());
    };
    if (wantRes.bitsAttempted != gotRes.bitsAttempted) {
        note("bitsAttempted", wantRes.bitsAttempted, gotRes.bitsAttempted);
    }
    if (wantRes.bitsRouted != gotRes.bitsRouted) {
        note("bitsRouted", wantRes.bitsRouted, gotRes.bitsRouted);
    }
    if (wantRes.clustersFormed != gotRes.clustersFormed) {
        note("clustersFormed", wantRes.clustersFormed, gotRes.clustersFormed);
    }
    if (want.bits.size() != got.bits.size()) {
        note("routed bits", static_cast<long long>(want.bits.size()),
             static_cast<long long>(got.bits.size()));
    }
    for (size_t k = 0; k < std::min(want.bits.size(), got.bits.size()); ++k) {
        const RoutedBit& w = want.bits[k];
        const RoutedBit& g = got.bits[k];
        const std::string at = "bit " + std::to_string(k) + " ";
        if (w.groupIndex != g.groupIndex) {
            note(at + "groupIndex", w.groupIndex, g.groupIndex);
        }
        if (w.bitIndex != g.bitIndex) {
            note(at + "bitIndex", w.bitIndex, g.bitIndex);
        }
        if (w.objectIndex != g.objectIndex) {
            note(at + "objectIndex", w.objectIndex, g.objectIndex);
        }
        if (w.memberIndex != g.memberIndex) {
            note(at + "memberIndex", w.memberIndex, g.memberIndex);
        }
        if (w.clusterKey != g.clusterKey) {
            note(at + "clusterKey", w.clusterKey, g.clusterKey);
        }
        if (!(w.topo == g.topo)) {
            note(at + "topo wirelength", w.topo.wirelength(),
                 g.topo.wirelength());
        }
        if (w.hLayer != g.hLayer) note(at + "hLayer", w.hLayer, g.hLayer);
        if (w.vLayer != g.vLayer) note(at + "vLayer", w.vLayer, g.vLayer);
    }
    if (want.unroutedMembers != got.unroutedMembers) {
        note("unroutedMembers",
             static_cast<long long>(want.unroutedMembers.size()),
             static_cast<long long>(got.unroutedMembers.size()));
    }
    const grid::RoutingGrid& grid = want.usage.grid();
    for (int e = 0; e < grid.numEdges(); ++e) {
        if (want.usage.usage(e) != got.usage.usage(e)) {
            note("usage of edge " + std::to_string(e), want.usage.usage(e),
                 got.usage.usage(e));
        }
    }
    for (int c = 0; c < grid.numCells(); ++c) {
        if (want.usage.viaUsage(c) != got.usage.viaUsage(c)) {
            note("via usage of cell " + std::to_string(c),
                 want.usage.viaUsage(c), got.usage.viaUsage(c));
        }
    }
    return out;
}

/// Runs both versions from one pre-post routed design and records every
/// difference as a test failure.
void compareOn(const Design& design, Coverage* cov) {
    const RoutingProblem prob = buildProblem(design, StreakOptions{});
    const RoutedDesign prePost =
        materialize(prob, solvePrimalDual(prob).solution);
    RoutedDesign want = prePost;
    RoutedDesign got = prePost;
    const post::ClusteringResult wantRes =
        reference::clusterAndRoute(prob, &want);
    const post::ClusteringResult gotRes = post::clusterAndRoute(prob, &got);
    const std::vector<std::string> diffs =
        differences(want, got, wantRes, gotRes);
    ++cov->designs;
    cov->bitsAttempted += wantRes.bitsAttempted;
    cov->bitsRouted += wantRes.bitsRouted;
    cov->clustersFormed += wantRes.clustersFormed;
    if (!diffs.empty()) ++cov->mismatches;
    for (size_t k = 0; k < std::min<size_t>(diffs.size(), 5); ++k) {
        ADD_FAILURE() << design.name << ": " << diffs[k];
    }
}

void report(const char* sweep, const Coverage& cov) {
    std::cout << sweep << ": " << cov.designs << " designs, "
              << cov.bitsAttempted << " bits attempted, " << cov.bitsRouted
              << " routed into " << cov.clustersFormed << " clusters, "
              << cov.mismatches << " mismatches\n";
    EXPECT_EQ(cov.mismatches, 0);
    // The sweep reached clustering and merged bits into shared clusters.
    EXPECT_GT(cov.bitsAttempted, 0);
    EXPECT_LT(cov.clustersFormed, cov.bitsRouted);
}

gen::SuiteSpec congestedSpec(std::uint32_t seed, int viaCapacity) {
    gen::SuiteSpec spec = testutil::congestedMultipinSpec();
    spec.name = "congested-" + std::to_string(seed);
    spec.viaCapacity = viaCapacity;
    spec.seed = seed;
    return spec;
}

constexpr std::uint32_t kCongestedSeeds = 100;

TEST(ClusteringEquivalence, CongestedMultipin) {
    Coverage cov;
    for (std::uint32_t seed = 1; seed <= kCongestedSeeds; ++seed) {
        compareOn(gen::generate(congestedSpec(seed, -1)), &cov);
    }
    report("congested-multipin", cov);
}

TEST(ClusteringEquivalence, CongestedMultipinViaLimited) {
    // Three via slots per G-Cell: fits() also rejects on via capacity.
    Coverage cov;
    for (std::uint32_t seed = 1; seed <= kCongestedSeeds; ++seed) {
        compareOn(gen::generate(congestedSpec(seed, 3)), &cov);
    }
    report("congested-multipin, viaCapacity 3", cov);
}

TEST(ClusteringEquivalence, ShrunkSuites) {
    // The shrunk suites as the other sweeps use them route every bit, so
    // each design also runs on a 32x32 grid with three tracks per edge,
    // where the multipin suites leave bits to clustering.
    Coverage cov;
    for (int suite = 1; suite <= 7; ++suite) {
        for (std::uint32_t seed = 1; seed <= 10; ++seed) {
            gen::SuiteSpec spec = gen::shrunkSynthSpec(suite);
            spec.seed += seed - 1;
            spec.name += "-" + std::to_string(spec.seed);
            compareOn(gen::generate(spec), &cov);
            spec.name += "-tight";
            spec.gridWidth = spec.gridHeight = 32;
            spec.capacity = 3;
            compareOn(gen::generate(spec), &cov);
        }
    }
    report("shrunk synth1-7", cov);
}

TEST(ClusteringEquivalence, FullSizeSynth6) {
    Coverage cov;
    compareOn(gen::makeSynth(6), &cov);
    report("synth6", cov);
}

}  // namespace
}  // namespace streak
