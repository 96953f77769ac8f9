#include "core/candidate.hpp"

#include <gtest/gtest.h>

#include "core/identify.hpp"
#include "test_util.hpp"

namespace streak {
namespace {

using geom::Point;

Design busDesign(int width = 4, int cap = 10) {
    return testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {12, 4}, {12, 10}}, width, 0, 1)},
        32, 32, 4, cap);
}

TEST(GenerateCandidates, NonEmptyForRoutableObject) {
    const Design d = busDesign();
    const auto objects = identifyObjects(d);
    ASSERT_EQ(objects.size(), 1u);
    StreakOptions opts;
    const auto cands = generateCandidates(d, objects[0], opts).candidates;
    ASSERT_FALSE(cands.empty());
}

TEST(GenerateCandidates, SortedByCost) {
    const Design d = busDesign();
    const auto objects = identifyObjects(d);
    const auto cands =
        generateCandidates(d, objects[0], StreakOptions{}).candidates;
    for (size_t i = 1; i < cands.size(); ++i) {
        EXPECT_LE(cands[i - 1].cost, cands[i].cost);
    }
}

TEST(GenerateCandidates, LayerDirectionsMatchGrid) {
    const Design d = busDesign();
    const auto objects = identifyObjects(d);
    const auto cands =
        generateCandidates(d, objects[0], StreakOptions{}).candidates;
    for (const RouteCandidate& c : cands) {
        EXPECT_EQ(d.grid.layerDir(c.hLayer), grid::Dir::Horizontal);
        EXPECT_EQ(d.grid.layerDir(c.vLayer), grid::Dir::Vertical);
    }
}

TEST(GenerateCandidates, EdgeUseMatchesBitTopologies) {
    const Design d = busDesign();
    const auto objects = identifyObjects(d);
    const auto cands =
        generateCandidates(d, objects[0], StreakOptions{}).candidates;
    ASSERT_FALSE(cands.empty());
    const RouteCandidate& c = cands.front();
    // Total demand equals total wirelength over bits (each unit edge of a
    // bit adds one track).
    long totalUse = 0;
    for (const auto& [edge, amount] : c.edgeUse) totalUse += amount;
    EXPECT_EQ(totalUse, c.wirelength2d);
    // Sorted by edge id.
    for (size_t i = 1; i < c.edgeUse.size(); ++i) {
        EXPECT_LT(c.edgeUse[i - 1].first, c.edgeUse[i].first);
    }
}

TEST(GenerateCandidates, ParallelBitsStackDemand) {
    // A 4-bit bus whose bits share no edges: per-edge demand stays 1.
    const Design d = busDesign();
    const auto objects = identifyObjects(d);
    const auto cands =
        generateCandidates(d, objects[0], StreakOptions{}).candidates;
    for (const auto& [edge, amount] : cands.front().edgeUse) {
        EXPECT_LE(amount, 4);
        EXPECT_GE(amount, 1);
    }
}

TEST(GenerateCandidates, InfeasibleWhenCapacityTiny) {
    // Capacity 0 grid: no candidate can fit.
    Design d = busDesign(4, 10);
    for (int e = 0; e < d.grid.numEdges(); ++e) d.grid.setCapacity(e, 0);
    const auto objects = identifyObjects(d);
    const auto cands =
        generateCandidates(d, objects[0], StreakOptions{}).candidates;
    EXPECT_TRUE(cands.empty());
}

TEST(GenerateCandidates, MaxLayerPairsRespected) {
    const Design d = busDesign();
    const auto objects = identifyObjects(d);
    StreakOptions opts;
    opts.maxLayerPairs = 1;
    opts.backbone.maxBackbones = 2;
    const auto cands = generateCandidates(d, objects[0], opts).candidates;
    EXPECT_LE(cands.size(), 2u);
    std::set<std::pair<int, int>> pairs;
    for (const RouteCandidate& c : cands) pairs.insert({c.hLayer, c.vLayer});
    EXPECT_LE(pairs.size(), 1u);
}

TEST(GenerateCandidates, AdjacentLayersPreferredInCost) {
    const Design d = busDesign();
    const auto objects = identifyObjects(d);
    StreakOptions opts;
    opts.maxLayerPairs = 4;
    opts.layerAdjacencyWeight = 100.0;  // make the gap dominate
    const auto cands = generateCandidates(d, objects[0], opts).candidates;
    ASSERT_FALSE(cands.empty());
    EXPECT_EQ(std::abs(cands.front().hLayer - cands.front().vLayer), 1);
}

TEST(ComputeEdgeUse, SingleTopology) {
    const Design d = busDesign();
    steiner::Topology t({{2, 2}, {6, 2}}, 0);
    t.addSegment({{2, 2}, {6, 2}});
    const auto use = computeEdgeUse(d.grid, t, 0, 1);
    EXPECT_EQ(use.size(), 4u);
    for (const auto& [edge, amount] : use) {
        EXPECT_EQ(amount, 1);
        EXPECT_EQ(d.grid.edgeCoord(edge).layer, 0);
    }
}

}  // namespace
}  // namespace streak
