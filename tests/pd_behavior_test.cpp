// Behavioural tests of the primal-dual selection: pair costs steer group
// mates towards shared topologies, capacities prune, and the s_i
// mechanism kicks in exactly when a candidate set drains.
#include <gtest/gtest.h>

#include "core/pd_solver.hpp"
#include "test_util.hpp"

namespace streak {
namespace {

using geom::Point;

TEST(PdBehavior, ObjectWithoutCandidatesIsSkippedNotCrashed) {
    // Capacity 0 grid: no candidates exist at all.
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {10, 4}}, 2, 0, 1)});
    for (int e = 0; e < d.grid.numEdges(); ++e) d.grid.setCapacity(e, 0);
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const PdResult r = solvePrimalDual(prob);
    for (const int c : r.solution.chosen) EXPECT_EQ(c, -1);
    EXPECT_DOUBLE_EQ(r.solution.objective,
                     kNonRoutePenaltyM * prob.numObjects());
}

TEST(PdBehavior, PairCostSteersLayerAgreement) {
    // Two objects of one group: without pair costs each would pick its
    // own cheapest layers; the pairLayerWeight pulls them together.
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {12, 4}}, 4, 0, 1)}, 32, 32, 6, 10);
    // Split into two styles.
    d.groups[0].bits[2].pins[1] = {12, 12};
    d.groups[0].bits[3].pins[1] = {12, 13};
    StreakOptions opts;
    opts.pairLayerWeight = 50.0;  // dominate everything else
    const RoutingProblem prob = buildProblem(d, opts);
    ASSERT_EQ(prob.numObjects(), 2);
    const PdResult r = solvePrimalDual(prob);
    ASSERT_GE(r.solution.chosen[0], 0);
    ASSERT_GE(r.solution.chosen[1], 0);
    const RouteCandidate& a =
        prob.candidates[0][static_cast<size_t>(r.solution.chosen[0])];
    const RouteCandidate& b =
        prob.candidates[1][static_cast<size_t>(r.solution.chosen[1])];
    EXPECT_EQ(a.hLayer, b.hLayer);
    EXPECT_EQ(a.vLayer, b.vLayer);
}

TEST(PdBehavior, IterationCountMatchesRoutedObjects) {
    const Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {12, 4}}, 3, 0, 1, "a"),
         testutil::makeBusGroup({{2, 20}, {12, 20}}, 3, 0, 1, "b")});
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const PdResult r = solvePrimalDual(prob);
    int routed = 0;
    for (const int c : r.solution.chosen) routed += c >= 0 ? 1 : 0;
    EXPECT_EQ(r.iterations, routed);
}

TEST(PdBehavior, DualBoundBelowPrimalObjective) {
    const Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {12, 4}, {12, 10}}, 5, 0, 1)});
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const PdResult r = solvePrimalDual(prob);
    EXPECT_LE(r.dualBound, r.solution.objective + 1e-9);
}

TEST(PdBehavior, CapacityExhaustionFallsBackToOtherLayers) {
    // Saturate layer 0 along the bus row; PD must pick the other H layer.
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {12, 4}}, 2, 0, 1)}, 32, 32, 4, 2);
    for (int x = 0; x < 31; ++x) {
        for (int y = 3; y < 7; ++y) {
            d.grid.setCapacity(d.grid.edgeId(0, x, y), 0);
        }
    }
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const PdResult r = solvePrimalDual(prob);
    for (size_t i = 0; i < prob.candidates.size(); ++i) {
        const int c = r.solution.chosen[i];
        ASSERT_GE(c, 0);
        EXPECT_EQ(prob.candidates[i][static_cast<size_t>(c)].hLayer, 2);
    }
}

TEST(PdBehavior, PrefersSharedBackboneUnderIrregularityPressure) {
    // Two objects with compatible straight routes; a huge irregularity
    // weight must not make anything unroutable, and the chosen pair must
    // score a finite pair cost (some RCs map).
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {16, 4}}, 4, 0, 1)});
    d.groups[0].bits[2].pins[1] = {16, 10};
    d.groups[0].bits[3].pins[1] = {16, 11};
    StreakOptions opts;
    opts.irregularityWeight = 500.0;
    const RoutingProblem prob = buildProblem(d, opts);
    const PdResult r = solvePrimalDual(prob);
    for (const int c : r.solution.chosen) EXPECT_GE(c, 0);
}

}  // namespace
}  // namespace streak
