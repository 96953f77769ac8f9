// Tests for the two selection engines (primal-dual and ILP) and the
// shared problem/solution plumbing.
#include <gtest/gtest.h>

#include "core/ilp_router.hpp"
#include "core/pd_solver.hpp"
#include "core/problem.hpp"
#include "core/solution.hpp"
#include "test_util.hpp"

namespace streak {
namespace {

using geom::Point;

Design simpleDesign() {
    return testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {12, 4}}, 4, 0, 1, "a"),
         testutil::makeBusGroup({{4, 20}, {14, 20}, {14, 26}}, 3, 0, 1, "b")},
        32, 32, 4, 10);
}

/// Check no capacity is exceeded by the chosen candidates.
void expectCapacityClean(const RoutingProblem& prob,
                         const RoutingSolution& sol) {
    const RoutedDesign rd = materialize(prob, sol);
    EXPECT_EQ(rd.usage.totalOverflow(), 0);
}

TEST(BuildProblem, ObjectsAndCandidatesPopulated) {
    const Design d = simpleDesign();
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    EXPECT_EQ(prob.numObjects(), 2);
    for (const auto& cands : prob.candidates) {
        EXPECT_FALSE(cands.empty());
    }
    EXPECT_EQ(prob.groupObjects.size(), 2u);
}

TEST(BuildProblem, PairBlocksOnlyWithinGroups) {
    Design d = simpleDesign();
    // Split group 0 into two styles -> two objects in one group.
    d.groups[0].bits[2].pins[1] = {2 + 10, 4 + 2 + 6};
    d.groups[0].bits[3].pins[1] = {2 + 10, 4 + 3 + 6};
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    EXPECT_EQ(prob.numObjects(), 3);
    ASSERT_EQ(prob.pairBlocks.size(), 1u);
    const PairBlock& pb = prob.pairBlocks[0];
    EXPECT_EQ(prob.objects[static_cast<size_t>(pb.objA)].groupIndex,
              prob.objects[static_cast<size_t>(pb.objB)].groupIndex);
}

TEST(PrimalDual, RoutesEverythingWhenUncongested) {
    const Design d = simpleDesign();
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const PdResult r = solvePrimalDual(prob);
    for (const int c : r.solution.chosen) EXPECT_GE(c, 0);
    expectCapacityClean(prob, r.solution);
}

TEST(PrimalDual, ObjectiveAtLeastLowerBound) {
    const Design d = simpleDesign();
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const PdResult r = solvePrimalDual(prob);
    EXPECT_GE(r.solution.objective, prob.costLowerBound() - 1e-9);
}

TEST(PrimalDual, RespectsCapacityUnderPressure) {
    // Two groups forced through the same corridor with tiny capacity.
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 10}, {22, 10}}, 6, 0, 1, "a"),
         testutil::makeBusGroup({{2, 10}, {22, 10}}, 6, 0, 1, "b")},
        32, 32, 2, 3);
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const PdResult r = solvePrimalDual(prob);
    expectCapacityClean(prob, r.solution);
}

TEST(IlpRouter, OptimalOnSimpleDesign) {
    const Design d = simpleDesign();
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const IlpRouteResult r = solveIlpRouting(prob, 30.0);
    EXPECT_FALSE(r.hitTimeLimit);
    for (const int c : r.solution.chosen) EXPECT_GE(c, 0);
    expectCapacityClean(prob, r.solution);
}

TEST(IlpRouter, NeverWorseThanPrimalDual) {
    const Design d = simpleDesign();
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const PdResult pd = solvePrimalDual(prob);
    const IlpRouteResult ilp = solveIlpRouting(prob, 30.0);
    if (!ilp.hitTimeLimit) {
        EXPECT_LE(ilp.solution.objective, pd.solution.objective + 1e-6);
    }
}

TEST(IlpRouter, CapacityForcesLayerSpread) {
    // One wide group on a 2-layer grid with capacity < width: the
    // remaining bits cannot fit, some objects stay unrouted rather than
    // overflowing.
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 10}, {26, 10}}, 8, 0, 0, "stack")},
        32, 32, 2, 3);
    // dx = dy = 0: all 8 bits are coincident -> all demand on one track.
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const IlpRouteResult r = solveIlpRouting(prob, 30.0);
    expectCapacityClean(prob, r.solution);
}

TEST(IlpRouter, DecomposesIndependentComponents) {
    const Design d = simpleDesign();
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const IlpRouteResult r = solveIlpRouting(prob, 30.0);
    EXPECT_EQ(r.components, 2);
}

TEST(IlpRouter, ZeroCandidateComponentLeavesObjectUnrouted) {
    // A component whose objects have no candidates at all (weight 0, so
    // it sorts first) must not break the model build: the object simply
    // stays unrouted (slack = 1) and everything else solves.
    const Design d = simpleDesign();
    RoutingProblem prob = buildProblem(d, StreakOptions{});
    prob.candidates[0].clear();
    const IlpRouteResult r = solveIlpRouting(prob, 10.0);
    EXPECT_EQ(r.solution.chosen[0], -1);
    EXPECT_GE(r.solution.chosen[1], 0);
    expectCapacityClean(prob, r.solution);
}

TEST(IlpRouter, SingleComponentOwnsTheWholeBudget) {
    // Split the only group into two style objects: same-group objects
    // always interact through pair costs, so the whole problem collapses
    // into a single component that owns the entire time budget.
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {12, 4}}, 4, 0, 1, "a")}, 32, 32, 4,
        10);
    d.groups[0].bits[2].pins[1] = {12, 12};
    d.groups[0].bits[3].pins[1] = {12, 13};
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    ASSERT_GT(prob.numObjects(), 1);
    const IlpRouteResult r = solveIlpRouting(prob, 10.0);
    EXPECT_EQ(r.components, 1);
    expectCapacityClean(prob, r.solution);
}

TEST(IlpRouter, ExpiredBudgetKeepsTheWarmStart) {
    // timeLimitSeconds = 0: the stage deadline has already passed when
    // each component starts, so branch-and-bound must immediately fall
    // back to the warm start — a valid (degraded) solution, never a crash.
    const Design d = simpleDesign();
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const PdResult warm = solvePrimalDual(prob);
    const IlpRouteResult r = solveIlpRouting(prob, 0.0, &warm.solution);
    EXPECT_TRUE(r.hitTimeLimit);
    EXPECT_EQ(r.solution.chosen, warm.solution.chosen);
    expectCapacityClean(prob, r.solution);
}

TEST(IlpRouter, ExpiredBudgetWithoutWarmStartLeavesAllUnrouted) {
    const Design d = simpleDesign();
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const IlpRouteResult r = solveIlpRouting(prob, 0.0);
    EXPECT_TRUE(r.hitTimeLimit);
    for (const int c : r.solution.chosen) EXPECT_EQ(c, -1);
    expectCapacityClean(prob, r.solution);
}

TEST(SolutionObjective, CountsMAndPairTerms) {
    const Design d = simpleDesign();
    StreakOptions opts;
    const RoutingProblem prob = buildProblem(d, opts);
    std::vector<int> allUnrouted(static_cast<size_t>(prob.numObjects()), -1);
    EXPECT_DOUBLE_EQ(solutionObjective(prob, allUnrouted),
                     kNonRoutePenaltyM * prob.numObjects());
}

TEST(Materialize, EveryBitRoutedOrListed) {
    const Design d = simpleDesign();
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const PdResult r = solvePrimalDual(prob);
    const RoutedDesign rd = materialize(prob, r.solution);
    EXPECT_EQ(rd.routedBits() + static_cast<int>(rd.unroutedMembers.size()),
              d.numNets());
    // Usage equals the sum of per-bit edge demands.
    long used = 0;
    for (int e = 0; e < d.grid.numEdges(); ++e) used += rd.usage.usage(e);
    long wl = 0;
    for (const RoutedBit& b : rd.bits) wl += b.topo.wirelength();
    EXPECT_EQ(used, wl);
}

}  // namespace
}  // namespace streak
