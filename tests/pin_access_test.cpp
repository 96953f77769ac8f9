// Tests for the pin-accessibility (via capacity) extension — the paper's
// future-work item, implemented as an optional per-G-Cell via-slot model
// enforced across candidate generation, both solvers and post-opt.
#include <gtest/gtest.h>

#include "core/ilp_router.hpp"
#include "core/pd_solver.hpp"
#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "post/refine.hpp"
#include "test_util.hpp"

namespace streak {
namespace {

using geom::Point;

TEST(ViaModel, DisabledByDefault) {
    const grid::RoutingGrid g(8, 8, 2, 4);
    EXPECT_FALSE(g.viaLimited());
    EXPECT_EQ(g.viaCapacity(0), -1);
    grid::EdgeUsage u(g);
    EXPECT_EQ(u.totalViaOverflow(), 0);
    EXPECT_GT(u.viaRemaining(0), 1000);  // effectively unlimited
}

TEST(ViaModel, CapacityAndBlockage) {
    grid::RoutingGrid g(8, 8, 2, 4);
    g.setViaCapacity(5);
    EXPECT_TRUE(g.viaLimited());
    EXPECT_EQ(g.viaCapacity(g.cellIndex(3, 3)), 5);
    g.addViaBlockage({{2, 2}, {4, 4}}, 1);
    EXPECT_EQ(g.viaCapacity(g.cellIndex(3, 3)), 1);
    EXPECT_EQ(g.viaCapacity(g.cellIndex(6, 6)), 5);
}

TEST(ViaModel, BlockageRequiresEnabledModel) {
    grid::RoutingGrid g(8, 8, 2, 4);
    EXPECT_THROW(g.addViaBlockage({{0, 0}, {1, 1}}, 0), std::logic_error);
}

TEST(ViaModel, UsageAccounting) {
    grid::RoutingGrid g(8, 8, 2, 4);
    g.setViaCapacity(2);
    grid::EdgeUsage u(g);
    const int cell = g.cellIndex(4, 4);
    u.addVias(cell, 2);
    EXPECT_EQ(u.viaRemaining(cell), 0);
    EXPECT_EQ(u.totalViaOverflow(), 0);
    u.addVias(cell, 3);
    EXPECT_EQ(u.totalViaOverflow(), 3);
    u.removeVias(cell, 3);
    EXPECT_EQ(u.totalViaOverflow(), 0);
}

TEST(ViaPoints, LShapeHasOneViaPoint) {
    steiner::Topology t({{0, 0}, {4, 3}}, 0);
    t.addLShape({0, 0}, {4, 3}, {4, 0});
    const auto vias = t.viaPoints();
    ASSERT_EQ(vias.size(), 1u);
    EXPECT_EQ(vias[0], (Point{4, 0}));
}

TEST(ComputeViaUse, CountsPinsAndBends) {
    const grid::RoutingGrid g(16, 16, 2, 8);
    steiner::Topology t({{0, 0}, {4, 3}}, 0);
    t.addLShape({0, 0}, {4, 3}, {4, 0});
    const auto use = computeViaUse(g, t);
    // 2 pin cells + 1 bend cell.
    long total = 0;
    for (const auto& [cell, n] : use) total += n;
    EXPECT_EQ(total, 3);
}

TEST(ViaModel, CandidatesFilteredByViaCapacity) {
    // Via capacity 0 at the driver cell: every candidate needs a pin
    // stack there, so none can exist.
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{4, 4}, {12, 4}}, 1, 0, 1)});
    d.grid.setViaCapacity(4);
    d.grid.addViaBlockage({{4, 4}, {4, 4}}, 0);
    const auto objects = identifyObjects(d);
    const auto cands =
        generateCandidates(d, objects[0], StreakOptions{}).candidates;
    EXPECT_TRUE(cands.empty());
}

TEST(ViaModel, PdRespectsViaCapacity) {
    // Two stacked single-bit groups with coincident pins: via capacity 3
    // per cell admits only one of them (each bit needs 2 slots at shared
    // cells when stacked: 2 groups x (pin) = 2 <= 3... tighten to 1).
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{4, 4}, {12, 4}}, 1, 0, 1, "a"),
         testutil::makeBusGroup({{4, 4}, {12, 4}}, 1, 0, 1, "b")});
    d.grid.setViaCapacity(1);
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const PdResult r = solvePrimalDual(prob);
    const RoutedDesign rd = materialize(prob, r.solution);
    EXPECT_EQ(rd.usage.totalViaOverflow(), 0);
    // Only one of the two coincident bits can get the pin slot.
    EXPECT_EQ(rd.routedBits(), 1);
}

TEST(ViaModel, IlpRespectsViaCapacity) {
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{4, 4}, {12, 4}}, 1, 0, 1, "a"),
         testutil::makeBusGroup({{4, 4}, {12, 4}}, 1, 0, 1, "b")});
    d.grid.setViaCapacity(1);
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const IlpRouteResult r = solveIlpRouting(prob, 20.0);
    const RoutedDesign rd = materialize(prob, r.solution);
    EXPECT_EQ(rd.usage.totalViaOverflow(), 0);
    EXPECT_EQ(rd.routedBits(), 1);
}

TEST(ViaModel, EndToEndFlowStaysViaClean) {
    gen::SuiteSpec spec = gen::synthSpec(1);
    spec.viaCapacity = 6;
    const Design d = gen::generate(spec);
    StreakOptions opts;
    opts.postOptimize = true;
    const StreakResult r = runStreak(d, opts).value();
    EXPECT_EQ(r.metrics.totalViaOverflow, 0);
    EXPECT_EQ(r.metrics.totalOverflow, 0);
    EXPECT_GT(r.metrics.routability, 0.8);
}

TEST(ViaModel, TighterViaCapacityNeverImprovesRoutability) {
    gen::SuiteSpec spec = gen::synthSpec(1);
    spec.viaCapacity = -1;
    const Design loose = gen::generate(spec);
    spec.viaCapacity = 2;
    const Design tight = gen::generate(spec);
    StreakOptions opts;
    const StreakResult a = runStreak(loose, opts).value();
    const StreakResult b = runStreak(tight, opts).value();
    EXPECT_LE(b.metrics.routability, a.metrics.routability + 1e-12);
    EXPECT_EQ(b.metrics.totalViaOverflow, 0);
}

TEST(ViaModel, RefinementDetoursRespectViaCapacity) {
    SignalGroup g;
    g.bits.push_back(testutil::makeBit({{4, 10}, {8, 10}}));    // short
    g.bits.push_back(testutil::makeBit({{4, 11}, {24, 11}}));   // long
    g.bits.push_back(testutil::makeBit({{4, 12}, {24, 12}}));   // long
    Design d = testutil::makeDesign({g});
    d.grid.setViaCapacity(2);
    RoutingProblem prob = buildProblem(d, StreakOptions{});
    RoutedDesign routed = materialize(prob, solvePrimalDual(prob).solution);
    post::refineDistances(prob, &routed);
    EXPECT_EQ(routed.usage.totalViaOverflow(), 0);
}

}  // namespace
}  // namespace streak
