// End-to-end integration tests of the Streak flow on generated designs.
#include <gtest/gtest.h>

#include <cmath>

#include "flow/report.hpp"
#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "test_util.hpp"

namespace streak {
namespace {

gen::SuiteSpec tinySpec() {
    gen::SuiteSpec s;
    s.name = "tiny";
    s.gridWidth = s.gridHeight = 40;
    s.numLayers = 4;
    s.capacity = 10;
    s.numGroups = 6;
    s.minGroupWidth = 3;
    s.maxGroupWidth = 8;
    s.maxPins = 4;
    s.multipinFraction = 0.5;
    s.numBlockages = 2;
    s.seed = 42;
    return s;
}

TEST(Flow, PrimalDualEndToEnd) {
    const Design d = gen::generate(tinySpec());
    StreakOptions opts;
    opts.solver = SolverKind::PrimalDual;
    const StreakResult r = runStreak(d, opts).value();
    EXPECT_GT(r.metrics.routability, 0.7);
    EXPECT_EQ(r.metrics.totalOverflow, 0);
    EXPECT_GT(r.metrics.wirelength, 0);
    EXPECT_GE(r.metrics.avgRegularity, 0.0);
    EXPECT_LE(r.metrics.avgRegularity, 1.0);
}

TEST(Flow, IlpEndToEnd) {
    const Design d = gen::generate(tinySpec());
    StreakOptions opts;
    opts.solver = SolverKind::Ilp;
    opts.ilpTimeLimitSeconds = 30.0;
    const StreakResult r = runStreak(d, opts).value();
    EXPECT_GT(r.metrics.routability, 0.7);
    EXPECT_EQ(r.metrics.totalOverflow, 0);
}

TEST(Flow, UncappedFlatIlpReportsAZeroGap) {
    const Design d = gen::generate(tinySpec());
    StreakOptions opts;
    opts.solver = SolverKind::Ilp;
    opts.ilpTimeLimitSeconds = 60.0;
    for (const int threads : {1, 2, 8}) {
        opts.threads = threads;
        const StreakResult r = runStreak(d, opts).value();
        ASSERT_FALSE(r.hitTimeLimit) << threads << " threads";
        EXPECT_EQ(r.ilpGap, 0.0) << threads << " threads";
        const obs::json::Value report = flow::buildRunReport(d, opts, r);
        const obs::json::Value* gap = report.find("solver")->find("ilpGap");
        ASSERT_NE(gap, nullptr);
        ASSERT_EQ(gap->kind(), obs::json::Kind::Number);
        EXPECT_EQ(gap->asNumber(), 0.0) << threads << " threads";
    }
    // The primal-dual solver and the hierarchical cascade prove nothing
    // about formulation (3): their reports carry a null gap.
    opts.threads = 1;
    for (const SolverKind solver :
         {SolverKind::PrimalDual, SolverKind::IlpHierarchical}) {
        opts.solver = solver;
        const StreakResult r = runStreak(d, opts).value();
        EXPECT_FALSE(std::isfinite(r.ilpGap));
        EXPECT_TRUE(flow::buildRunReport(d, opts, r)
                        .find("solver")
                        ->find("ilpGap")
                        ->isNull());
    }
}

TEST(Flow, CappedIlpSearchesUntilTheStageDeadline) {
    // Full-size synth5 cannot be proven within a second. The cap is one
    // deadline for the whole solve stage, so the components still
    // searching inherit the time the finished ones left, and the stage
    // runs until the limit rather than stopping at one component's share.
    const Design d = gen::generate(gen::synthSpec(5));
    StreakOptions opts;
    opts.solver = SolverKind::Ilp;
    opts.ilpTimeLimitSeconds = 1.0;
    for (const int threads : {1, 2}) {
        opts.threads = threads;
        const StreakResult r = runStreak(d, opts).value();
        EXPECT_TRUE(r.hitTimeLimit) << threads << " threads";
        EXPECT_GE(r.solveSeconds(), 0.9) << threads << " threads";
    }
}

TEST(Flow, IlpObjectiveNotWorseThanPd) {
    const Design d = gen::generate(tinySpec());
    StreakOptions opts;
    opts.solver = SolverKind::PrimalDual;
    const StreakResult pd = runStreak(d, opts).value();
    opts.solver = SolverKind::Ilp;
    opts.ilpTimeLimitSeconds = 60.0;
    const StreakResult ilp = runStreak(d, opts).value();
    if (!ilp.hitTimeLimit) {
        EXPECT_LE(ilp.solverSolution.objective,
                  pd.solverSolution.objective + 1e-6);
    }
}

TEST(Flow, PostOptimizationNeverLowersRoutability) {
    gen::SuiteSpec spec = tinySpec();
    spec.capacity = 5;  // pressure so the solver leaves leftovers
    spec.numBlockages = 8;
    const Design d = gen::generate(spec);
    StreakOptions opts;
    opts.solver = SolverKind::PrimalDual;
    const StreakResult base = runStreak(d, opts).value();
    opts.postOptimize = true;
    const StreakResult post = runStreak(d, opts).value();
    EXPECT_GE(post.metrics.routability, base.metrics.routability);
    EXPECT_EQ(post.metrics.totalOverflow, 0);
}

TEST(Flow, RefinementReducesDistanceViolations) {
    const Design d = gen::generate(tinySpec());
    StreakOptions opts;
    opts.postOptimize = true;
    const StreakResult r = runStreak(d, opts).value();
    EXPECT_LE(r.distanceViolationsAfter, r.distanceViolationsBefore);
}

TEST(Flow, SolverSolutionsRespectLowerBound) {
    const Design d = gen::generate(tinySpec());
    StreakOptions opts;
    const StreakResult r = runStreak(d, opts).value();
    EXPECT_GE(r.solverSolution.objective,
              r.problem.costLowerBound() - 1e-9);
}

TEST(Flow, DeterministicAcrossRuns) {
    const Design d = gen::generate(tinySpec());
    StreakOptions opts;
    opts.postOptimize = true;
    const StreakResult a = runStreak(d, opts).value();
    const StreakResult b = runStreak(d, opts).value();
    EXPECT_EQ(a.solverSolution.chosen, b.solverSolution.chosen);
    EXPECT_EQ(a.metrics.wirelength, b.metrics.wirelength);
    EXPECT_DOUBLE_EQ(a.metrics.avgRegularity, b.metrics.avgRegularity);
}

TEST(Flow, MetricsConsistentWithRoutedBits) {
    const Design d = gen::generate(tinySpec());
    const StreakResult r = runStreak(d, StreakOptions{}).value();
    EXPECT_EQ(r.metrics.totalBits, d.numNets());
    EXPECT_EQ(r.metrics.routedBits, r.routed.routedBits());
}

}  // namespace
}  // namespace streak
