#include "ilp/branch_and_bound.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "ilp/lp.hpp"
#include "obs/trace.hpp"

namespace streak::ilp {
namespace {

constexpr double kTol = 1e-6;

TEST(SolveIlp, BinaryKnapsack) {
    // max 10a + 6b + 4c s.t. a+b+c <= 2 -> min form.
    Model m;
    const int a = m.addVariable(-10.0, true);
    const int b = m.addVariable(-6.0, true);
    const int c = m.addVariable(-4.0, true);
    m.addRow({{a, 1.0}, {b, 1.0}, {c, 1.0}}, Sense::LessEqual, 2.0);
    const Solution s = solveIlp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, -16.0, kTol);
    EXPECT_NEAR(s.values[static_cast<size_t>(a)], 1.0, kTol);
    EXPECT_NEAR(s.values[static_cast<size_t>(b)], 1.0, kTol);
    EXPECT_NEAR(s.values[static_cast<size_t>(c)], 0.0, kTol);
}

TEST(SolveIlp, RequiresBranching) {
    // Fractional LP optimum: min -(x+y) s.t. 2x + 2y <= 3, binary.
    Model m;
    const int x = m.addVariable(-1.0, true);
    const int y = m.addVariable(-1.0, true);
    m.addRow({{x, 2.0}, {y, 2.0}}, Sense::LessEqual, 3.0);
    const Solution s = solveIlp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, -1.0, kTol);  // only one of x,y fits
}

TEST(SolveIlp, MixedIntegerContinuous) {
    // min 4x + y  s.t. x + y >= 1.5, x binary, y continuous.
    Model m;
    const int x = m.addVariable(4.0, true);
    const int y = m.addVariable(1.0, false);
    m.addRow({{x, 1.0}, {y, 1.0}}, Sense::GreaterEqual, 1.5);
    const Solution s = solveIlp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 1.5, kTol);  // x=0, y=1.5
}

TEST(SolveIlp, InfeasibleIntegerProblem) {
    // x + y = 1 with x = y forced by two inequalities and binary parity
    // conflict: x - y >= 0.5 impossible for binaries with x + y = 1 and
    // y >= x.
    Model m;
    const int x = m.addVariable(1.0, true);
    const int y = m.addVariable(1.0, true);
    m.addRow({{x, 1.0}, {y, 1.0}}, Sense::Equal, 1.0);
    m.addRow({{x, 1.0}, {y, -1.0}}, Sense::GreaterEqual, 0.5);
    m.addRow({{y, 1.0}, {x, -1.0}}, Sense::GreaterEqual, 0.5);
    EXPECT_EQ(solveIlp(m).status, SolveStatus::Infeasible);
}

TEST(SolveIlp, ProductLinearization) {
    // The Streak pattern: y >= x1 + x2 - 1 with positive cost on y makes
    // y the product of two chosen binaries.
    Model m;
    const int x1 = m.addVariable(-4.0, true);
    const int x2 = m.addVariable(-4.0, true);
    const int y = m.addVariable(3.0, false);
    m.addRow({{y, 1.0}, {x1, -1.0}, {x2, -1.0}}, Sense::GreaterEqual, -1.0);
    const Solution s = solveIlp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    // Both selected (-8) pays the pair penalty (+3) and still beats one
    // selected (-4); y is forced to 1 by the linearization row.
    EXPECT_NEAR(s.objective, -5.0, kTol);
    EXPECT_NEAR(s.values[static_cast<size_t>(y)], 1.0, kTol);
}

TEST(SolveIlp, SelectionWithCapacity) {
    // 3 objects pick 1-of-2 candidates; capacity forces the expensive mix.
    Model m;
    std::vector<int> cheap, costly;
    for (int i = 0; i < 3; ++i) {
        cheap.push_back(m.addVariable(1.0, true));
        costly.push_back(m.addVariable(5.0, true));
        m.addRow({{cheap.back(), 1.0}, {costly.back(), 1.0}}, Sense::Equal,
                 1.0);
    }
    // All cheap candidates share an edge with capacity 2.
    m.addRow({{cheap[0], 1.0}, {cheap[1], 1.0}, {cheap[2], 1.0}},
             Sense::LessEqual, 2.0);
    const Solution s = solveIlp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 7.0, kTol);  // 1 + 1 + 5
}

TEST(SolveIlp, NodeLimitReportsFeasibleOrLimit) {
    Model m;
    // 12 coupled binaries with awkward fractional LP.
    std::vector<int> v;
    for (int i = 0; i < 12; ++i) v.push_back(m.addVariable(-1.0 - 0.01 * i, true));
    for (int i = 0; i + 1 < 12; ++i) {
        m.addRow({{v[static_cast<size_t>(i)], 2.0},
                  {v[static_cast<size_t>(i + 1)], 2.0}},
                 Sense::LessEqual, 3.0);
    }
    BnbOptions opts;
    opts.maxNodes = 3;
    BnbStats stats;
    const Solution s = solveIlp(m, opts, &stats);
    EXPECT_TRUE(s.status == SolveStatus::Feasible ||
                s.status == SolveStatus::Limit ||
                s.status == SolveStatus::Optimal);
    EXPECT_LE(stats.nodesExplored, 3);
}

/// Brute-force oracle for a mixed 0/1 model: enumerate every assignment
/// of the integer variables, fix them through their bounds, and solve
/// the continuous rest as an LP. Returns the best objective, or +inf when
/// no assignment is feasible.
double exhaustiveOptimum(const Model& model) {
    std::vector<int> binaries;
    for (int v = 0; v < model.numVariables(); ++v) {
        if (model.isInteger(v)) binaries.push_back(v);
    }
    EXPECT_LE(binaries.size(), 20u) << "too many binaries to enumerate";
    double best = kInfinity;
    for (long mask = 0; mask < (1L << binaries.size()); ++mask) {
        Model fixed;
        size_t next = 0;
        for (int v = 0; v < model.numVariables(); ++v) {
            double lo = model.lower(v);
            double hi = model.upper(v);
            if (model.isInteger(v)) {
                lo = hi = static_cast<double>((mask >> next++) & 1);
            }
            fixed.addVariable(model.objectiveCoeff(v), false, lo, hi);
        }
        for (const Row& r : model.rows()) fixed.addRow(r);
        fixed.objectiveConstant = model.objectiveConstant;
        const Solution s = solveLp(fixed);
        if (s.status == SolveStatus::Optimal) {
            best = std::min(best, s.objective);
        }
    }
    return best;
}

TEST(SolveIlp, OptimalMatchesExhaustiveOnSmallInstance) {
    // 4 binaries, random-ish costs, one knapsack row.
    const double cost[4] = {3.0, -5.0, 2.0, -4.0};
    const double weight[4] = {2.0, 3.0, 1.0, 2.0};
    Model m;
    std::vector<std::pair<int, double>> knap;
    for (int i = 0; i < 4; ++i) {
        knap.emplace_back(m.addVariable(cost[i], true), weight[i]);
    }
    m.addRow(std::move(knap), Sense::LessEqual, 4.0);
    const Solution s = solveIlp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, exhaustiveOptimum(m), kTol);
}

// ---------------------------------------------------------------------------
// Branch and bound against brute force on Streak-shaped models
// ---------------------------------------------------------------------------

/// Streak-shaped selection model: groups of binary candidates, shared
/// capacities, and a pair-linearization term — the structure the ILP
/// router emits per component.
Model selectionModel(int groups, int seedOffset) {
    Model m;
    std::vector<int> vars;
    for (int g = 0; g < groups; ++g) {
        Row sel;
        for (int j = 0; j < 3; ++j) {
            const double cost = 1.0 + ((g * 7 + j * 3 + seedOffset) % 11);
            const int v = m.addVariable(cost, true);
            vars.push_back(v);
            sel.coeffs.emplace_back(v, 1.0);
        }
        sel.sense = Sense::Equal;
        sel.rhs = 1.0;
        m.addRow(std::move(sel));
    }
    Row cap;
    for (size_t k = 0; k < vars.size(); k += 2) {
        cap.coeffs.emplace_back(vars[k], 1.0);
    }
    cap.sense = Sense::LessEqual;
    cap.rhs = 1.0 + static_cast<double>(groups) / 2.0;
    m.addRow(std::move(cap));
    if (vars.size() >= 5) {
        const int y = m.addVariable(-2.0, false, 0.0, 1.0);
        m.addRow({{y, 1.0}, {vars[0], -1.0}, {vars[4], -1.0}},
                 Sense::GreaterEqual, -1.0);
    }
    return m;
}

/// NodeLimitReportsFeasibleOrLimit's chain: `length` binaries with
/// 2x_i + 2x_{i+1} <= 3 and slightly different costs, so the LP optimum
/// is fractional and the search branches.
Model chainModel(int length) {
    Model m;
    std::vector<int> v;
    for (int i = 0; i < length; ++i) {
        v.push_back(m.addVariable(-1.0 - 0.01 * i, true));
    }
    for (int i = 0; i + 1 < length; ++i) {
        m.addRow({{v[static_cast<size_t>(i)], 2.0},
                  {v[static_cast<size_t>(i + 1)], 2.0}},
                 Sense::LessEqual, 3.0);
    }
    return m;
}

TEST(SolveIlp, ProvenOptimumAtTheNodeLimitIsNotALimitHit) {
    // With maxNodes equal to an unlimited search's node count, the limit
    // lands exactly on the step where every open node is dominated: the
    // search is complete, so the result is proven, not cut short.
    for (int length = 4; length <= 14; ++length) {
        const Model m = chainModel(length);
        BnbStats full;
        const Solution unlimited = solveIlp(m, {}, &full);
        ASSERT_EQ(unlimited.status, SolveStatus::Optimal) << "length " << length;
        BnbOptions opts;
        opts.maxNodes = full.nodesExplored;
        BnbStats stats;
        const Solution s = solveIlp(m, opts, &stats);
        EXPECT_EQ(s.status, SolveStatus::Optimal) << "length " << length;
        EXPECT_FALSE(stats.hitLimit) << "length " << length;
        EXPECT_EQ(stats.nodesExplored, full.nodesExplored) << "length " << length;
        EXPECT_EQ(stats.gap, 0.0) << "length " << length;
        EXPECT_EQ(s.objective, unlimited.objective) << "length " << length;
    }
}

TEST(SolveIlp, CappedSearchGapBracketsTheOptimum) {
    const Model m = chainModel(12);
    const double optimum = exhaustiveOptimum(m);
    BnbStats full;
    ASSERT_EQ(solveIlp(m, {}, &full).status, SolveStatus::Optimal);
    EXPECT_EQ(full.gap, 0.0);
    int capped = 0;
    for (long cap = 0; cap < full.nodesExplored; ++cap) {
        BnbOptions opts;
        opts.maxNodes = cap;
        BnbStats stats;
        const Solution s = solveIlp(m, opts, &stats);
        if (!s.hasSolution()) {
            // No incumbent and no warm start: nothing to measure against.
            EXPECT_EQ(stats.gap, kInfinity) << "cap " << cap;
            continue;
        }
        if (s.status == SolveStatus::Optimal) continue;
        ++capped;
        ASSERT_EQ(s.status, SolveStatus::Feasible) << "cap " << cap;
        EXPECT_TRUE(stats.hitLimit) << "cap " << cap;
        EXPECT_GT(stats.gap, 0.0) << "cap " << cap;
        EXPECT_LE(s.objective - stats.gap, optimum + kTol) << "cap " << cap;
        EXPECT_GE(s.objective, optimum - kTol) << "cap " << cap;
    }
    EXPECT_GT(capped, 0) << "no cap left an unproven incumbent";
}

TEST(SolveIlp, TimeLimitStopsInsideANodeLp) {
    // The root LP of a 16 000-binary chain takes about 2.4 s on a 4-vCPU
    // x86-64 host, far beyond a 50 ms limit. The limit must stop the
    // search inside that LP, within one 64-iteration simplex tick,
    // instead of after it.
    const Model m = chainModel(16000);
    BnbOptions opts;
    opts.timeLimitSeconds = 0.05;
    BnbStats stats;
    const obs::Stopwatch watch;
    const Solution s = solveIlp(m, opts, &stats);
    const double seconds = watch.seconds();
    EXPECT_EQ(s.status, SolveStatus::Limit);
    EXPECT_TRUE(stats.hitLimit);
    EXPECT_EQ(stats.nodesExplored, 0);  // the root LP never finished
    EXPECT_EQ(stats.gap, kInfinity);
    EXPECT_LT(seconds, 0.5);
}

TEST(SolveIlp, GapIsInfiniteWhenTheRootNeverRan) {
    BnbOptions opts;
    opts.maxNodes = 0;
    BnbStats stats;
    const Solution s = solveIlp(chainModel(6), opts, &stats);
    EXPECT_EQ(s.status, SolveStatus::Limit);
    EXPECT_TRUE(stats.hitLimit);
    EXPECT_EQ(stats.gap, kInfinity);

    // A warm-start bound is not a returnable solution, but with no root
    // LP nothing bounds it from below either.
    opts.initialUpperBound = -1.0;
    EXPECT_EQ(solveIlp(chainModel(6), opts, &stats).status,
              SolveStatus::Limit);
    EXPECT_EQ(stats.gap, kInfinity);
}

TEST(SolveIlp, SelectionModelsMatchExhaustive) {
    for (int trial = 0; trial < 6; ++trial) {
        const Model m = selectionModel(2 + trial % 4, trial);
        const Solution s = solveIlp(m);
        ASSERT_EQ(s.status, SolveStatus::Optimal) << "trial " << trial;
        EXPECT_NEAR(s.objective, exhaustiveOptimum(m), kTol)
            << "trial " << trial;
    }
}

}  // namespace
}  // namespace streak::ilp
