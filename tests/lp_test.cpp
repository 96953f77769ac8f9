#include "ilp/lp.hpp"

#include <gtest/gtest.h>

#include <random>

#include "lp_legacy.hpp"

namespace streak::ilp {
namespace {

constexpr double kTol = 1e-6;

TEST(SolveLp, SimpleTwoVariable) {
    // min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0.
    Model m;
    const int x = m.addVariable(-1.0, false, 0.0, 3.0);
    const int y = m.addVariable(-2.0, false, 0.0, 2.0);
    m.addRow({{x, 1.0}, {y, 1.0}}, Sense::LessEqual, 4.0);
    const Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, -6.0, kTol);  // x=2, y=2
    EXPECT_NEAR(s.values[static_cast<size_t>(x)], 2.0, kTol);
    EXPECT_NEAR(s.values[static_cast<size_t>(y)], 2.0, kTol);
}

TEST(SolveLp, EqualityConstraint) {
    // min x + y  s.t. x + y = 5, x <= 2.
    Model m;
    const int x = m.addVariable(1.0, false, 0.0, 2.0);
    const int y = m.addVariable(1.0, false);
    m.addRow({{x, 1.0}, {y, 1.0}}, Sense::Equal, 5.0);
    const Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 5.0, kTol);
}

TEST(SolveLp, GreaterEqualRows) {
    // min 2x + 3y  s.t. x + y >= 4, x - y >= -1.
    Model m;
    const int x = m.addVariable(2.0, false);
    const int y = m.addVariable(3.0, false);
    m.addRow({{x, 1.0}, {y, 1.0}}, Sense::GreaterEqual, 4.0);
    m.addRow({{x, 1.0}, {y, -1.0}}, Sense::GreaterEqual, -1.0);
    const Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 8.0, kTol);  // x=4, y=0
}

TEST(SolveLp, DetectsInfeasible) {
    Model m;
    const int x = m.addVariable(1.0, false, 0.0, 1.0);
    m.addRow({{x, 1.0}}, Sense::GreaterEqual, 2.0);
    EXPECT_EQ(solveLp(m).status, SolveStatus::Infeasible);
}

TEST(SolveLp, DetectsUnbounded) {
    Model m;
    const int x = m.addVariable(-1.0, false);  // min -x, x unbounded above
    m.addRow({{x, 1.0}}, Sense::GreaterEqual, 0.0);
    EXPECT_EQ(solveLp(m).status, SolveStatus::Unbounded);
}

TEST(SolveLp, HonorsLowerBounds) {
    // min x with x in [3, 10].
    Model m;
    const int x = m.addVariable(1.0, false, 3.0, 10.0);
    const Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.values[static_cast<size_t>(x)], 3.0, kTol);
    EXPECT_NEAR(s.objective, 3.0, kTol);
}

TEST(SolveLp, ObjectiveConstantCarriesThrough) {
    Model m;
    const int x = m.addVariable(1.0, false, 0.0, 5.0);
    m.objectiveConstant = 100.0;
    m.addRow({{x, 1.0}}, Sense::GreaterEqual, 1.0);
    const Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 101.0, kTol);
}

TEST(SolveLp, DegenerateRedundantRows) {
    // Redundant equalities must not break phase 1.
    Model m;
    const int x = m.addVariable(1.0, false);
    const int y = m.addVariable(1.0, false);
    m.addRow({{x, 1.0}, {y, 1.0}}, Sense::Equal, 2.0);
    m.addRow({{x, 2.0}, {y, 2.0}}, Sense::Equal, 4.0);  // 2x the first
    const Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 2.0, kTol);
}

TEST(SolveLp, AssignmentRelaxationIsIntegral) {
    // One-of-three selection with distinct costs: LP relaxation of a
    // selection row picks the cheapest candidate.
    Model m;
    const int a = m.addVariable(5.0, false);
    const int b = m.addVariable(3.0, false);
    const int c = m.addVariable(9.0, false);
    m.addRow({{a, 1.0}, {b, 1.0}, {c, 1.0}}, Sense::Equal, 1.0);
    const Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.values[static_cast<size_t>(b)], 1.0, kTol);
    EXPECT_NEAR(s.objective, 3.0, kTol);
}

TEST(SolveLp, MediumRandomishProblemStaysFinite) {
    // A larger structured LP: 30 selection rows of 4 candidates with a
    // shared capacity row. Sanity check for stability, not optimality.
    Model m;
    std::vector<int> vars;
    for (int i = 0; i < 30; ++i) {
        std::vector<std::pair<int, double>> row;
        for (int j = 0; j < 4; ++j) {
            const int v = m.addVariable(1.0 + j + (i % 3), false);
            vars.push_back(v);
            row.emplace_back(v, 1.0);
        }
        m.addRow(std::move(row), Sense::Equal, 1.0);
    }
    std::vector<std::pair<int, double>> cap;
    for (size_t k = 0; k < vars.size(); k += 4) cap.emplace_back(vars[k], 1.0);
    m.addRow(std::move(cap), Sense::LessEqual, 10.0);
    const Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_GT(s.objective, 0.0);
    EXPECT_LT(s.objective, 1e6);
}

// ---------------------------------------------------------------------------
// Bounded-variable engine vs the legacy explicit-row oracle
// ---------------------------------------------------------------------------

/// Random small model with mostly-finite upper bounds: the shapes where
/// the bounded engine's implicit bound handling diverges most from the
/// legacy one-row-per-bound formulation.
Model randomModel(std::mt19937* rng) {
    std::uniform_int_distribution<int> varCount(2, 6);
    std::uniform_int_distribution<int> rowCount(1, 5);
    std::uniform_real_distribution<double> coeff(-3.0, 3.0);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    Model m;
    const int n = varCount(*rng);
    for (int v = 0; v < n; ++v) {
        const double lo = unit(*rng) < 0.3 ? coeff(*rng) : 0.0;
        // ~85% finite upper bounds; the rest exercise the infinite path.
        const double span = 0.5 + 4.0 * unit(*rng);
        const double hi = unit(*rng) < 0.85 ? lo + span : kInfinity;
        m.addVariable(coeff(*rng), false, lo, hi);
    }
    const int rows = rowCount(*rng);
    for (int r = 0; r < rows; ++r) {
        Row row;
        for (int v = 0; v < n; ++v) {
            if (unit(*rng) < 0.7) row.coeffs.emplace_back(v, coeff(*rng));
        }
        if (row.coeffs.empty()) row.coeffs.emplace_back(0, 1.0);
        const double pick = unit(*rng);
        row.sense = pick < 0.5 ? Sense::LessEqual
                               : (pick < 0.8 ? Sense::GreaterEqual : Sense::Equal);
        row.rhs = 4.0 * coeff(*rng) / 3.0;
        m.addRow(std::move(row));
    }
    return m;
}

TEST(LpEquivalence, RandomModelsMatchLegacyFormulation) {
    std::mt19937 rng(20260806);
    int optimal = 0;
    for (int trial = 0; trial < 50; ++trial) {
        const Model m = randomModel(&rng);
        const Solution bounded = solveLp(m);
        const Solution legacy = solveLpLegacy(m);
        ASSERT_EQ(bounded.status, legacy.status) << "trial " << trial;
        if (bounded.status == SolveStatus::Optimal) {
            ++optimal;
            EXPECT_NEAR(bounded.objective, legacy.objective, kTol)
                << "trial " << trial;
        }
    }
    // The generator must actually exercise the optimal path, not just
    // churn out infeasible/unbounded models.
    EXPECT_GE(optimal, 10);
}

TEST(LpEquivalence, SelectionModelsMatchLegacyFormulation) {
    // Streak-shaped models: 0/1 selection rows + capacity rows, the exact
    // structure branch-and-bound relaxations have.
    std::mt19937 rng(77);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int trial = 0; trial < 20; ++trial) {
        Model m;
        std::vector<int> vars;
        const int groups = 2 + trial % 3;
        for (int gIdx = 0; gIdx < groups; ++gIdx) {
            Row sel;
            for (int j = 0; j < 3; ++j) {
                const int v =
                    m.addVariable(1.0 + 5.0 * unit(rng), false, 0.0, 1.0);
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

        const Solution bounded = solveLp(m);
        const Solution legacy = solveLpLegacy(m);
        ASSERT_EQ(bounded.status, legacy.status) << "trial " << trial;
        ASSERT_EQ(bounded.status, SolveStatus::Optimal);
        EXPECT_NEAR(bounded.objective, legacy.objective, kTol)
            << "trial " << trial;
    }
}

}  // namespace
}  // namespace streak::ilp
