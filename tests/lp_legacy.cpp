#include "lp_legacy.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "check/assert.hpp"

namespace streak::ilp {

namespace {

constexpr double kEps = 1e-9;

/// Dense two-phase primal simplex on the tableau
///   min c^T x  s.t.  A x = b,  x >= 0,  b >= 0.
/// Columns [0, n) are structural; one artificial per row is appended.
/// The reduced-cost row is kept in canonical form and updated on pivots.
class SimplexTableau {
public:
    SimplexTableau(int numStructural, int numRows)
        : n_(numStructural), m_(numRows),
          a_(static_cast<size_t>(numRows),
             std::vector<double>(static_cast<size_t>(numStructural + numRows),
                                 0.0)),
          b_(static_cast<size_t>(numRows), 0.0),
          basis_(static_cast<size_t>(numRows), -1) {}

    void setCoeff(int row, int col, double v) {
        a_[static_cast<size_t>(row)][static_cast<size_t>(col)] = v;
    }
    void setRhs(int row, double v) { b_[static_cast<size_t>(row)] = v; }

    /// Phase 1 + Phase 2. On Optimal, `x` receives the structural solution
    /// and `obj` the objective value.
    SolveStatus solve(const std::vector<double>& cost, std::vector<double>* x,
                      double* obj) {
        const int total = n_ + m_;
        for (int r = 0; r < m_; ++r) {
            a_[static_cast<size_t>(r)][static_cast<size_t>(n_ + r)] = 1.0;
            basis_[static_cast<size_t>(r)] = n_ + r;
        }
        // Phase 1: minimize the sum of artificials (pricing all columns).
        std::vector<double> phase1(static_cast<size_t>(total), 0.0);
        for (int c = n_; c < total; ++c) phase1[static_cast<size_t>(c)] = 1.0;
        if (!runSimplex(phase1, total)) return SolveStatus::Unbounded;
        if (objectiveOf(phase1) > 1e-6) return SolveStatus::Infeasible;

        // Drive remaining artificials out of the basis where possible;
        // rows where no structural pivot exists are redundant.
        for (int r = 0; r < m_; ++r) {
            if (basis_[static_cast<size_t>(r)] < n_) continue;
            for (int c = 0; c < n_; ++c) {
                if (std::abs(a_[static_cast<size_t>(r)][static_cast<size_t>(c)]) >
                    1e-7) {
                    pivot(r, c);
                    break;
                }
            }
        }

        // Phase 2: real costs. Artificial columns are excluded from
        // entering selection (they can never profitably re-enter), which
        // also retires the old 1e12 big-M cost hack: any artificial still
        // basic sits at ~0 on a redundant row and carries zero cost.
        std::vector<double> phase2(static_cast<size_t>(total), 0.0);
        for (int c = 0; c < n_; ++c) {
            phase2[static_cast<size_t>(c)] = cost[static_cast<size_t>(c)];
        }
        if (!runSimplex(phase2, n_)) return SolveStatus::Unbounded;

        x->assign(static_cast<size_t>(n_), 0.0);
        for (int r = 0; r < m_; ++r) {
            const int bc = basis_[static_cast<size_t>(r)];
            if (bc < n_) (*x)[static_cast<size_t>(bc)] = b_[static_cast<size_t>(r)];
        }
        *obj = 0.0;
        for (int c = 0; c < n_; ++c) {
            *obj += cost[static_cast<size_t>(c)] * (*x)[static_cast<size_t>(c)];
        }
        return SolveStatus::Optimal;
    }

private:
    [[nodiscard]] double objectiveOf(const std::vector<double>& cost) const {
        double v = 0.0;
        for (int r = 0; r < m_; ++r) {
            v += cost[static_cast<size_t>(basis_[static_cast<size_t>(r)])] *
                 b_[static_cast<size_t>(r)];
        }
        return v;
    }

    /// Primal simplex with the given cost vector, pricing columns
    /// [0, pricingLimit). Maintains the reduced cost row incrementally.
    /// Returns false on unboundedness.
    bool runSimplex(const std::vector<double>& cost, int pricingLimit) {
        const size_t total = cost.size();
        // Canonicalize the reduced-cost row against the current basis.
        red_ = cost;
        for (int r = 0; r < m_; ++r) {
            const double cb =
                cost[static_cast<size_t>(basis_[static_cast<size_t>(r)])];
            if (cb == 0.0) continue;  // analyze-ok: float-equality
            const auto& row = a_[static_cast<size_t>(r)];
            for (size_t c = 0; c < total; ++c) red_[c] -= cb * row[c];
        }

        const long maxIter = 20L * (m_ + static_cast<long>(total)) + 2000;
        for (long iterations = 0;; ++iterations) {
            if (iterations > maxIter) break;  // stall guard
            const bool useBland = iterations > maxIter / 2;

            int entering = -1;
            double best = -1e-7;
            for (int c = 0; c < pricingLimit; ++c) {
                if (red_[static_cast<size_t>(c)] < best) {
                    entering = c;
                    if (useBland) break;
                    best = red_[static_cast<size_t>(c)];
                }
            }
            if (entering < 0) return true;  // optimal

            int leaving = -1;
            double bestRatio = 0.0;
            for (int r = 0; r < m_; ++r) {
                const double arc =
                    a_[static_cast<size_t>(r)][static_cast<size_t>(entering)];
                if (arc > kEps) {
                    const double ratio = b_[static_cast<size_t>(r)] / arc;
                    if (leaving < 0 || ratio < bestRatio - kEps ||
                        (ratio < bestRatio + kEps &&
                         basis_[static_cast<size_t>(r)] <
                             basis_[static_cast<size_t>(leaving)])) {
                        leaving = r;
                        bestRatio = ratio;
                    }
                }
            }
            if (leaving < 0) return false;  // unbounded
            pivot(leaving, entering);
        }
        return true;
    }

    void pivot(int row, int col) {
        auto& prow = a_[static_cast<size_t>(row)];
        const double pv = prow[static_cast<size_t>(col)];
        STREAK_ASSERT(std::abs(pv) > kEps,
                      "pivot on near-zero element {} at row {}, column {}",
                      pv, row, col);
        const size_t width = prow.size();
        for (double& v : prow) v /= pv;
        b_[static_cast<size_t>(row)] /= pv;
        for (int r = 0; r < m_; ++r) {
            if (r == row) continue;
            auto& rr = a_[static_cast<size_t>(r)];
            const double factor = rr[static_cast<size_t>(col)];
            if (factor == 0.0) continue;  // analyze-ok: float-equality
            for (size_t c = 0; c < width; ++c) rr[c] -= factor * prow[c];
            rr[static_cast<size_t>(col)] = 0.0;  // fight round-off drift
            b_[static_cast<size_t>(r)] -= factor * b_[static_cast<size_t>(row)];
        }
        if (!red_.empty()) {
            const double factor = red_[static_cast<size_t>(col)];
            if (factor != 0.0) {  // analyze-ok: float-equality
                for (size_t c = 0; c < width; ++c) red_[c] -= factor * prow[c];
                red_[static_cast<size_t>(col)] = 0.0;
            }
        }
        basis_[static_cast<size_t>(row)] = col;
    }

    int n_;
    int m_;
    std::vector<std::vector<double>> a_;
    std::vector<double> b_;
    std::vector<double> red_;
    std::vector<int> basis_;
};

}  // namespace

Solution solveLpLegacy(const Model& model) {
    // Shift variables so every lower bound becomes 0, emit bound rows for
    // finite upper bounds, add slack/surplus columns to reach Ax = b with
    // b >= 0.
    const int n = model.numVariables();
    std::vector<double> shift(static_cast<size_t>(n), 0.0);
    double constant = model.objectiveConstant;
    for (int v = 0; v < n; ++v) {
        shift[static_cast<size_t>(v)] = model.lower(v);
        constant += model.objectiveCoeff(v) * model.lower(v);
    }

    struct NormRow {
        std::vector<std::pair<int, double>> coeffs;
        Sense sense;
        double rhs;
    };
    std::vector<NormRow> rows;
    rows.reserve(model.rows().size());
    for (const Row& r : model.rows()) {
        NormRow nr{r.coeffs, r.sense, r.rhs};
        for (const auto& [v, coef] : r.coeffs) {
            nr.rhs -= coef * shift[static_cast<size_t>(v)];
        }
        rows.push_back(std::move(nr));
    }
    for (int v = 0; v < n; ++v) {
        const double ub = model.upper(v);
        if (ub < kInfinity) {
            rows.push_back({{{v, 1.0}},
                            Sense::LessEqual,
                            ub - shift[static_cast<size_t>(v)]});
        }
    }

    const int m = static_cast<int>(rows.size());
    int numSlack = 0;
    for (const NormRow& r : rows) {
        if (r.sense != Sense::Equal) ++numSlack;
    }
    const int structural = n + numSlack;
    SimplexTableau tableau(structural, m);
    std::vector<double> cost(static_cast<size_t>(structural), 0.0);
    for (int v = 0; v < n; ++v) {
        cost[static_cast<size_t>(v)] = model.objectiveCoeff(v);
    }

    int slackCol = n;
    for (int i = 0; i < m; ++i) {
        NormRow& r = rows[static_cast<size_t>(i)];
        double sign = 1.0;
        if (r.rhs < 0.0) {
            sign = -1.0;
            r.rhs = -r.rhs;
            if (r.sense == Sense::LessEqual) r.sense = Sense::GreaterEqual;
            else if (r.sense == Sense::GreaterEqual) r.sense = Sense::LessEqual;
        }
        for (const auto& [v, coef] : r.coeffs) tableau.setCoeff(i, v, sign * coef);
        tableau.setRhs(i, r.rhs);
        if (r.sense == Sense::LessEqual) {
            tableau.setCoeff(i, slackCol++, 1.0);
        } else if (r.sense == Sense::GreaterEqual) {
            tableau.setCoeff(i, slackCol++, -1.0);
        }
    }

    Solution sol;
    std::vector<double> x;
    double obj = 0.0;
    sol.status = tableau.solve(cost, &x, &obj);
    if (sol.status != SolveStatus::Optimal) return sol;
    sol.values.assign(static_cast<size_t>(n), 0.0);
    for (int v = 0; v < n; ++v) {
        sol.values[static_cast<size_t>(v)] =
            x[static_cast<size_t>(v)] + shift[static_cast<size_t>(v)];
    }
    sol.objective = obj + constant;
    return sol;
}

}  // namespace streak::ilp
