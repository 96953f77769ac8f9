// The dense bounded-variable simplex that ilp::solveLp ran on before its
// tableau went sparse, kept as the bit-for-bit oracle of
// lp_kernel_equivalence_test. The engine below is the former
// src/ilp/lp.cpp verbatim except for its entry point, which returns the
// pivot and bound-flip counts instead of adding them to the session
// counters, and for the run-deadline poll, which no oracle run arms.
#include "lp_dense.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "check/assert.hpp"

namespace streak::ilp {

namespace {

constexpr double kEps = 1e-9;
constexpr double kPivotTol = 1e-7;
constexpr double kFeasTol = 1e-7;

/// Dense bounded-variable primal simplex on the flat row-major tableau
///   min c^T x   s.t.  A x = b,  0 <= x_j <= u_j
/// with u_j possibly infinite. Nonbasic variables sit at one of their
/// bounds; a variable whose cheapest move runs into its opposite bound is
/// *flipped* there in O(m) without a pivot. Column layout:
/// [0, nStruct) structural + slack columns, then one artificial per row.
class BoundedSimplex {
public:
    BoundedSimplex(int nStruct, int numRows)
        : n_(nStruct), m_(numRows), total_(nStruct + numRows),
          a_(static_cast<size_t>(numRows) *
                 static_cast<size_t>(nStruct + numRows),
             0.0),
          b_(static_cast<size_t>(numRows), 0.0),
          upper_(static_cast<size_t>(nStruct + numRows),
                 std::numeric_limits<double>::infinity()),
          atUpper_(static_cast<size_t>(nStruct + numRows), 0),
          basis_(static_cast<size_t>(numRows), -1),
          inBasis_(static_cast<size_t>(nStruct + numRows), 0) {}

    double* row(int r) {
        return &a_[static_cast<size_t>(r) * static_cast<size_t>(total_)];
    }
    void setRhs(int r, double v) { b_[static_cast<size_t>(r)] = v; }
    void setUpper(int col, double u) { upper_[static_cast<size_t>(col)] = u; }
    /// Initial basic column for a row (the slack for `<=` rows, else the
    /// row's artificial).
    void setInitialBasis(int r, int col) {
        basis_[static_cast<size_t>(r)] = col;
        inBasis_[static_cast<size_t>(col)] = 1;
    }

    [[nodiscard]] long pivots() const { return pivots_; }
    [[nodiscard]] long boundFlips() const { return boundFlips_; }

    /// Phase 1 (minimize the artificial sum, pricing *all* columns —
    /// restricting phase-1 pricing could misreport infeasibility) then
    /// phase 2 (structural pricing only, artificials pinned to zero).
    SolveStatus solve(const std::vector<double>& cost, std::vector<double>* x,
                      double* obj) {
        xB_ = b_;  // nonbasics all start at their lower bound 0
        std::vector<double> phase1(static_cast<size_t>(total_), 0.0);
        for (int c = n_; c < total_; ++c) phase1[static_cast<size_t>(c)] = 1.0;
        if (!runSimplex(phase1, total_)) return SolveStatus::Unbounded;
        double infeas = 0.0;
        for (int r = 0; r < m_; ++r) {
            if (basis_[static_cast<size_t>(r)] >= n_) {
                infeas += std::max(0.0, xB_[static_cast<size_t>(r)]);
            }
        }
        if (infeas > 1e-6) return SolveStatus::Infeasible;
        driveOutArtificials();
        return phase2(cost, x, obj);
    }

private:
    [[nodiscard]] double valueAt(int r, int c) const {
        return a_[static_cast<size_t>(r) * static_cast<size_t>(total_) +
                  static_cast<size_t>(c)];
    }

    SolveStatus phase2(const std::vector<double>& cost, std::vector<double>* x,
                       double* obj) {
        // Artificials are pinned at zero (upper bound 0) and excluded
        // from pricing — no big-M cost needed.
        for (int c = n_; c < total_; ++c) upper_[static_cast<size_t>(c)] = 0.0;
        std::vector<double> phase2cost(static_cast<size_t>(total_), 0.0);
        for (int c = 0; c < n_; ++c) {
            phase2cost[static_cast<size_t>(c)] = cost[static_cast<size_t>(c)];
        }
        if (!runSimplex(phase2cost, n_)) return SolveStatus::Unbounded;

        x->assign(static_cast<size_t>(n_), 0.0);
        for (int j = 0; j < n_; ++j) {
            if (atUpper_[static_cast<size_t>(j)]) {
                (*x)[static_cast<size_t>(j)] = upper_[static_cast<size_t>(j)];
            }
        }
        for (int r = 0; r < m_; ++r) {
            const int bc = basis_[static_cast<size_t>(r)];
            if (bc < n_) {
                (*x)[static_cast<size_t>(bc)] = xB_[static_cast<size_t>(r)];
            }
        }
        *obj = 0.0;
        for (int j = 0; j < n_; ++j) {
            *obj += cost[static_cast<size_t>(j)] * (*x)[static_cast<size_t>(j)];
        }
        return SolveStatus::Optimal;
    }

    /// After phase 1, pivot basic artificials onto structural columns
    /// where possible; rows with no structural pivot are redundant. The
    /// entering column keeps its current value (0 or its upper bound) and
    /// the leaving artificial sits at ~0, so no variable actually moves:
    /// every basic value is preserved and row `r` takes the entering
    /// column's bound value.
    void driveOutArtificials() {
        for (int r = 0; r < m_; ++r) {
            const int leaving = basis_[static_cast<size_t>(r)];
            if (leaving < n_) continue;
            for (int c = 0; c < n_; ++c) {
                if (inBasis_[static_cast<size_t>(c)]) continue;
                if (std::abs(valueAt(r, c)) <= kPivotTol) continue;
                const double vc = atUpper_[static_cast<size_t>(c)]
                                      ? upper_[static_cast<size_t>(c)]
                                      : 0.0;
                inBasis_[static_cast<size_t>(leaving)] = 0;
                inBasis_[static_cast<size_t>(c)] = 1;
                basis_[static_cast<size_t>(r)] = c;
                atUpper_[static_cast<size_t>(c)] = 0;
                pivot(r, c);
                xB_[static_cast<size_t>(r)] = vc;
                break;
            }
        }
    }

    /// Bounded-variable primal simplex with the given cost vector,
    /// pricing columns [0, pricingLimit). Deterministic Dantzig rule
    /// (largest violation, smallest index on ties) with a Bland-style
    /// smallest-index fallback after maxIter/2. Returns false on
    /// unboundedness.
    bool runSimplex(const std::vector<double>& cost, int pricingLimit) {
        // Canonicalize the reduced-cost row against the current basis.
        red_ = cost;
        for (int r = 0; r < m_; ++r) {
            const double cb =
                cost[static_cast<size_t>(basis_[static_cast<size_t>(r)])];
            if (cb == 0.0) continue;  // analyze-ok: float-equality
            const double* pr = row(r);
            for (int c = 0; c < total_; ++c) {
                red_[static_cast<size_t>(c)] -= cb * pr[static_cast<size_t>(c)];
            }
        }

        const long maxIter = 20L * (m_ + static_cast<long>(total_)) + 2000;
        for (long iterations = 0;; ++iterations) {
            if (iterations > maxIter) break;  // stall guard
            const bool useBland = iterations > maxIter / 2;

            // Entering: nonbasic at lower with negative reduced cost, or
            // nonbasic at a positive upper with positive reduced cost.
            // Fixed columns (upper == 0: phase-2 artificials, B&B
            // fixings) cannot move and are never priced in.
            int entering = -1;
            bool fromUpper = false;
            double best = 1e-7;
            for (int c = 0; c < pricingLimit; ++c) {
                const size_t sc = static_cast<size_t>(c);
                if (inBasis_[sc]) continue;
                if (upper_[sc] <= 0.0) continue;
                const double violation = atUpper_[sc] ? red_[sc] : -red_[sc];
                if (violation > best) {
                    entering = c;
                    fromUpper = atUpper_[sc] != 0;
                    if (useBland) break;
                    best = violation;
                }
            }
            if (entering < 0) return true;  // optimal

            // Ratio test. The entering variable moves off its bound by
            // t >= 0; basic variable in row r changes by -dir * a_re * t
            // where dir = +1 leaving the lower bound, -1 the upper.
            const double dir = fromUpper ? -1.0 : 1.0;
            const double uEnter = upper_[static_cast<size_t>(entering)];
            int leavingRow = -1;
            bool leavingToUpper = false;
            double bestT = std::numeric_limits<double>::infinity();
            for (int r = 0; r < m_; ++r) {
                const double delta = dir * valueAt(r, entering);
                const size_t sr = static_cast<size_t>(r);
                if (delta > kEps) {  // this basic decreases toward 0
                    const double t = xB_[sr] / delta;
                    if (leavingRow < 0 || t < bestT - kEps ||
                        (t < bestT + kEps &&
                         basis_[sr] < basis_[static_cast<size_t>(leavingRow)])) {
                        leavingRow = r;
                        leavingToUpper = false;
                        bestT = t;
                    }
                } else if (delta < -kEps) {  // increases toward its upper
                    const double ub =
                        upper_[static_cast<size_t>(basis_[sr])];
                    if (!std::isfinite(ub)) continue;
                    const double t = (ub - xB_[sr]) / (-delta);
                    if (leavingRow < 0 || t < bestT - kEps ||
                        (t < bestT + kEps &&
                         basis_[sr] < basis_[static_cast<size_t>(leavingRow)])) {
                        leavingRow = r;
                        leavingToUpper = true;
                        bestT = t;
                    }
                }
            }

            if (uEnter <= bestT) {
                // Bound flip: the entering variable reaches its opposite
                // bound before any basic blocks. O(m), no pivot.
                if (!std::isfinite(uEnter)) return false;  // unbounded
                for (int r = 0; r < m_; ++r) {
                    xB_[static_cast<size_t>(r)] -=
                        dir * valueAt(r, entering) * uEnter;
                }
                atUpper_[static_cast<size_t>(entering)] = fromUpper ? 0 : 1;
                ++boundFlips_;
                continue;
            }
            if (leavingRow < 0) return false;  // unbounded
            const double t = std::max(0.0, bestT);

            // Move the basics, settle the leaving variable on its bound,
            // then pivot the entering column into the basis.
            for (int r = 0; r < m_; ++r) {
                xB_[static_cast<size_t>(r)] -= dir * valueAt(r, entering) * t;
            }
            const int leaving = basis_[static_cast<size_t>(leavingRow)];
            const size_t sl = static_cast<size_t>(leaving);
            if (leavingToUpper) {
                atUpper_[sl] = 1;
                xB_[static_cast<size_t>(leavingRow)] = upper_[sl];  // exact
            } else {
                atUpper_[sl] = 0;
                xB_[static_cast<size_t>(leavingRow)] = 0.0;  // exact
            }
            inBasis_[sl] = 0;
            inBasis_[static_cast<size_t>(entering)] = 1;
            basis_[static_cast<size_t>(leavingRow)] = entering;
            pivot(leavingRow, entering);
            xB_[static_cast<size_t>(leavingRow)] = fromUpper ? uEnter - t : t;
        }
        return true;
    }

    /// Row elimination making column `col` the `row`-th unit vector.
    /// Updates the reduced-cost row when present. Does NOT touch xB_:
    /// basic values are maintained directly by the callers (b_ only
    /// tracks the canonical all-nonbasics-at-zero rhs).
    void pivot(int row_, int col) {
        ++pivots_;
        double* prow = row(row_);
        const double pv = prow[static_cast<size_t>(col)];
        STREAK_ASSERT(std::abs(pv) > kEps,
                      "pivot on near-zero element {} at row {}, column {}",
                      pv, row_, col);
        for (int c = 0; c < total_; ++c) prow[static_cast<size_t>(c)] /= pv;
        b_[static_cast<size_t>(row_)] /= pv;
        for (int r = 0; r < m_; ++r) {
            if (r == row_) continue;
            double* rr = row(r);
            const double factor = rr[static_cast<size_t>(col)];
            if (factor == 0.0) continue;  // analyze-ok: float-equality
            for (int c = 0; c < total_; ++c) {
                rr[static_cast<size_t>(c)] -=
                    factor * prow[static_cast<size_t>(c)];
            }
            rr[static_cast<size_t>(col)] = 0.0;  // fight round-off drift
            b_[static_cast<size_t>(r)] -= factor * b_[static_cast<size_t>(row_)];
        }
        if (!red_.empty()) {
            const double factor = red_[static_cast<size_t>(col)];
            if (factor != 0.0) {  // analyze-ok: float-equality
                for (int c = 0; c < total_; ++c) {
                    red_[static_cast<size_t>(c)] -=
                        factor * prow[static_cast<size_t>(c)];
                }
                red_[static_cast<size_t>(col)] = 0.0;
            }
        }
    }

    int n_;      // structural + slack columns
    int m_;      // rows
    int total_;  // n_ + one artificial per row
    std::vector<double> a_;   // flat row-major tableau, width total_
    std::vector<double> b_;   // canonical rhs (all nonbasics at 0)
    std::vector<double> xB_;  // actual basic values (bounds-aware)
    std::vector<double> red_;
    std::vector<double> upper_;
    std::vector<std::uint8_t> atUpper_;
    std::vector<int> basis_;
    std::vector<std::uint8_t> inBasis_;
    long pivots_ = 0;
    long boundFlips_ = 0;
};

/// Shift-to-zero-lower-bound preprocessing. Rows keep their original
/// order; rhs-negative rows are scaled by -1 (sense flipped) so every
/// artificial starts nonnegative. Column layout: structural, then one
/// slack per inequality row in row order, then one artificial per row.
struct PreparedLp {
    int n = 0;         // model variables
    int numSlack = 0;  // inequality rows
    int m = 0;         // rows
    double constant = 0.0;
    std::vector<double> shift;
    std::vector<double> upper;  // shifted upper bound per variable
    struct NormRow {
        std::vector<std::pair<int, double>> coeffs;
        Sense sense;
        double rhs;
    };
    std::vector<NormRow> rows;
    bool contradictoryBounds = false;
};

PreparedLp prepare(const Model& model) {
    PreparedLp p;
    p.n = model.numVariables();
    p.constant = model.objectiveConstant;
    p.shift.assign(static_cast<size_t>(p.n), 0.0);
    p.upper.assign(static_cast<size_t>(p.n), kInfinity);
    for (int v = 0; v < p.n; ++v) {
        const double lo = model.lower(v);
        p.shift[static_cast<size_t>(v)] = lo;
        p.constant += model.objectiveCoeff(v) * lo;
        const double ub = model.upper(v);
        if (ub < kInfinity) {
            const double u = ub - lo;
            if (u < -kFeasTol) p.contradictoryBounds = true;
            p.upper[static_cast<size_t>(v)] = std::max(0.0, u);
        }
    }
    p.rows.reserve(model.rows().size());
    for (const Row& r : model.rows()) {
        PreparedLp::NormRow nr{r.coeffs, r.sense, r.rhs};
        for (const auto& [v, coef] : nr.coeffs) {
            nr.rhs -= coef * p.shift[static_cast<size_t>(v)];
        }
        if (nr.rhs < 0.0) {
            nr.rhs = -nr.rhs;
            for (auto& [v, coef] : nr.coeffs) coef = -coef;
            if (nr.sense == Sense::LessEqual) {
                nr.sense = Sense::GreaterEqual;
            } else if (nr.sense == Sense::GreaterEqual) {
                nr.sense = Sense::LessEqual;
            }
        }
        p.rows.push_back(std::move(nr));
    }
    p.m = static_cast<int>(p.rows.size());
    for (const PreparedLp::NormRow& r : p.rows) {
        if (r.sense != Sense::Equal) ++p.numSlack;
    }
    return p;
}

/// Build the bounded tableau from a prepared model, with the initial
/// basis (the slack for `<=` rows, else the row's artificial).
void buildBounded(const PreparedLp& p, BoundedSimplex* s) {
    const int nStruct = p.n + p.numSlack;
    int slackCol = p.n;
    for (int i = 0; i < p.m; ++i) {
        const PreparedLp::NormRow& r = p.rows[static_cast<size_t>(i)];
        double* row = s->row(i);
        for (const auto& [v, coef] : r.coeffs) {
            row[static_cast<size_t>(v)] += coef;
        }
        s->setRhs(i, r.rhs);
        const int art = nStruct + i;
        row[static_cast<size_t>(art)] = 1.0;
        if (r.sense == Sense::LessEqual) {
            row[static_cast<size_t>(slackCol)] = 1.0;
            s->setInitialBasis(i, slackCol++);
        } else if (r.sense == Sense::GreaterEqual) {
            row[static_cast<size_t>(slackCol++)] = -1.0;
            s->setInitialBasis(i, art);
        } else {
            s->setInitialBasis(i, art);
        }
    }
    for (int v = 0; v < p.n; ++v) {
        s->setUpper(v, p.upper[static_cast<size_t>(v)]);
    }
}

}  // namespace

Solution solveLpDense(const Model& model, DenseLpStats* stats) {
    const PreparedLp p = prepare(model);
    Solution sol;
    *stats = {};
    if (p.contradictoryBounds) {
        sol.status = SolveStatus::Infeasible;
        return sol;
    }
    const int nStruct = p.n + p.numSlack;

    std::vector<double> cost(static_cast<size_t>(nStruct), 0.0);
    for (int v = 0; v < p.n; ++v) {
        cost[static_cast<size_t>(v)] = model.objectiveCoeff(v);
    }

    BoundedSimplex simplex(nStruct, p.m);
    buildBounded(p, &simplex);
    std::vector<double> x;
    double obj = 0.0;
    sol.status = simplex.solve(cost, &x, &obj);
    stats->pivots = simplex.pivots();
    stats->boundFlips = simplex.boundFlips();

    if (sol.status != SolveStatus::Optimal) return sol;
    sol.values.assign(static_cast<size_t>(p.n), 0.0);
    for (int v = 0; v < p.n; ++v) {
        sol.values[static_cast<size_t>(v)] =
            x[static_cast<size_t>(v)] + p.shift[static_cast<size_t>(v)];
    }
    sol.objective = obj + p.constant;
    return sol;
}

}  // namespace streak::ilp
