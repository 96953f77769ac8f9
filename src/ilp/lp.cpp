#include "ilp/lp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "check/assert.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "robust/fault.hpp"

namespace streak::ilp {

namespace {

constexpr double kEps = 1e-9;
constexpr double kPivotTol = 1e-7;
constexpr double kFeasTol = 1e-7;

/// Local solve tallies, flushed once per solve call (any exit path) so
/// the pivot loops never touch the counter registry.
struct LpTally {
    long long solves = 0;
    long long pivots = 0;
    long long boundFlips = 0;

    ~LpTally() {
        if (!obs::detailEnabled()) return;
        obs::Session& sess = obs::session();
        sess.counter("ilp/lp.solves").add(solves);
        sess.counter("ilp/lp.pivots").add(pivots);
        sess.counter("ilp/lp.bound_flips").add(boundFlips);
    }
};

/// One nonzero of a tableau row.
struct Entry {
    int col;
    double value;
};

/// A tableau row: its nonzeros in increasing column order.
using SparseRow = std::vector<Entry>;

/// One nonzero of the entering column.
struct ColumnEntry {
    int row;
    double value;
};

}  // namespace

/// Sparse bounded-variable primal simplex
///   min c^T x   s.t.  A x = b,  0 <= x_j <= u_j
/// with u_j possibly infinite, plus the model it was prepared from.
/// Nonbasic variables sit at one of their bounds; a variable whose
/// cheapest move runs into its opposite bound is *flipped* there without
/// a pivot. Column layout: model variables, then one slack per
/// inequality row in row order, then one artificial per row.
///
/// Every floating-point operation on a nonzero is the one a dense
/// tableau applies to it, in the same order (tests/lp_dense.cpp keeps
/// that tableau as the oracle): a dense zero entry only ever has zero
/// added or subtracted, so leaving it out changes nothing but the sign
/// of a zero, and no decision reads that sign.
class Relaxation::Engine {
public:
    explicit Engine(const Model& model) : model_(model) {
        n_ = model.numVariables();
        const std::vector<Row>& rows = model.rows();
        m_ = static_cast<int>(rows.size());
        // Merge each row once: duplicate columns sum in listed order from
        // 0.0 (as a dense row's `+=` builds them), then sort by column. A
        // fixing can negate a row but never changes its columns.
        rowStart_.reserve(static_cast<size_t>(m_) + 1);
        rowStart_.push_back(0);
        slackOf_.assign(static_cast<size_t>(m_), -1);
        std::vector<double> sum(static_cast<size_t>(n_), 0.0);
        std::vector<std::uint8_t> seen(static_cast<size_t>(n_), 0);
        std::vector<int> cols;
        for (int i = 0; i < m_; ++i) {
            const Row& r = rows[static_cast<size_t>(i)];
            cols.clear();
            for (const auto& [v, coef] : r.coeffs) {
                const size_t sv = static_cast<size_t>(v);
                if (!seen[sv]) {
                    seen[sv] = 1;
                    sum[sv] = 0.0;
                    cols.push_back(v);
                }
                sum[sv] += coef;
            }
            std::sort(cols.begin(), cols.end());
            for (const int v : cols) {
                const size_t sv = static_cast<size_t>(v);
                seen[sv] = 0;
                if (sum[sv] != 0.0) merged_.push_back({v, sum[sv]});  // analyze-ok: float-equality
            }
            rowStart_.push_back(static_cast<int>(merged_.size()));
            if (r.sense != Sense::Equal) {
                slackOf_[static_cast<size_t>(i)] = n_ + numSlack_++;
            }
        }
        nStruct_ = n_ + numSlack_;
        total_ = nStruct_ + m_;

        phase1Cost_.assign(static_cast<size_t>(total_), 0.0);
        phase2Cost_.assign(static_cast<size_t>(total_), 0.0);
        for (int c = nStruct_; c < total_; ++c) {
            phase1Cost_[static_cast<size_t>(c)] = 1.0;
        }
        for (int v = 0; v < n_; ++v) {
            phase2Cost_[static_cast<size_t>(v)] = model.objectiveCoeff(v);
        }
        rows_.resize(static_cast<size_t>(m_));
        shift_.resize(static_cast<size_t>(n_));
    }

    Solution solve(std::span<const std::int8_t> fixed,
                   const robust::Deadline& control,
                   const std::function<bool()>& timeUp) {
        STREAK_FAULT_POINT("lp/solve");
        STREAK_REQUIRE(fixed.empty() ||
                           static_cast<int>(fixed.size()) == n_,
                       "{} fixings for {} variables", fixed.size(), n_);
        LpTally tally;
        tally.solves = 1;
        control_ = control;
        timeUp_ = timeUp ? &timeUp : nullptr;
        pivots_ = 0;
        boundFlips_ = 0;
        Solution sol;
        if (!load(fixed)) {
            sol.status = SolveStatus::Infeasible;
            return sol;
        }
        sol.status = run();
        tally.pivots = pivots_;
        tally.boundFlips = boundFlips_;

        if (sol.status != SolveStatus::Optimal) return sol;
        sol.values.assign(static_cast<size_t>(n_), 0.0);
        for (int v = 0; v < n_; ++v) {
            sol.values[static_cast<size_t>(v)] =
                x_[static_cast<size_t>(v)] + shift_[static_cast<size_t>(v)];
        }
        sol.objective = obj_ + constant_;
        return sol;
    }

private:
    /// Apply the fixings and lay out the initial tableau: lower bounds
    /// shifted to zero, each row's rhs reduced over its listed
    /// coefficients, rows whose rhs turns negative negated with their
    /// sense flipped (so every artificial starts nonnegative), and the
    /// initial basis (the slack for `<=` rows, else the row's
    /// artificial). False on contradictory bounds.
    bool load(std::span<const std::int8_t> fixed) {
        constant_ = model_.objectiveConstant;
        upper_.assign(static_cast<size_t>(total_), kInfinity);
        bool contradictory = false;
        for (int v = 0; v < n_; ++v) {
            const size_t sv = static_cast<size_t>(v);
            double lo = model_.lower(v);
            double ub = model_.upper(v);
            if (!fixed.empty() && fixed[sv] >= 0 && model_.isInteger(v)) {
                lo = ub = static_cast<double>(fixed[sv]);
            }
            shift_[sv] = lo;
            constant_ += model_.objectiveCoeff(v) * lo;
            if (ub < kInfinity) {
                const double u = ub - lo;
                if (u < -kFeasTol) contradictory = true;
                upper_[sv] = std::max(0.0, u);
            }
        }
        if (contradictory) return false;

        xB_.resize(static_cast<size_t>(m_));
        basis_.assign(static_cast<size_t>(m_), -1);
        inBasis_.assign(static_cast<size_t>(total_), 0);
        atUpper_.assign(static_cast<size_t>(total_), 0);
        const std::vector<Row>& rows = model_.rows();
        for (int i = 0; i < m_; ++i) {
            const size_t si = static_cast<size_t>(i);
            const Row& r = rows[si];
            double rhs = r.rhs;
            for (const auto& [v, coef] : r.coeffs) {
                rhs -= coef * shift_[static_cast<size_t>(v)];
            }
            Sense sense = r.sense;
            const bool negate = rhs < 0.0;
            if (negate) {
                rhs = -rhs;
                if (sense == Sense::LessEqual) {
                    sense = Sense::GreaterEqual;
                } else if (sense == Sense::GreaterEqual) {
                    sense = Sense::LessEqual;
                }
            }
            xB_[si] = rhs;  // nonbasics all start at their lower bound 0
            SparseRow& row = rows_[si];
            row.clear();
            for (int k = rowStart_[si]; k < rowStart_[si + 1]; ++k) {
                const Entry& e = merged_[static_cast<size_t>(k)];
                row.push_back({e.col, negate ? -e.value : e.value});
            }
            const int art = nStruct_ + i;
            const int slack = slackOf_[si];
            if (sense == Sense::LessEqual) {
                row.push_back({slack, 1.0});
                setInitialBasis(i, slack);
            } else if (sense == Sense::GreaterEqual) {
                row.push_back({slack, -1.0});
                setInitialBasis(i, art);
            } else {
                setInitialBasis(i, art);
            }
            row.push_back({art, 1.0});
        }
        return true;
    }

    void setInitialBasis(int r, int col) {
        basis_[static_cast<size_t>(r)] = col;
        inBasis_[static_cast<size_t>(col)] = 1;
    }

    /// Phase 1 (minimize the artificial sum, pricing *all* columns —
    /// restricting phase-1 pricing could misreport infeasibility) then
    /// phase 2 (structural pricing only, artificials pinned to zero).
    SolveStatus run() {
        if (const SolveStatus s = runSimplex(phase1Cost_, total_);
            s != SolveStatus::Optimal) {
            return s;
        }
        double infeas = 0.0;
        for (int r = 0; r < m_; ++r) {
            if (basis_[static_cast<size_t>(r)] >= nStruct_) {
                infeas += std::max(0.0, xB_[static_cast<size_t>(r)]);
            }
        }
        if (infeas > 1e-6) return SolveStatus::Infeasible;
        driveOutArtificials();

        // Artificials are pinned at zero (upper bound 0) and excluded
        // from pricing — no big-M cost needed.
        for (int c = nStruct_; c < total_; ++c) {
            upper_[static_cast<size_t>(c)] = 0.0;
        }
        if (const SolveStatus s = runSimplex(phase2Cost_, nStruct_);
            s != SolveStatus::Optimal) {
            return s;
        }

        x_.assign(static_cast<size_t>(nStruct_), 0.0);
        for (int j = 0; j < nStruct_; ++j) {
            if (atUpper_[static_cast<size_t>(j)]) {
                x_[static_cast<size_t>(j)] = upper_[static_cast<size_t>(j)];
            }
        }
        for (int r = 0; r < m_; ++r) {
            const int bc = basis_[static_cast<size_t>(r)];
            if (bc < nStruct_) {
                x_[static_cast<size_t>(bc)] = xB_[static_cast<size_t>(r)];
            }
        }
        obj_ = 0.0;
        for (int j = 0; j < nStruct_; ++j) {
            obj_ += phase2Cost_[static_cast<size_t>(j)] *
                    x_[static_cast<size_t>(j)];
        }
        return SolveStatus::Optimal;
    }

    /// After phase 1, pivot basic artificials onto structural columns
    /// where possible (a row's nonzeros below the artificials, in column
    /// order); rows with no structural pivot are redundant. The entering
    /// column keeps its current value (0 or its upper bound) and the
    /// leaving artificial sits at ~0, so no variable actually moves:
    /// every basic value is preserved and row `r` takes the entering
    /// column's bound value.
    void driveOutArtificials() {
        for (int r = 0; r < m_; ++r) {
            const int leaving = basis_[static_cast<size_t>(r)];
            if (leaving < nStruct_) continue;
            int entering = -1;
            for (const Entry& e : rows_[static_cast<size_t>(r)]) {
                if (e.col >= nStruct_) break;
                if (inBasis_[static_cast<size_t>(e.col)]) continue;
                if (std::abs(e.value) <= kPivotTol) continue;
                entering = e.col;
                break;
            }
            if (entering < 0) continue;
            const size_t sc = static_cast<size_t>(entering);
            const double vc = atUpper_[sc] ? upper_[sc] : 0.0;
            inBasis_[static_cast<size_t>(leaving)] = 0;
            inBasis_[sc] = 1;
            basis_[static_cast<size_t>(r)] = entering;
            atUpper_[sc] = 0;
            gatherColumn(entering);
            pivot(r, entering);
            xB_[static_cast<size_t>(r)] = vc;
        }
    }

    /// The nonzeros of column `col`, in row order, into column_.
    void gatherColumn(int col) {
        column_.clear();
        for (int r = 0; r < m_; ++r) {
            const SparseRow& row = rows_[static_cast<size_t>(r)];
            const auto it = std::lower_bound(
                row.begin(), row.end(), col,
                [](const Entry& e, int c) { return e.col < c; });
            if (it != row.end() && it->col == col && it->value != 0.0) {  // analyze-ok: float-equality
                column_.push_back({r, it->value});
            }
        }
    }

    /// Bounded-variable primal simplex with the given cost vector,
    /// pricing columns [0, pricingLimit). Deterministic Dantzig rule
    /// (largest violation, smallest index on ties) with a Bland-style
    /// smallest-index fallback after maxIter/2. Returns Optimal when the
    /// phase ends, Unbounded, or Limit when timeUp_ stopped it.
    SolveStatus runSimplex(const std::vector<double>& cost, int pricingLimit) {
        // Canonicalize the reduced-cost row against the current basis.
        red_ = cost;
        for (int r = 0; r < m_; ++r) {
            const double cb =
                cost[static_cast<size_t>(basis_[static_cast<size_t>(r)])];
            if (cb == 0.0) continue;  // analyze-ok: float-equality
            for (const Entry& e : rows_[static_cast<size_t>(r)]) {
                red_[static_cast<size_t>(e.col)] -= cb * e.value;
            }
        }

        const long maxIter = 20L * (m_ + static_cast<long>(total_)) + 2000;
        for (long iterations = 0;; ++iterations) {
            if (iterations > maxIter) break;  // stall guard
            // Tick point: polled every 64 iterations, a clock read stays
            // invisible next to the pricing and elimination work.
            // The search's time limit skips iteration 0: branch and bound
            // polls it before every node, and most node LPs end within
            // 64 iterations, so they read no clock for it.
            if ((iterations & 63) == 0) {
                control_.checkpoint("lp/pivot");
                if (iterations > 0 && timeUp_ != nullptr && (*timeUp_)()) {
                    return SolveStatus::Limit;
                }
            }
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
            if (entering < 0) return SolveStatus::Optimal;

            // Ratio test over the entering column's nonzeros (a zero
            // entry neither blocks nor moves). The entering variable
            // moves off its bound by t >= 0; basic variable in row r
            // changes by -dir * a_re * t where dir = +1 leaving the lower
            // bound, -1 the upper.
            gatherColumn(entering);
            const double dir = fromUpper ? -1.0 : 1.0;
            const double uEnter = upper_[static_cast<size_t>(entering)];
            int leavingRow = -1;
            bool leavingToUpper = false;
            double bestT = std::numeric_limits<double>::infinity();
            for (const ColumnEntry& ce : column_) {
                const double delta = dir * ce.value;
                const size_t sr = static_cast<size_t>(ce.row);
                if (delta > kEps) {  // this basic decreases toward 0
                    const double t = xB_[sr] / delta;
                    if (leavingRow < 0 || t < bestT - kEps ||
                        (t < bestT + kEps &&
                         basis_[sr] < basis_[static_cast<size_t>(leavingRow)])) {
                        leavingRow = ce.row;
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
                        leavingRow = ce.row;
                        leavingToUpper = true;
                        bestT = t;
                    }
                }
            }

            if (uEnter <= bestT) {
                // Bound flip: the entering variable reaches its opposite
                // bound before any basic blocks. No pivot.
                if (!std::isfinite(uEnter)) return SolveStatus::Unbounded;
                for (const ColumnEntry& ce : column_) {
                    xB_[static_cast<size_t>(ce.row)] -=
                        dir * ce.value * uEnter;
                }
                atUpper_[static_cast<size_t>(entering)] = fromUpper ? 0 : 1;
                ++boundFlips_;
                continue;
            }
            if (leavingRow < 0) return SolveStatus::Unbounded;
            const double t = std::max(0.0, bestT);

            // Move the basics, settle the leaving variable on its bound,
            // then pivot the entering column into the basis.
            for (const ColumnEntry& ce : column_) {
                xB_[static_cast<size_t>(ce.row)] -= dir * ce.value * t;
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
        return SolveStatus::Optimal;
    }

    /// Make column `col` (gathered in column_) the `pivotRow`-th unit
    /// vector: scale the pivot row, merge it into every other row with
    /// an entry in the column, and update the reduced-cost row. Basic
    /// values are maintained by the callers.
    void pivot(int pivotRow, int col) {
        ++pivots_;
        SparseRow& prow = rows_[static_cast<size_t>(pivotRow)];
        double pv = 0.0;
        for (const ColumnEntry& ce : column_) {
            if (ce.row == pivotRow) pv = ce.value;
        }
        STREAK_ASSERT(std::abs(pv) > kEps,
                      "pivot on near-zero element {} at row {}, column {}",
                      pv, pivotRow, col);
        for (Entry& e : prow) e.value /= pv;
        for (const ColumnEntry& ce : column_) {
            if (ce.row != pivotRow) eliminate(ce.row, prow, ce.value, col);
        }
        const double factor = red_[static_cast<size_t>(col)];
        if (factor != 0.0) {  // analyze-ok: float-equality
            for (const Entry& e : prow) {
                red_[static_cast<size_t>(e.col)] -= factor * e.value;
            }
            red_[static_cast<size_t>(col)] = 0.0;
        }
    }

    /// row -= factor * prow by a merge of the two column lists. An entry
    /// only in the pivot row becomes 0.0 - factor * p; column `col`
    /// leaves the row (the pivot makes it exactly zero) and so does any
    /// entry that cancels to zero.
    void eliminate(int r, const SparseRow& prow, double factor, int col) {
        SparseRow& row = rows_[static_cast<size_t>(r)];
        scratch_.clear();
        auto a = row.begin();
        auto p = prow.begin();
        while (a != row.end() || p != prow.end()) {
            if (p == prow.end() || (a != row.end() && a->col < p->col)) {
                scratch_.push_back(*a++);
                continue;
            }
            const bool both = a != row.end() && a->col == p->col;
            const double v = (both ? a->value : 0.0) - factor * p->value;
            if (p->col != col && v != 0.0) {  // analyze-ok: float-equality
                scratch_.push_back({p->col, v});
            }
            if (both) ++a;
            ++p;
        }
        row.swap(scratch_);  // the old buffer becomes the next scratch
    }

    const Model& model_;
    int n_ = 0;         // model variables
    int m_ = 0;         // rows
    int numSlack_ = 0;  // inequality rows
    int nStruct_ = 0;   // n_ + numSlack_
    int total_ = 0;     // nStruct_ + one artificial per row
    // Prepared once: the merged, column-sorted model rows (CSR), each
    // inequality row's slack column, and the two phase cost rows.
    std::vector<Entry> merged_;
    std::vector<int> rowStart_;
    std::vector<int> slackOf_;
    std::vector<double> phase1Cost_;
    std::vector<double> phase2Cost_;
    // Per-solve workspace; every buffer keeps its capacity.
    std::vector<SparseRow> rows_;
    SparseRow scratch_;
    std::vector<ColumnEntry> column_;
    std::vector<double> shift_;
    std::vector<double> xB_;  // basic values (bounds-aware)
    std::vector<double> red_;
    std::vector<double> upper_;
    std::vector<std::uint8_t> atUpper_;
    std::vector<int> basis_;
    std::vector<std::uint8_t> inBasis_;
    std::vector<double> x_;
    double constant_ = 0.0;
    double obj_ = 0.0;
    long pivots_ = 0;
    long boundFlips_ = 0;
    robust::Deadline control_;  // none unless the caller passed one
    const std::function<bool()>* timeUp_ = nullptr;  // the caller's; read only in solve()
};

Relaxation::Relaxation(const Model& model)
    : engine_(std::make_unique<Engine>(model)) {}

Relaxation::~Relaxation() = default;

Solution Relaxation::solve(std::span<const std::int8_t> fixed,
                           const robust::Deadline& control,
                           const std::function<bool()>& timeUp) {
    return engine_->solve(fixed, control, timeUp);
}

Solution solveLp(const Model& model, const robust::Deadline& control) {
    Relaxation relaxation(model);
    return relaxation.solve({}, control, {});
}

}  // namespace streak::ilp
