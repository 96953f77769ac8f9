// A small linear / 0-1 integer programming model.
//
// This is the in-house substitute for the commercial ILP solver the paper
// uses (GUROBI): a plain model description with sparse rows, consumed by
// the simplex LP solver (lp.hpp) and the branch-and-bound ILP solver
// (branch_and_bound.hpp).
#pragma once

#include <limits>
#include <string>
#include <vector>

namespace streak::ilp {

enum class Sense { LessEqual, Equal, GreaterEqual };

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Sparse row: sum coeff_k * x_{var_k}  (sense)  rhs.
struct Row {
    std::vector<std::pair<int, double>> coeffs;
    Sense sense = Sense::LessEqual;
    double rhs = 0.0;
};

/// Minimization model. Variables are continuous in [lower, upper] unless
/// flagged integer (then they must be binary: bounds within [0, 1]).
class Model {
public:
    /// Add a variable; returns its index.
    int addVariable(double objectiveCoeff, bool integer, double lower = 0.0,
                    double upper = kInfinity);

    void addRow(Row row) { rows_.push_back(std::move(row)); }
    void addRow(std::vector<std::pair<int, double>> coeffs, Sense sense,
                double rhs) {
        rows_.push_back({std::move(coeffs), sense, rhs});
    }

    [[nodiscard]] int numVariables() const { return static_cast<int>(objective_.size()); }
    [[nodiscard]] int numRows() const { return static_cast<int>(rows_.size()); }
    [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }
    [[nodiscard]] double objectiveCoeff(int v) const { return objective_[static_cast<size_t>(v)]; }
    [[nodiscard]] bool isInteger(int v) const { return integer_[static_cast<size_t>(v)]; }
    [[nodiscard]] double lower(int v) const { return lower_[static_cast<size_t>(v)]; }
    [[nodiscard]] double upper(int v) const { return upper_[static_cast<size_t>(v)]; }

    double objectiveConstant = 0.0;

private:
    std::vector<double> objective_;
    std::vector<bool> integer_;
    std::vector<double> lower_;
    std::vector<double> upper_;
    std::vector<Row> rows_;
};

enum class SolveStatus {
    Optimal,      // proven optimal
    Feasible,     // feasible incumbent, limit hit before proof
    Infeasible,   // proven infeasible
    Unbounded,    // LP unbounded below
    Limit,        // limit hit with no incumbent
};

struct Solution {
    SolveStatus status = SolveStatus::Limit;
    double objective = 0.0;
    std::vector<double> values;

    [[nodiscard]] bool hasSolution() const {
        return status == SolveStatus::Optimal || status == SolveStatus::Feasible;
    }
};

}  // namespace streak::ilp
