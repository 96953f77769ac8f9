// The dense-tableau simplex ilp::solveLp replaced, kept as the test-only
// bit-for-bit oracle of its sparse engine (lp_kernel_equivalence_test).
#pragma once

#include "ilp/model.hpp"

namespace streak::ilp {

struct DenseLpStats {
    long pivots = 0;
    long boundFlips = 0;
};

/// Solve the model as a continuous LP on a flat row-major tableau.
/// Status is Optimal, Infeasible, or Unbounded.
[[nodiscard]] Solution solveLpDense(const Model& model, DenseLpStats* stats);

}  // namespace streak::ilp
