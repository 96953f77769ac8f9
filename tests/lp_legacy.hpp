// The original explicit-row simplex formulation, kept as a test-only
// oracle for ilp::solveLp: every finite upper bound becomes its own `<=`
// row + slack, so the tableau shares no bound handling with the
// bounded-variable engine it cross-checks (lp_test "LpEquivalence").
#pragma once

#include "ilp/model.hpp"

namespace streak::ilp {

/// Solve the model as a continuous LP with upper bounds as explicit rows.
/// Status is Optimal, Infeasible, or Unbounded.
[[nodiscard]] Solution solveLpLegacy(const Model& model);

}  // namespace streak::ilp
