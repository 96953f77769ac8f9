// Dense two-phase primal simplex for the LP relaxations used by the
// branch-and-bound ILP solver. Small and deterministic; adequate for the
// per-component subproblems Streak produces.
//
// One engine (DESIGN.md "Performance"): a bounded-variable simplex on a
// flat row-major tableau. Finite upper bounds are handled by nonbasic-at-
// upper statuses and bound flips instead of one explicit `<=` row +
// artificial per bounded variable, which roughly halves the row count on
// Streak's 0/1 selection models and shrinks every pivot's row sweep.
// Every solve is cold: phase 1 decides feasibility, phase 2 optimizes.
#pragma once

#include "ilp/model.hpp"
#include "robust/control.hpp"

namespace streak::ilp {

/// Solve the model as a *continuous* LP (integrality flags ignored).
/// Finite bounds are handled by shifting lower bounds to zero and keeping
/// upper bounds implicit in the simplex. Status is Optimal, Infeasible,
/// or Unbounded. `control` is the deadline/cancellation ticket polled
/// every few dozen pivots (idle by default; never influences pivot
/// choices).
[[nodiscard]] Solution solveLp(const Model& model,
                               const robust::Ticket& control = {});

}  // namespace streak::ilp
