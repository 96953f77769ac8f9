// Sparse two-phase primal simplex for the LP relaxations used by the
// branch-and-bound ILP solver. Small and deterministic; adequate for the
// per-component subproblems Streak produces.
//
// One engine (DESIGN.md "Performance"): a bounded-variable simplex whose
// tableau rows are column-sorted (column, value) lists. Finite upper
// bounds are handled by nonbasic-at-upper statuses and bound flips
// instead of one explicit `<=` row + artificial per bounded variable. A
// pivot gathers the entering column once and merges the pivot row into
// only the rows that have an entry there, so its cost follows the
// nonzeros (a dozen per row on the router's models) rather than the
// row x column product. Every solve is cold: phase 1 decides
// feasibility, phase 2 optimizes.
//
// A Relaxation prepares a model once — rows merged (duplicate columns
// summed in listed order) and sorted — and then re-solves it under any
// number of 0/1 fixings, the way one branch-and-bound search visits its
// nodes, in a workspace whose buffers keep their capacity. solveLp is
// the same path with no fixings. Each nonzero sees the arithmetic a
// dense tableau gives it, in the same order, so pivots, bound flips,
// statuses and objectives are bit-identical to the dense oracle in
// tests/lp_dense.cpp (only the sign of an exact zero can differ, and no
// decision reads it).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "ilp/model.hpp"
#include "robust/deadline.hpp"

namespace streak::ilp {

/// A model's LP relaxation, prepared once for repeated solves under
/// different 0/1 fixings. Holds a reference to the model, which must
/// outlive it; one instance serves one thread.
class Relaxation {
public:
    explicit Relaxation(const Model& model);
    Relaxation(const Model&& model) = delete;  // must outlive the relaxation
    ~Relaxation();
    Relaxation(const Relaxation&) = delete;
    Relaxation& operator=(const Relaxation&) = delete;

    /// Solve as a *continuous* LP with integer variable v fixed to
    /// fixed[v] (0 or 1) wherever fixed[v] >= 0; an empty span fixes
    /// nothing. Same contract as solveLp, plus a soft limit: `timeUp`,
    /// when set, is polled at the same ticks as `control`, and once it
    /// returns true the solve stops there with status Limit (a search's
    /// time limit ends the search; an expired `control` unwinds it).
    [[nodiscard]] Solution solve(std::span<const std::int8_t> fixed = {},
                                 const robust::Deadline& control = {},
                                 const std::function<bool()>& timeUp = {});

private:
    class Engine;
    std::unique_ptr<Engine> engine_;
};

/// Solve the model as a *continuous* LP (integrality flags ignored).
/// Finite bounds are handled by shifting lower bounds to zero and keeping
/// upper bounds implicit in the simplex. Status is Optimal, Infeasible,
/// or Unbounded. `control` is the run deadline, polled every 64 simplex
/// iterations (none by default; never influences pivot choices).
[[nodiscard]] Solution solveLp(const Model& model,
                               const robust::Deadline& control = {});

}  // namespace streak::ilp
