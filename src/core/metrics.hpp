// Evaluation metrics reported in Tables I / II: routability, total
// wire-length (with RSMT estimates for unrouted bits, as in the paper),
// average group regularity (Eq. 9) and overflow.
#pragma once

#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "core/solution.hpp"

namespace streak {

struct Metrics {
    int totalBits = 0;
    int routedBits = 0;
    /// Routed bits / total bits ("Route" column).
    double routability = 0.0;
    /// 2-D wire-length of routed bits plus RSMT estimates for unrouted
    /// ones ("WL" column; whole-design view as in the paper).
    long wirelength = 0;
    /// Mean Eq. (9) regularity over groups with >= 2 routed clusters
    /// ("Avg(Reg)").
    double avgRegularity = 1.0;
    long totalOverflow = 0;
    int overflowedEdges = 0;
    /// Via-slot overflow over G-Cells (pin-access model; 0 when disabled).
    long totalViaOverflow = 0;
};

/// Metrics of a routed design whose unrouted bits are the (group, bit)
/// pairs `unroutedBits`.
[[nodiscard]] Metrics evaluate(
    const Design& design, const RoutedDesign& routed,
    const std::vector<std::pair<int, int>>& unroutedBits);

/// Metrics of a routed design built from `prob` (its unrouted members
/// name their bits through the problem's objects).
[[nodiscard]] Metrics evaluate(const RoutingProblem& prob,
                               const RoutedDesign& routed);

}  // namespace streak
