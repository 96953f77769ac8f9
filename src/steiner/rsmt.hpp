// Rectilinear Steiner tree construction.
//
// Backbone structures (Sec. III-B1) are built by extending the batched
// iterated 1-Steiner heuristic of Kahng–Robins [16] with a bend-aware
// rectification step, and by enumerating several distinct candidate
// topologies per pin set (different L-shape orientations / Steiner point
// subsets) so the selection formulation has real choices.
#pragma once

#include <vector>

#include "geom/point.hpp"
#include "steiner/topology.hpp"

namespace streak::steiner {

/// Edges (as index pairs) of a minimum spanning tree over `pts` under the
/// Manhattan metric. Prim's algorithm, O(n^2). Deterministic.
[[nodiscard]] std::vector<std::pair<int, int>> rectilinearMST(
    const std::vector<geom::Point>& pts);

/// Total Manhattan length of the MST over `pts`.
[[nodiscard]] long mstLength(const std::vector<geom::Point>& pts);

/// Hanan grid candidate points: crossings of pin x/y coordinates that are
/// not pin locations themselves.
[[nodiscard]] std::vector<geom::Point> hananPoints(
    const std::vector<geom::Point>& pins);

/// Batched iterated 1-Steiner: repeatedly insert the Hanan point with the
/// best MST-length gain until no positive gain remains. Returns the
/// accepted Steiner points. Degree-pruned (points that end up with MST
/// degree <= 2 are dropped). Every candidate's MST length is evaluated
/// in buffers the call owns, with no allocation per candidate.
[[nodiscard]] std::vector<geom::Point> iterated1Steiner(
    const std::vector<geom::Point>& pins, int maxInserts = 16);

/// How rectify() turns a diagonal MST edge into an L-shape.
enum class LMode {
    LowerFirst,  // corner at (b.x, a.y): horizontal leg leaves `a` first
    UpperFirst,  // corner at (a.x, b.y): vertical leg leaves `a` first
    Adaptive,    // pick the corner that reuses already-placed wire, else
                 // the one aligned with the previous edge's direction
};

/// Build a concrete Topology from MST edges over pins + Steiner points.
/// `driver` indexes into `pins` (Steiner points follow the pins in the
/// combined point vector).
[[nodiscard]] Topology rectifyTree(const std::vector<geom::Point>& pins,
                                   int driver,
                                   const std::vector<geom::Point>& steiner,
                                   LMode mode);

/// Break the cycles of `t` (overlapping L-shapes can create them) and trim
/// dangling non-pin stubs, returning a tree covering the pins the driver
/// reaches. Trees come back unchanged.
[[nodiscard]] Topology pruneToTree(const Topology& t);

/// Knobs for candidate enumeration.
struct EnumerateOptions {
    int maxCandidates = 4;
    int bendPenalty = 2;  // lambda in cost = wl + lambda * bends
};

/// Enumerate up to maxCandidates distinct tree topologies for the pin set,
/// BI1S-improved trees included for >= 3 pins, sorted by
/// wl + bendPenalty * bends. Always returns at least one topology for
/// >= 1 pins. A rectified union is connected and covers its pins, so it
/// is tested for a cycle by counting its points (one more than its
/// edges for a tree), and only a union with a cycle goes through
/// pruneToTree; the result equals pruning every union.
[[nodiscard]] std::vector<Topology> enumerateTopologies(
    const std::vector<geom::Point>& pins, int driver,
    const EnumerateOptions& opts = {});

}  // namespace streak::steiner
