// Regularity evaluation (Sec. III-B3, Eq. 2 and Eq. 9).
//
// Objects of one group cannot always share a single topology; the
// regularity ratio quantifies how similar two topologies are by matching
// their feature points (pins and bends) through driver-weighted similarity
// vectors and counting preserved rectilinear connections.
#pragma once

#include <utility>
#include <vector>

#include "core/similarity.hpp"
#include "geom/point.hpp"
#include "steiner/topology.hpp"

namespace streak {

/// What the ratio reads of one topology: its feature points, their
/// driver-weighted similarity vectors, and its RCs. Build it once with
/// regularityView() when a topology is compared many times.
struct RegularityView {
    std::vector<geom::Point> points;
    std::vector<SimilarityVector> svs;  // index-aligned with points
    /// RCs as (lower, higher) indices into points, sorted.
    std::vector<std::pair<int, int>> rcs;
};

[[nodiscard]] RegularityView regularityView(const steiner::Topology& t);

/// Ratio(t1, t2) of Eq. (2): matched RCs over the smaller RC count, in
/// [0, 1]. Topologies without any RC (single-point bits) are trivially
/// regular (ratio 1).
[[nodiscard]] double regularityRatio(const RegularityView& v1,
                                     const RegularityView& v2);

/// The same ratio straight from the topologies.
[[nodiscard]] double regularityRatio(const steiner::Topology& t1,
                                     const steiner::Topology& t2);

/// Reg of Eq. (9): mean pairwise ratio over the given object solutions of
/// one group, from one view per topology. Groups with fewer than two
/// objects are trivially regular (returns 1).
[[nodiscard]] double groupRegularity(
    const std::vector<const steiner::Topology*>& objectTopologies);

}  // namespace streak
