// 3-D route candidates for routing objects.
//
// Every backbone is expanded per bit (equivalent topologies) into one
// layer-independent shape, which is then mapped onto pairs of
// uni-directional layers; each layer pair that fits is a candidate
// carrying its cost c(i, j) and per-edge track demand u_el(i, j) used by
// formulation (3). A shape's demand is counted per G-Cell of its
// bounding box and read out in (y, x) order, with no sort, unless the box
// has so many cells per unit of demand that sorting costs less. A bit
// that is a pure shift of the representative is never stored: the shape
// keeps its offset, counts its demand from the backbone's wire and via
// points moved, and derives its topology only when it is read.
#pragma once

#include <utility>
#include <vector>

#include "core/equiv.hpp"
#include "core/identify.hpp"
#include "core/options.hpp"
#include "core/signal.hpp"
#include "steiner/topology.hpp"

namespace streak {

/// `count` bits use the unit edge leaving G-Cell (x, y) in the direction
/// of the run list holding this run.
struct EdgeRun {
    int x = 0;
    int y = 0;
    int count = 0;
};

/// The layer-independent part of every candidate of one backbone: the
/// 2-D backbone, how each bit's equivalent topology derives from it, and
/// the demand they place on the grid before a layer pair is chosen.
/// Built once per backbone; its layer pairs, the pair-cost blocks and
/// bottom-up clustering all read it.
struct BackboneShape {
    steiner::Topology backbone;
    /// The object's member shifts (aligned with object.bitIndices): the
    /// offset that moves the backbone onto each member, or nullopt for a
    /// member that is remapped.
    MemberShifts shifts;
    /// The remapped members' equivalent topologies, in member order.
    std::vector<steiner::Topology> remaps;
    long wirelength2d = 0;  // total over bits
    int viaCount = 0;       // total over bits (bends + pin stacks)
    /// Via-slot demand per G-Cell (pin access stacks + layer-change
    /// points): sorted (cellIndex, slots) pairs. The same on every layer
    /// pair. Only enforced when the grid's via model is enabled.
    std::vector<std::pair<int, int>> viaUse;
    /// Demand on the horizontal / vertical unit edges inside the grid,
    /// sorted by (y, x), so that on any one layer the edge ids come out
    /// ascending.
    std::vector<EdgeRun> hRuns;
    std::vector<EdgeRun> vRuns;

    /// The equivalent topology of member `k` (into object.bitIndices) of
    /// the object this shape was built for: the backbone moved by the
    /// member's shift over the member's own pins and driver, or its
    /// stored remap. Either way it equals the remap of the backbone onto
    /// the member (Alg. 1). The only way to read a member's topology.
    [[nodiscard]] steiner::Topology memberTopology(
        const SignalGroup& group, const RoutingObject& object, int k) const;
};

struct RouteCandidate {
    /// Which backbone this candidate came from: its shape is
    /// RoutingProblem::shapes[object][backboneId].
    int backboneId = 0;
    int hLayer = 0;  // layer of all horizontal trunks
    int vLayer = 1;  // layer of all vertical trunks
    double cost = 0.0;          // c(i, j)
    long wirelength2d = 0;      // total over bits
    int viaCount = 0;           // total over bits (bends + pin stacks)
    /// Track demand per 3-D edge: sorted (edgeId, tracks) pairs.
    std::vector<std::pair<int, int>> edgeUse;
    /// The shape's via-slot demand (see BackboneShape::viaUse).
    std::vector<std::pair<int, int>> viaUse;
};

/// Candidate generation output for one object.
struct ObjectCandidates {
    /// One shape per backbone, in enumeration order, including backbones
    /// none of whose layer pairs fit.
    std::vector<BackboneShape> shapes;
    /// The candidates that fit, sorted by cost.
    std::vector<RouteCandidate> candidates;
};

/// Sorted per-edge track demand (edgeId, tracks) of one topology on the
/// given layer pair. Exposed for the post-optimization stages, ECO and
/// the stage auditors.
[[nodiscard]] std::vector<std::pair<int, int>> computeEdgeUse(
    const grid::RoutingGrid& grid, const steiner::Topology& topo, int hLayer,
    int vLayer);

/// Via-slot demand of one topology: one slot per pin (access stack) plus
/// one per layer-change point. Sorted (cellIndex, slots).
[[nodiscard]] std::vector<std::pair<int, int>> computeViaUse(
    const grid::RoutingGrid& grid, const steiner::Topology& topo);

/// Enumerate candidates for one object: backbones x layer pairs, filtered
/// to those that fit edge capacities in an empty grid.
[[nodiscard]] ObjectCandidates generateCandidates(const Design& design,
                                                  const RoutingObject& object,
                                                  const StreakOptions& opts);

}  // namespace streak
