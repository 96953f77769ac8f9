// Equivalent topology generation (Sec. III-B2, Algorithm 1).
//
// Given a backbone over the representative bit, every other bit of the
// object receives an equivalent topology: backbone bending points are
// re-aligned to the bit's corresponding pins (matched through similarity
// vectors during identification), and the same rectilinear connections
// are redrawn between them.
//
// Implementation note: every backbone coordinate lies on the Hanan grid of
// the representative pins, so aligning bends to mapped pins is exactly a
// coordinate-wise remap x -> x(bit pin with that x), y -> y(bit pin with
// that y). The remap preserves straightness and tree structure by
// construction.
#pragma once

#include "core/identify.hpp"
#include "core/signal.hpp"
#include "steiner/topology.hpp"

namespace streak {

/// Equivalent topology for the bit at `memberIndex` (into
/// object.bitIndices) given a backbone over the object's representative
/// bit. The returned topology's pins are the member bit's pins in the
/// member bit's own pin order.
[[nodiscard]] steiner::Topology equivalentTopology(
    const steiner::Topology& backbone, const SignalGroup& group,
    const RoutingObject& object, int memberIndex);

/// Equivalent topologies for every bit of the object (aligned with
/// object.bitIndices). The backbone's structure and coordinate pools are
/// computed once for all bits.
[[nodiscard]] std::vector<steiner::Topology> equivalentTopologies(
    const steiner::Topology& backbone, const SignalGroup& group,
    const RoutingObject& object);

}  // namespace streak
