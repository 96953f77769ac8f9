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
//
// Most bits of a signal group are the representative moved along the bus:
// pin i of the member lies at representative pin pinMap[i] + d for one
// offset d. Under such a shift the remap sends every coordinate c to
// c + d and no mapped pin lands off its member pin, so the redrawn RCs,
// which cover the whole backbone wire, are that wire moved by d.
// equivalentTopologies builds those members by moving the wire and
// remaps only the others.
#pragma once

#include <optional>
#include <vector>

#include "core/identify.hpp"
#include "core/signal.hpp"
#include "geom/point.hpp"
#include "steiner/topology.hpp"

namespace streak {

/// Per member of an object (aligned with object.bitIndices), the offset d
/// that moves the representative onto it — every member pin i at
/// representative pin pinMaps[k][i] + d — or nullopt when no single
/// offset does. The representative is a shift by (0, 0).
using MemberShifts = std::vector<std::optional<geom::Point>>;

/// The object's member shifts. They depend on the pins alone, so one call
/// serves every backbone of the object.
[[nodiscard]] MemberShifts memberShifts(const SignalGroup& group,
                                        const RoutingObject& object);

/// Equivalent topology for the bit at `memberIndex` (into
/// object.bitIndices) given a backbone over the object's representative
/// bit, always by the remap. The returned topology's pins are the member
/// bit's pins in the member bit's own pin order.
[[nodiscard]] steiner::Topology equivalentTopology(
    const steiner::Topology& backbone, const SignalGroup& group,
    const RoutingObject& object, int memberIndex);

/// Equivalent topologies for every bit of the object (aligned with
/// object.bitIndices), given the object's memberShifts. A shifted member
/// gets the backbone's wire moved over its own pins and driver; the
/// backbone's structure and coordinate pools are derived once, and only
/// when some member is not a shift. Equal, member for member, to
/// equivalentTopology.
[[nodiscard]] std::vector<steiner::Topology> equivalentTopologies(
    const steiner::Topology& backbone, const SignalGroup& group,
    const RoutingObject& object, const MemberShifts& shifts);

}  // namespace streak
