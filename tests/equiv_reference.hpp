// The literal equivalent-topology construction (Sec. III-B2, Alg. 1) that
// the production shapes are checked against: every member of an object,
// shifted or not, is remapped from the backbone's structure, with the
// structure and the axis maps rebuilt per member.
#pragma once

#include "core/identify.hpp"
#include "core/signal.hpp"
#include "steiner/topology.hpp"

namespace streak::reference {

/// The equivalent topology of the member at `memberIndex` (into
/// object.bitIndices), over the member's own pins and driver.
[[nodiscard]] steiner::Topology equivalentTopology(
    const steiner::Topology& backbone, const SignalGroup& group,
    const RoutingObject& object, int memberIndex);

}  // namespace streak::reference
