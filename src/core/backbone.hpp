// Backbone structure construction (Sec. III-B1, Definition 2).
//
// A backbone is a topology prototype built over the representative bit of
// a routing object; every bit of the object later adopts an equivalent
// copy (equiv.hpp). The construction extends batched-iterated-1-Steiner
// with bend-aware candidate enumeration so the selection formulation sees
// several distinct prototypes per object.
#pragma once

#include <vector>

#include "core/identify.hpp"
#include "core/signal.hpp"
#include "steiner/rsmt.hpp"
#include "steiner/topology.hpp"

namespace streak {

/// Backbones are ranked by wl + lambda * bends with the default
/// steiner::EnumerateOptions lambda, Steiner-point trees included.
struct BackboneOptions {
    int maxBackbones = 4;
};

/// Enumerate backbone candidates for `object` of `group`. At least one
/// backbone is always returned; all are trees over the representative
/// bit's pins.
[[nodiscard]] std::vector<steiner::Topology> generateBackbones(
    const SignalGroup& group, const RoutingObject& object,
    const BackboneOptions& opts = {});

}  // namespace streak
