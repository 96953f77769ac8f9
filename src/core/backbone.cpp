#include "core/backbone.hpp"

namespace streak {

std::vector<steiner::Topology> generateBackbones(const SignalGroup& group,
                                                 const RoutingObject& object,
                                                 const BackboneOptions& opts) {
    const int repBit =
        object.bitIndices[static_cast<size_t>(object.representativeBit)];
    const Bit& rep = group.bits[static_cast<size_t>(repBit)];
    steiner::EnumerateOptions eopts;
    eopts.maxCandidates = opts.maxBackbones;
    return steiner::enumerateTopologies(rep.pins, rep.driver, eopts);
}

}  // namespace streak
