#include "core/metrics.hpp"

#include <map>

#include "core/regularity.hpp"
#include "steiner/rsmt.hpp"

namespace streak {

Metrics evaluate(const Design& design, const RoutedDesign& routed,
                 const std::vector<std::pair<int, int>>& unroutedBits) {
    Metrics m;
    m.totalBits = design.numNets();
    m.routedBits = routed.routedBits();
    m.routability = m.totalBits == 0
                        ? 1.0
                        : static_cast<double>(m.routedBits) / m.totalBits;

    for (const RoutedBit& b : routed.bits) m.wirelength += b.topo.wirelength();
    // The paper reports whole-design wire-length: unrouted bits are
    // estimated with a rectilinear Steiner minimum tree.
    for (const auto& [g, bIdx] : unroutedBits) {
        const Bit& bit = design.groups[static_cast<size_t>(g)]
                             .bits[static_cast<size_t>(bIdx)];
        steiner::EnumerateOptions eopts;
        eopts.maxCandidates = 1;
        const auto topos =
            steiner::enumerateTopologies(bit.pins, bit.driver, eopts);
        if (!topos.empty()) m.wirelength += topos.front().wirelength();
    }

    // Avg(Reg): per group, one representative topology per cluster.
    std::map<int, std::map<int, const steiner::Topology*>> groupClusters;
    for (const RoutedBit& b : routed.bits) {
        auto& clusters = groupClusters[b.groupIndex];
        clusters.emplace(b.clusterKey, &b.topo);  // keeps the first bit
    }
    double regSum = 0.0;
    int regGroups = 0;
    for (const auto& [group, clusters] : groupClusters) {
        if (clusters.size() < 2) continue;
        std::vector<const steiner::Topology*> reps;
        reps.reserve(clusters.size());
        for (const auto& [key, topo] : clusters) reps.push_back(topo);
        regSum += groupRegularity(reps);
        ++regGroups;
    }
    m.avgRegularity = regGroups == 0 ? 1.0 : regSum / regGroups;

    m.totalOverflow = routed.usage.totalOverflow();
    m.overflowedEdges = routed.usage.overflowedEdges();
    m.totalViaOverflow = routed.usage.totalViaOverflow();
    return m;
}

Metrics evaluate(const RoutingProblem& prob, const RoutedDesign& routed) {
    std::vector<std::pair<int, int>> unroutedBits;
    unroutedBits.reserve(routed.unroutedMembers.size());
    for (const auto& [objIdx, member] : routed.unroutedMembers) {
        const RoutingObject& obj = prob.objects[static_cast<size_t>(objIdx)];
        unroutedBits.emplace_back(obj.groupIndex,
                                  obj.bitIndices[static_cast<size_t>(member)]);
    }
    return evaluate(*prob.design, routed, unroutedBits);
}

}  // namespace streak
