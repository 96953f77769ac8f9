#include "equiv_reference.hpp"

#include <cstdlib>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace streak::reference {

namespace {

std::unordered_map<int, int> buildAxisMap(
    const std::vector<int>& coords, const std::vector<int>& repCoords,
    const std::vector<int>& memberCoords) {
    std::unordered_map<int, int> map;
    for (const int c : coords) {
        if (map.contains(c)) continue;
        int bestPin = 0;
        int bestDist = std::numeric_limits<int>::max();
        for (size_t i = 0; i < repCoords.size(); ++i) {
            const int d = std::abs(repCoords[i] - c);
            if (d < bestDist) {
                bestDist = d;
                bestPin = static_cast<int>(i);
            }
        }
        const int offset = c - repCoords[static_cast<size_t>(bestPin)];
        map.emplace(c, memberCoords[static_cast<size_t>(bestPin)] + offset);
    }
    return map;
}

}  // namespace

steiner::Topology equivalentTopology(const steiner::Topology& backbone,
                                     const SignalGroup& group,
                                     const RoutingObject& object,
                                     int memberIndex) {
    const Bit& member = group.bits[static_cast<size_t>(
        object.bitIndices[static_cast<size_t>(memberIndex)])];
    const std::vector<int>& pinMap =
        object.pinMaps[static_cast<size_t>(memberIndex)];
    const std::vector<geom::Point>& repPins = backbone.pins();
    std::vector<int> memberOfRep(repPins.size(), -1);
    for (size_t i = 0; i < pinMap.size(); ++i) {
        memberOfRep[static_cast<size_t>(pinMap[i])] = static_cast<int>(i);
    }
    std::vector<int> repXs, repYs, memXs, memYs;
    for (size_t r = 0; r < repPins.size(); ++r) {
        const int m = memberOfRep[r];
        if (m < 0) continue;
        repXs.push_back(repPins[r].x);
        repYs.push_back(repPins[r].y);
        memXs.push_back(member.pins[static_cast<size_t>(m)].x);
        memYs.push_back(member.pins[static_cast<size_t>(m)].y);
    }
    const steiner::TopoStructure st = backbone.structure();
    std::vector<int> xs, ys;
    {
        std::unordered_set<int> xSeen, ySeen;
        const auto note = [&](geom::Point p) {
            if (xSeen.insert(p.x).second) xs.push_back(p.x);
            if (ySeen.insert(p.y).second) ys.push_back(p.y);
        };
        for (const auto& n : st.nodes) note(n.pt);
        for (const geom::Point p : repPins) note(p);
    }
    const auto xMap = buildAxisMap(xs, repXs, memXs);
    const auto yMap = buildAxisMap(ys, repYs, memYs);
    const auto mapPt = [&](geom::Point p) -> geom::Point {
        return {xMap.at(p.x), yMap.at(p.y)};
    };
    steiner::Topology out(member.pins, member.driver);
    for (const auto& [u, v] : st.rcs) {
        out.addSegment({mapPt(st.nodes[static_cast<size_t>(u)].pt),
                        mapPt(st.nodes[static_cast<size_t>(v)].pt)});
    }
    for (size_t i = 0; i < member.pins.size(); ++i) {
        const int r = pinMap[i];
        const geom::Point mapped = mapPt(repPins[static_cast<size_t>(r)]);
        const geom::Point actual = member.pins[i];
        if (mapped != actual) {
            out.addLShape(actual, mapped, {mapped.x, actual.y});
        }
    }
    return out;
}

}  // namespace streak::reference
