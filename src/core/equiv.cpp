#include "core/equiv.hpp"

#include <cstdlib>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "check/assert.hpp"

namespace streak {

namespace {

/// What equivalent-topology generation reads of a backbone, the same for
/// every bit of the object: its structure, the pools of distinct feature
/// node and pin coordinates per axis, and where each node and pin sits in
/// those pools.
struct BackboneFrame {
    steiner::TopoStructure st;
    std::vector<int> xs;  // distinct, in first-seen order
    std::vector<int> ys;
    /// Index into xs / ys of every structure node, then of every
    /// backbone pin.
    std::vector<int> nodeX, nodeY, pinX, pinY;
};

BackboneFrame frameOf(const steiner::Topology& backbone) {
    BackboneFrame f;
    f.st = backbone.structure();
    std::unordered_map<int, int> xAt, yAt;
    const auto note = [&](geom::Point p, std::vector<int>* xi,
                          std::vector<int>* yi) {
        const auto [x, xNew] =
            xAt.emplace(p.x, static_cast<int>(f.xs.size()));
        if (xNew) f.xs.push_back(p.x);
        const auto [y, yNew] =
            yAt.emplace(p.y, static_cast<int>(f.ys.size()));
        if (yNew) f.ys.push_back(p.y);
        xi->push_back(x->second);
        yi->push_back(y->second);
    };
    for (const auto& n : f.st.nodes) note(n.pt, &f.nodeX, &f.nodeY);
    for (const geom::Point p : backbone.pins()) note(p, &f.pinX, &f.pinY);
    return f;
}

/// Map one coordinate axis: for each backbone coordinate, find the
/// nearest representative pin on that axis and carry the (usually zero,
/// by the Hanan property) offset over to the mapped member pin. The
/// result is index-aligned with `coords`.
std::vector<int> mapAxis(const std::vector<int>& coords,
                         const std::vector<int>& repCoords,
                         const std::vector<int>& memberCoords) {
    std::vector<int> mapped;
    mapped.reserve(coords.size());
    for (const int c : coords) {
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
        mapped.push_back(memberCoords[static_cast<size_t>(bestPin)] + offset);
    }
    return mapped;
}

steiner::Topology remapOnto(const BackboneFrame& frame,
                            const steiner::Topology& backbone,
                            const SignalGroup& group,
                            const RoutingObject& object, int memberIndex) {
    const Bit& member = memberBit(group, object, memberIndex);
    const std::vector<int>& pinMap =
        object.pinMaps[static_cast<size_t>(memberIndex)];
    const std::vector<geom::Point>& repPins = backbone.pins();

    // memberOfRep[r] = member pin corresponding to representative pin r.
    std::vector<int> memberOfRep(repPins.size(), -1);
    for (size_t i = 0; i < pinMap.size(); ++i) {
        memberOfRep[static_cast<size_t>(pinMap[i])] = static_cast<int>(i);
    }

    // Axis-wise coordinate pools: representative pin coordinate -> the
    // corresponding member pin coordinate.
    std::vector<int> repXs, repYs, memXs, memYs;
    for (size_t r = 0; r < repPins.size(); ++r) {
        const int m = memberOfRep[r];
        if (m < 0) continue;  // cannot happen for proper objects
        repXs.push_back(repPins[r].x);
        repYs.push_back(repPins[r].y);
        memXs.push_back(member.pins[static_cast<size_t>(m)].x);
        memYs.push_back(member.pins[static_cast<size_t>(m)].y);
    }

    // Remap at the *structure* level: only the feature nodes (pins, bends,
    // junctions) move, and each straight RC is redrawn between its mapped
    // endpoints. Feature-node coordinates lie on the Hanan grid of the
    // representative pins, so the axis maps are exact there; remapping
    // interior wire coordinates instead would create overhangs whenever
    // bits of one object are stretched differently.
    const std::vector<int> xMap = mapAxis(frame.xs, repXs, memXs);
    const std::vector<int> yMap = mapAxis(frame.ys, repYs, memYs);
    const auto node = [&](int n) -> geom::Point {
        return {xMap[static_cast<size_t>(frame.nodeX[static_cast<size_t>(n)])],
                yMap[static_cast<size_t>(frame.nodeY[static_cast<size_t>(n)])]};
    };

    steiner::Topology out(member.pins, member.driver);
    for (const auto& [u, v] : frame.st.rcs) out.addSegment({node(u), node(v)});
    // If a mapped pin landed away from the member's actual pin (possible
    // when two representative pins share a coordinate but their member
    // counterparts do not), stitch it in with a short L-shape.
    for (size_t i = 0; i < member.pins.size(); ++i) {
        const auto r = static_cast<size_t>(pinMap[i]);
        const geom::Point mapped{
            xMap[static_cast<size_t>(frame.pinX[r])],
            yMap[static_cast<size_t>(frame.pinY[r])]};
        const geom::Point actual = member.pins[i];
        if (mapped != actual) {
            out.addLShape(actual, mapped, {mapped.x, actual.y});
        }
    }
    return out;
}

}  // namespace

MemberShifts memberShifts(const SignalGroup& group,
                          const RoutingObject& object) {
    const Bit& rep = memberBit(group, object, object.representativeBit);
    MemberShifts shifts;
    shifts.reserve(object.bitIndices.size());
    for (int k = 0; k < object.width(); ++k) {
        const Bit& member = memberBit(group, object, k);
        const std::vector<int>& pinMap =
            object.pinMaps[static_cast<size_t>(k)];
        std::optional<geom::Point> d;
        for (size_t i = 0; i < member.pins.size(); ++i) {
            const geom::Point p = member.pins[i];
            const geom::Point r = rep.pins[static_cast<size_t>(pinMap[i])];
            const geom::Point di{p.x - r.x, p.y - r.y};
            if (i == 0) {
                d = di;
            } else if (di != *d) {
                d.reset();
                break;
            }
        }
        shifts.push_back(d);
    }
    return shifts;
}

std::vector<steiner::Topology> remappedTopologies(
    const steiner::Topology& backbone, const SignalGroup& group,
    const RoutingObject& object, const MemberShifts& shifts) {
    STREAK_ASSERT(shifts.size() == object.bitIndices.size(),
                  "{} member shifts for an object of width {}", shifts.size(),
                  object.width());
    const Bit& rep = memberBit(group, object, object.representativeBit);
    STREAK_ASSERT(backbone.pins() == rep.pins,
                  "backbone is not over the representative's {} pins",
                  rep.pins.size());
    std::optional<BackboneFrame> frame;
    std::vector<steiner::Topology> out;
    for (int k = 0; k < object.width(); ++k) {
        if (shifts[static_cast<size_t>(k)]) continue;
        if (!frame) frame = frameOf(backbone);
        out.push_back(remapOnto(*frame, backbone, group, object, k));
    }
    return out;
}

}  // namespace streak
