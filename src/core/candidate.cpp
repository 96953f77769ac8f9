#include "core/candidate.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/backbone.hpp"
#include "core/equiv.hpp"

namespace streak {

namespace {

/// Sort `keys` and count equal neighbours: sorted (key, count) pairs.
std::vector<std::pair<int, int>> countKeys(std::vector<int>* keys) {
    std::sort(keys->begin(), keys->end());
    std::vector<std::pair<int, int>> out;
    for (size_t i = 0; i < keys->size();) {
        size_t end = i + 1;
        while (end < keys->size() && (*keys)[end] == (*keys)[i]) ++end;
        out.emplace_back((*keys)[i], static_cast<int>(end - i));
        i = end;
    }
    return out;
}

void appendCellKeys(const grid::RoutingGrid& grid,
                    const std::vector<geom::Point>& points,
                    std::vector<int>* keys) {
    for (const geom::Point p : points) {
        if (grid.contains(p)) keys->push_back(grid.cellIndex(p));
    }
}

/// The shape of one backbone. Edge runs are keyed y * width + x, which
/// sorts by (y, x) because x < width.
BackboneShape makeShape(const grid::RoutingGrid& grid,
                        steiner::Topology backbone, const SignalGroup& group,
                        const RoutingObject& object) {
    BackboneShape shape;
    shape.bitTopologies = equivalentTopologies(backbone, group, object);
    shape.backbone = std::move(backbone);
    const int width = grid.width();
    std::vector<int> viaKeys;
    std::vector<int> hKeys;
    std::vector<int> vKeys;
    int bends = 0;
    int pins = 0;
    for (const steiner::Topology& t : shape.bitTopologies) {
        shape.wirelength2d += t.wirelength();
        const std::vector<geom::Point> vias = t.viaPoints();
        bends += static_cast<int>(vias.size());
        pins += static_cast<int>(t.pins().size());
        appendCellKeys(grid, t.pins(), &viaKeys);
        appendCellKeys(grid, vias, &viaKeys);
        for (const steiner::UnitEdge& e : t.wire()) {
            if (grid.contains(e.at) && grid.contains(e.other())) {
                (e.horizontal ? hKeys : vKeys).push_back(e.at.y * width +
                                                         e.at.x);
            }
        }
    }
    shape.viaCount = bends + pins;
    shape.viaUse = countKeys(&viaKeys);
    const auto runs = [width](std::vector<int>* keys) {
        std::vector<EdgeRun> out;
        for (const auto& [key, count] : countKeys(keys)) {
            out.push_back({key % width, key / width, count});
        }
        return out;
    };
    shape.hRuns = runs(&hKeys);
    shape.vRuns = runs(&vKeys);
    return shape;
}

/// The shape's edge demand on one layer pair. Edge ids grow with the
/// layer and, within a layer, with (y, x), so the runs of the lower layer
/// followed by those of the upper one are already sorted.
std::vector<std::pair<int, int>> layerEdgeUse(const grid::RoutingGrid& grid,
                                              const BackboneShape& shape,
                                              int hLayer, int vLayer) {
    std::vector<std::pair<int, int>> use;
    use.reserve(shape.hRuns.size() + shape.vRuns.size());
    const auto append = [&](const std::vector<EdgeRun>& runs, int layer) {
        for (const EdgeRun& r : runs) {
            use.emplace_back(grid.edgeId(layer, r.x, r.y), r.count);
        }
    };
    if (hLayer < vLayer) {
        append(shape.hRuns, hLayer);
        append(shape.vRuns, vLayer);
    } else {
        append(shape.vRuns, vLayer);
        append(shape.hRuns, hLayer);
    }
    return use;
}

/// Layer pairs ordered by adjacency (|h - v|), then bottom-up: the paper
/// prefers neighbouring uni-directional layers to save vias.
std::vector<std::pair<int, int>> layerPairs(const grid::RoutingGrid& grid,
                                            int maxLayerPairs) {
    std::vector<std::pair<int, int>> pairs;
    for (const int h : grid.layersOf(grid::Dir::Horizontal)) {
        for (const int v : grid.layersOf(grid::Dir::Vertical)) {
            pairs.emplace_back(h, v);
        }
    }
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const auto& a, const auto& b) {
                         const int ga = std::abs(a.first - a.second);
                         const int gb = std::abs(b.first - b.second);
                         if (ga != gb) return ga < gb;
                         return a < b;
                     });
    if (static_cast<int>(pairs.size()) > maxLayerPairs) {
        pairs.resize(static_cast<size_t>(maxLayerPairs));
    }
    return pairs;
}

}  // namespace

std::vector<std::pair<int, int>> computeEdgeUse(const grid::RoutingGrid& grid,
                                                const steiner::Topology& topo,
                                                int hLayer, int vLayer) {
    std::vector<int> keys;
    for (const steiner::UnitEdge& e : topo.wire()) {
        const int layer = e.horizontal ? hLayer : vLayer;
        if (grid.validEdge(layer, e.at.x, e.at.y)) {
            keys.push_back(grid.edgeId(layer, e.at.x, e.at.y));
        }
    }
    return countKeys(&keys);
}

std::vector<std::pair<int, int>> computeViaUse(const grid::RoutingGrid& grid,
                                               const steiner::Topology& topo) {
    std::vector<int> keys;
    appendCellKeys(grid, topo.pins(), &keys);
    appendCellKeys(grid, topo.viaPoints(), &keys);
    return countKeys(&keys);
}

ObjectCandidates generateCandidates(const Design& design,
                                    const RoutingObject& object,
                                    const StreakOptions& opts) {
    const grid::RoutingGrid& grid = design.grid;
    const SignalGroup& group =
        design.groups[static_cast<size_t>(object.groupIndex)];
    const std::vector<std::pair<int, int>> pairs =
        layerPairs(grid, opts.maxLayerPairs);

    ObjectCandidates out;
    for (steiner::Topology& backbone :
         generateBackbones(group, object, opts.backbone)) {
        out.shapes.push_back(
            makeShape(grid, std::move(backbone), group, object));
    }

    for (size_t bb = 0; bb < out.shapes.size(); ++bb) {
        const BackboneShape& shape = out.shapes[bb];
        // Feasibility in an empty grid: a candidate that alone exceeds
        // some edge or via capacity can never be selected. Via demand is
        // the same on every layer pair.
        const bool viasFit = !grid.viaLimited() ||
            std::none_of(shape.viaUse.begin(), shape.viaUse.end(),
                         [&](const std::pair<int, int>& use) {
                             const int cap = grid.viaCapacity(use.first);
                             return cap >= 0 && use.second > cap;
                         });
        if (!viasFit) continue;

        for (const auto& [h, v] : pairs) {
            RouteCandidate cand;
            cand.edgeUse = layerEdgeUse(grid, shape, h, v);
            const bool edgesFit = std::none_of(
                cand.edgeUse.begin(), cand.edgeUse.end(),
                [&](const std::pair<int, int>& use) {
                    return use.second > grid.capacity(use.first);
                });
            if (!edgesFit) continue;

            cand.backboneId = static_cast<int>(bb);
            cand.hLayer = h;
            cand.vLayer = v;
            cand.wirelength2d = shape.wirelength2d;
            cand.viaCount = shape.viaCount;
            cand.viaUse = shape.viaUse;
            const int gap = std::abs(h - v) - 1;
            cand.cost = static_cast<double>(shape.wirelength2d) +
                        opts.viaWeight * cand.viaCount +
                        opts.layerAdjacencyWeight * gap *
                            static_cast<double>(object.width());
            out.candidates.push_back(std::move(cand));
        }
    }
    std::stable_sort(out.candidates.begin(), out.candidates.end(),
                     [](const RouteCandidate& a, const RouteCandidate& b) {
                         return a.cost < b.cost;
                     });
    return out;
}

}  // namespace streak
