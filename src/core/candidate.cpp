#include "core/candidate.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <optional>

#include "core/backbone.hpp"
#include "core/equiv.hpp"
#include "geom/rect.hpp"

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

/// What one unit of a shape's demand at a G-Cell is: a via slot, or a
/// track on the horizontal or vertical edge leaving the cell rightwards or
/// upwards.
enum DemandKind { kVia, kHorizontal, kVertical };

/// A shape's demand at one G-Cell, per DemandKind.
using CellDemand = std::array<int, 3>;

/// A shape whose bounding box has more cells than this per unit of
/// demand (pins plus wire) is sparse: sorting its demand costs less than
/// counting over the box, whose time and memory grow with its area. The
/// generated suites' shapes have at most 9; a two-bit group spanning a
/// 1200 x 1200 grid has about 300.
constexpr long kSparseCellsPerDemand = 16;

/// The shape of one backbone, with its demand in (y, x) order: viaUse by
/// ascending cell index, and edge runs sorted by (y, x). A dense shape is
/// counted per G-Cell of its bounding box, clipped to the grid, and read
/// out row by row; a sparse one's (cell, kind) keys are sorted and
/// counted. A shifted member's wire, via points and box are the
/// backbone's moved; its pins are its own.
BackboneShape makeShape(const grid::RoutingGrid& grid,
                        steiner::Topology backbone, const SignalGroup& group,
                        const RoutingObject& object,
                        const MemberShifts& shifts) {
    BackboneShape shape;
    shape.remaps = remappedTopologies(backbone, group, object, shifts);
    shape.shifts = shifts;
    shape.backbone = std::move(backbone);
    const steiner::Topology& bb = shape.backbone;
    const std::vector<geom::Point> backboneVias = bb.viaPoints();
    const geom::Rect backboneBox = bb.bounds();

    // Each member's stored remap, or null for a shifted member.
    std::vector<const steiner::Topology*> remapOf(shifts.size(), nullptr);
    auto next = shape.remaps.begin();
    for (size_t k = 0; k < shifts.size(); ++k) {
        if (!shifts[k]) remapOf[k] = &*next++;
    }

    // Via points lie on the wire, so pins and wire bound every count.
    const auto bitBox = [&](size_t k) {
        const std::optional<geom::Point>& d = shifts[k];
        if (!d) return remapOf[k]->bounds();
        return geom::Rect{{backboneBox.lo.x + d->x, backboneBox.lo.y + d->y},
                          {backboneBox.hi.x + d->x, backboneBox.hi.y + d->y}};
    };
    const auto wireOf = [&](size_t k) -> const steiner::Topology& {
        return shifts[k] ? bb : *remapOf[k];
    };
    geom::Rect box = bitBox(0);
    for (size_t k = 1; k < shifts.size(); ++k) {
        const geom::Rect b = bitBox(k);
        box.expand(b.lo);
        box.expand(b.hi);
    }
    long pinsAndWire = 0;
    for (size_t k = 0; k < shifts.size(); ++k) {
        pinsAndWire +=
            static_cast<long>(
                memberBit(group, object, static_cast<int>(k)).pins.size()) +
            wireOf(k).wirelength();
    }
    box.lo = {std::max(box.lo.x, 0), std::max(box.lo.y, 0)};
    box.hi = {std::min(box.hi.x, grid.width() - 1),
              std::min(box.hi.y, grid.height() - 1)};
    const int boxWidth = std::max(box.width() + 1, 0);
    const long boxCells =
        static_cast<long>(boxWidth) * std::max(box.height() + 1, 0);

    // Calls add(point, kind) for every unit of demand inside the grid.
    const auto forEachDemand = [&](const auto& add) {
        const auto addVias = [&](const std::vector<geom::Point>& points,
                                 geom::Point d) {
            for (const geom::Point p : points) {
                const geom::Point q{p.x + d.x, p.y + d.y};
                if (grid.contains(q)) add(q, kVia);
            }
        };
        int bends = 0;
        int pins = 0;
        for (size_t k = 0; k < shifts.size(); ++k) {
            const std::vector<geom::Point>& memberPins =
                memberBit(group, object, static_cast<int>(k)).pins;
            const steiner::Topology& t = wireOf(k);
            const geom::Point d = shifts[k].value_or(geom::Point{0, 0});
            shape.wirelength2d += t.wirelength();
            pins += static_cast<int>(memberPins.size());
            addVias(memberPins, {0, 0});
            if (shifts[k]) {
                bends += static_cast<int>(backboneVias.size());
                addVias(backboneVias, d);
            } else {
                const std::vector<geom::Point> vias = t.viaPoints();
                bends += static_cast<int>(vias.size());
                addVias(vias, d);
            }
            for (const steiner::UnitEdge& e : t.wire()) {
                const geom::Point at{e.at.x + d.x, e.at.y + d.y};
                const geom::Point other{e.other().x + d.x,
                                        e.other().y + d.y};
                if (grid.contains(at) && grid.contains(other)) {
                    add(at, e.horizontal ? kHorizontal : kVertical);
                }
            }
        }
        shape.viaCount = bends + pins;
    };
    const auto emit = [&](geom::Point p, int kind, int count) {
        if (count == 0) return;
        if (kind == kVia) {
            shape.viaUse.emplace_back(grid.cellIndex(p), count);
        } else {
            (kind == kHorizontal ? shape.hRuns : shape.vRuns)
                .push_back({p.x, p.y, count});
        }
    };

    if (boxCells <= kSparseCellsPerDemand * pinsAndWire) {
        std::vector<CellDemand> demand(static_cast<size_t>(boxCells));
        forEachDemand([&](geom::Point p, DemandKind kind) {
            ++demand[static_cast<size_t>((p.y - box.lo.y) * boxWidth +
                                         (p.x - box.lo.x))][kind];
        });
        const CellDemand* c = demand.data();
        for (int y = box.lo.y; y <= box.hi.y; ++y) {
            for (int x = box.lo.x; x <= box.hi.x; ++x, ++c) {
                emit({x, y}, kVia, (*c)[kVia]);
                emit({x, y}, kHorizontal, (*c)[kHorizontal]);
                emit({x, y}, kVertical, (*c)[kVertical]);
            }
        }
        return shape;
    }
    // Keyed by cell, then kind (kMaxDim² · 3 fits in an int), so each
    // list comes out in cell order.
    std::vector<int> keys;
    forEachDemand([&](geom::Point p, DemandKind kind) {
        keys.push_back(grid.cellIndex(p) * 3 + kind);
    });
    for (const auto& [key, count] : countKeys(&keys)) {
        const int cell = key / 3;
        emit({cell % grid.width(), cell / grid.width()}, key % 3, count);
    }
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

steiner::Topology BackboneShape::memberTopology(const SignalGroup& group,
                                                const RoutingObject& object,
                                                int k) const {
    const auto m = static_cast<size_t>(k);
    if (const std::optional<geom::Point>& d = shifts[m]) {
        const Bit& member = memberBit(group, object, k);
        return backbone.translate(*d, member.pins, member.driver);
    }
    const auto remap = std::count(shifts.begin(), shifts.begin() + k,
                                  std::nullopt);
    return remaps[static_cast<size_t>(remap)];
}

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

    const MemberShifts shifts = memberShifts(group, object);
    ObjectCandidates out;
    for (steiner::Topology& backbone :
         generateBackbones(group, object, opts.backbone)) {
        out.shapes.push_back(
            makeShape(grid, std::move(backbone), group, object, shifts));
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
