#include "check/audit.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/candidate.hpp"

namespace streak::check {

namespace {

constexpr double kObjectiveEps = 1e-6;

/// "edge 17 (layer 2, (3,4))" — the contextual id reports point at.
std::string edgeContext(const grid::RoutingGrid& grid, int edge) {
    const grid::RoutingGrid::EdgeCoord c = grid.edgeCoord(edge);
    return format("edge {} (layer {}, ({},{}))", edge, c.layer, c.x, c.y);
}

bool validLayerPair(const grid::RoutingGrid& grid, int hLayer, int vLayer) {
    return hLayer >= 0 && hLayer < grid.numLayers() && vLayer >= 0 &&
           vLayer < grid.numLayers() &&
           grid.layerDir(hLayer) == grid::Dir::Horizontal &&
           grid.layerDir(vLayer) == grid::Dir::Vertical;
}

void auditDemandList(const grid::RoutingGrid& grid,
                     const std::vector<std::pair<int, int>>& demand, int limit,
                     const char* what, int obj, int cand, AuditResult* r) {
    int prev = -1;
    for (const auto& [id, amount] : demand) {
        if (id <= prev) {
            r->addf("object {} candidate {}: {} demand not sorted/unique at {}",
                    obj, cand, what, id);
        }
        prev = id;
        if (id < 0 || id >= limit) {
            r->addf("object {} candidate {}: {} id {} out of range [0,{})", obj,
                    cand, what, id, limit);
        }
        if (amount <= 0) {
            r->addf("object {} candidate {}: {} {} has non-positive demand {}",
                    obj, cand, what, id, amount);
        }
        if (r->full()) return;
    }
    (void)grid;
}

}  // namespace

AuditResult auditProblem(const RoutingProblem& prob) {
    AuditResult r;
    r.subject = "problem";
    if (prob.design == nullptr) {
        r.addf("design pointer is null");
        return r;
    }
    const grid::RoutingGrid& grid = prob.design->grid;
    const int numObjects = prob.numObjects();
    const int numGroups = prob.design->numGroups();
    if (static_cast<int>(prob.candidates.size()) != numObjects) {
        r.addf("candidate sets ({}) != objects ({})", prob.candidates.size(),
               numObjects);
        return r;
    }
    if (static_cast<int>(prob.shapes.size()) != numObjects) {
        r.addf("shape sets ({}) != objects ({})", prob.shapes.size(),
               numObjects);
        return r;
    }

    for (int i = 0; i < numObjects && !r.full(); ++i) {
        const RoutingObject& obj = prob.objects[static_cast<size_t>(i)];
        if (obj.groupIndex < 0 || obj.groupIndex >= numGroups) {
            r.addf("object {}: group index {} out of range [0,{})", i,
                   obj.groupIndex, numGroups);
            continue;
        }
        const SignalGroup& group =
            prob.design->groups[static_cast<size_t>(obj.groupIndex)];
        for (const int bit : obj.bitIndices) {
            if (bit < 0 || bit >= group.width()) {
                r.addf("object {}: bit index {} outside group '{}' ({} bits)",
                       i, bit, group.name, group.width());
            }
        }
        const auto& shapes = prob.shapes[static_cast<size_t>(i)];
        for (size_t b = 0; b < shapes.size(); ++b) {
            const BackboneShape& shape = shapes[b];
            const auto remapped = std::count(shape.shifts.begin(),
                                             shape.shifts.end(), std::nullopt);
            if (static_cast<int>(shape.shifts.size()) != obj.width() ||
                static_cast<long>(shape.remaps.size()) != remapped) {
                r.addf("object {} backbone {}: {} member shifts and {} "
                       "remaps for a {}-bit object with {} remapped members",
                       i, b, shape.shifts.size(), shape.remaps.size(),
                       obj.width(), remapped);
            }
        }
        const auto& cands = prob.candidates[static_cast<size_t>(i)];
        for (size_t j = 0; j < cands.size() && !r.full(); ++j) {
            const RouteCandidate& c = cands[j];
            if (!std::isfinite(c.cost) || c.cost < 0.0) {
                r.addf("object {} candidate {}: cost {} not finite and >= 0",
                       i, j, c.cost);
            }
            if (c.backboneId < 0 ||
                c.backboneId >= static_cast<int>(shapes.size())) {
                r.addf("object {} candidate {}: backbone {} out of range "
                       "[0,{})",
                       i, j, c.backboneId, shapes.size());
            }
            if (!validLayerPair(grid, c.hLayer, c.vLayer)) {
                r.addf("object {} candidate {}: layer pair (h={}, v={}) "
                       "invalid for this stack",
                       i, j, c.hLayer, c.vLayer);
            }
            auditDemandList(grid, c.edgeUse, grid.numEdges(), "edge", i,
                            static_cast<int>(j), &r);
            auditDemandList(grid, c.viaUse, grid.numCells(), "via cell", i,
                            static_cast<int>(j), &r);
        }
    }

    if (static_cast<int>(prob.groupObjects.size()) != numGroups) {
        r.addf("groupObjects has {} entries for {} groups",
               prob.groupObjects.size(), numGroups);
    } else {
        for (int g = 0; g < numGroups && !r.full(); ++g) {
            for (const int id : prob.groupObjects[static_cast<size_t>(g)]) {
                if (id < 0 || id >= numObjects) {
                    r.addf("group {}: object id {} out of range", g, id);
                } else if (prob.objects[static_cast<size_t>(id)].groupIndex !=
                           g) {
                    r.addf("group {}: object {} claims group {}", g, id,
                           prob.objects[static_cast<size_t>(id)].groupIndex);
                }
            }
        }
    }

    for (size_t b = 0; b < prob.pairBlocks.size() && !r.full(); ++b) {
        const PairBlock& pb = prob.pairBlocks[b];
        if (pb.objA < 0 || pb.objB >= numObjects || pb.objA >= pb.objB) {
            r.addf("pair block {}: endpoints ({}, {}) invalid", b, pb.objA,
                   pb.objB);
            continue;
        }
        const size_t candsA = prob.candidates[static_cast<size_t>(pb.objA)].size();
        const size_t candsB = prob.candidates[static_cast<size_t>(pb.objB)].size();
        if (pb.cost.size() != candsA) {
            r.addf("pair block {}: {} cost rows for {} candidates of object {}",
                   b, pb.cost.size(), candsA, pb.objA);
            continue;
        }
        for (const auto& row : pb.cost) {
            if (row.size() != candsB) {
                r.addf("pair block {}: cost row width {} != {} candidates of "
                       "object {}",
                       b, row.size(), candsB, pb.objB);
                break;
            }
            for (const double c : row) {
                if (!std::isfinite(c) || c < 0.0) {
                    r.addf("pair block {}: cost {} not finite and >= 0", b, c);
                    break;
                }
            }
        }
    }

    if (static_cast<int>(prob.pairsOf.size()) != numObjects) {
        r.addf("pairsOf has {} entries for {} objects", prob.pairsOf.size(),
               numObjects);
    } else {
        const int numBlocks = static_cast<int>(prob.pairBlocks.size());
        for (int i = 0; i < numObjects && !r.full(); ++i) {
            for (const int block : prob.pairsOf[static_cast<size_t>(i)]) {
                if (block < 0 || block >= numBlocks) {
                    r.addf("object {}: pair block index {} out of range", i,
                           block);
                } else {
                    const PairBlock& pb =
                        prob.pairBlocks[static_cast<size_t>(block)];
                    if (pb.objA != i && pb.objB != i) {
                        r.addf("object {}: listed pair block {} joins ({}, {})",
                               i, block, pb.objA, pb.objB);
                    }
                }
            }
        }
    }
    return r;
}

AuditResult auditSolution(const RoutingProblem& prob,
                          const RoutingSolution& sol) {
    AuditResult r;
    r.subject = "solution";
    if (prob.design == nullptr) {
        r.addf("design pointer is null");
        return r;
    }
    const grid::RoutingGrid& grid = prob.design->grid;
    const int numObjects = prob.numObjects();
    if (static_cast<int>(sol.chosen.size()) != numObjects) {
        r.addf("chosen has {} entries for {} objects", sol.chosen.size(),
               numObjects);
        return r;
    }

    bool indicesOk = true;
    std::vector<long> usage(static_cast<size_t>(grid.numEdges()), 0);
    std::vector<long> vias(static_cast<size_t>(grid.numCells()), 0);
    for (int i = 0; i < numObjects; ++i) {
        const int j = sol.chosen[static_cast<size_t>(i)];
        const auto& cands = prob.candidates[static_cast<size_t>(i)];
        if (j < -1 || j >= static_cast<int>(cands.size())) {
            r.addf("object {}: chosen candidate {} out of range (have {})", i,
                   j, cands.size());
            indicesOk = false;
            continue;
        }
        if (j < 0) continue;
        const RouteCandidate& cand = cands[static_cast<size_t>(j)];
        for (const auto& [edge, amount] : cand.edgeUse) {
            usage[static_cast<size_t>(edge)] += amount;
        }
        for (const auto& [cell, amount] : cand.viaUse) {
            vias[static_cast<size_t>(cell)] += amount;
        }
    }

    for (int e = 0; e < grid.numEdges() && !r.full(); ++e) {
        if (usage[static_cast<size_t>(e)] > grid.capacity(e)) {
            r.addf("{}: demand {} exceeds capacity {}", edgeContext(grid, e),
                   usage[static_cast<size_t>(e)], grid.capacity(e));
        }
    }
    if (grid.viaLimited()) {
        for (int cell = 0; cell < grid.numCells() && !r.full(); ++cell) {
            const int cap = grid.viaCapacity(cell);
            if (cap >= 0 && vias[static_cast<size_t>(cell)] > cap) {
                r.addf("via cell {} ({},{}): demand {} exceeds capacity {}",
                       cell, cell % grid.width(), cell / grid.width(),
                       vias[static_cast<size_t>(cell)], cap);
            }
        }
    }

    if (indicesOk) {
        const double expected = solutionObjective(prob, sol.chosen);
        if (!approxEqual(sol.objective, expected, kObjectiveEps)) {
            r.addf("cached objective {} != recomputed objective {}",
                   sol.objective, expected);
        }
    }
    return r;
}

AuditResult auditRoutedDesign(const RoutingProblem& prob,
                              const RoutedDesign& routed) {
    AuditResult r;
    r.subject = "routed design";
    if (prob.design == nullptr) {
        r.addf("design pointer is null");
        return r;
    }
    const grid::RoutingGrid& grid = prob.design->grid;
    if (&routed.usage.grid() != &grid) {
        r.addf("usage is bound to a different grid than the problem's design");
        return r;
    }
    const int numObjects = prob.numObjects();

    // How often each (object, member) slot is accounted for; must end at
    // exactly 1 across routed bits + the unrouted list.
    std::vector<std::vector<int>> covered;
    covered.reserve(static_cast<size_t>(numObjects));
    for (const RoutingObject& obj : prob.objects) {
        covered.emplace_back(static_cast<size_t>(obj.width()), 0);
    }

    std::vector<long> expectedUse(static_cast<size_t>(grid.numEdges()), 0);
    std::vector<long> expectedVias(static_cast<size_t>(grid.numCells()), 0);

    for (size_t b = 0; b < routed.bits.size() && !r.full(); ++b) {
        const RoutedBit& bit = routed.bits[b];
        if (bit.objectIndex < 0 || bit.objectIndex >= numObjects) {
            r.addf("bit {}: object index {} out of range", b, bit.objectIndex);
            continue;
        }
        const RoutingObject& obj =
            prob.objects[static_cast<size_t>(bit.objectIndex)];
        if (bit.memberIndex < 0 || bit.memberIndex >= obj.width()) {
            r.addf("bit {}: member index {} outside object {} (width {})", b,
                   bit.memberIndex, bit.objectIndex, obj.width());
            continue;
        }
        ++covered[static_cast<size_t>(bit.objectIndex)]
                 [static_cast<size_t>(bit.memberIndex)];
        if (bit.groupIndex != obj.groupIndex ||
            bit.bitIndex !=
                obj.bitIndices[static_cast<size_t>(bit.memberIndex)]) {
            r.addf("bit {}: (group {}, bit {}) disagrees with object {} "
                   "member {} (group {}, bit {})",
                   b, bit.groupIndex, bit.bitIndex, bit.objectIndex,
                   bit.memberIndex, obj.groupIndex,
                   obj.bitIndices[static_cast<size_t>(bit.memberIndex)]);
            continue;
        }
        const Bit& designBit =
            prob.design->groups[static_cast<size_t>(bit.groupIndex)]
                .bits[static_cast<size_t>(bit.bitIndex)];
        if (!bit.topo.connected()) {
            r.addf("bit {} (group {} '{}'): topology is disconnected or "
                   "misses a pin",
                   b, bit.groupIndex, designBit.name);
        }
        std::vector<geom::Point> topoPins = bit.topo.pins();
        std::vector<geom::Point> designPins = designBit.pins;
        std::sort(topoPins.begin(), topoPins.end());
        std::sort(designPins.begin(), designPins.end());
        if (topoPins != designPins) {
            r.addf("bit {} (group {} '{}'): topology pins differ from the "
                   "design's pins",
                   b, bit.groupIndex, designBit.name);
        } else if (bit.topo.driverPin() != designBit.driverPin()) {
            r.addf("bit {} (group {} '{}'): topology driver ({},{}) != "
                   "design driver ({},{})",
                   b, bit.groupIndex, designBit.name, bit.topo.driverPin().x,
                   bit.topo.driverPin().y, designBit.driverPin().x,
                   designBit.driverPin().y);
        }
        if (!validLayerPair(grid, bit.hLayer, bit.vLayer)) {
            r.addf("bit {}: layer pair (h={}, v={}) invalid for this stack",
                   b, bit.hLayer, bit.vLayer);
            continue;
        }
        for (const auto& [edge, amount] :
             computeEdgeUse(grid, bit.topo, bit.hLayer, bit.vLayer)) {
            expectedUse[static_cast<size_t>(edge)] += amount;
        }
        if (grid.viaLimited()) {
            for (const auto& [cell, amount] : computeViaUse(grid, bit.topo)) {
                expectedVias[static_cast<size_t>(cell)] += amount;
            }
        }
    }

    for (int e = 0; e < grid.numEdges() && !r.full(); ++e) {
        const long recorded = routed.usage.usage(e);
        if (recorded != expectedUse[static_cast<size_t>(e)]) {
            r.addf("{}: recorded usage {} != demand {} recomputed from bit "
                   "topologies",
                   edgeContext(grid, e), recorded,
                   expectedUse[static_cast<size_t>(e)]);
        }
        if (recorded > grid.capacity(e)) {
            r.addf("{}: usage {} overflows capacity {}", edgeContext(grid, e),
                   recorded, grid.capacity(e));
        }
    }
    if (grid.viaLimited()) {
        for (int cell = 0; cell < grid.numCells() && !r.full(); ++cell) {
            const long recorded = routed.usage.viaUsage(cell);
            if (recorded != expectedVias[static_cast<size_t>(cell)]) {
                r.addf("via cell {} ({},{}): recorded usage {} != recomputed "
                       "{}",
                       cell, cell % grid.width(), cell / grid.width(),
                       recorded, expectedVias[static_cast<size_t>(cell)]);
            }
            const int cap = grid.viaCapacity(cell);
            if (cap >= 0 && recorded > cap) {
                r.addf("via cell {} ({},{}): usage {} overflows capacity {}",
                       cell, cell % grid.width(), cell / grid.width(),
                       recorded, cap);
            }
        }
    }

    for (const auto& [objIdx, member] : routed.unroutedMembers) {
        if (objIdx < 0 || objIdx >= numObjects || member < 0 ||
            member >= prob.objects[static_cast<size_t>(objIdx)].width()) {
            r.addf("unrouted member (object {}, member {}) out of range",
                   objIdx, member);
            continue;
        }
        ++covered[static_cast<size_t>(objIdx)][static_cast<size_t>(member)];
    }
    for (int i = 0; i < numObjects && !r.full(); ++i) {
        const auto& slots = covered[static_cast<size_t>(i)];
        for (size_t k = 0; k < slots.size(); ++k) {
            if (slots[k] != 1) {
                r.addf("object {} member {}: accounted {} times across "
                       "routed bits and the unrouted list (want exactly 1)",
                       i, k, slots[k]);
            }
        }
    }
    return r;
}

}  // namespace streak::check
