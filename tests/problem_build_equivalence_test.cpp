// Differential test of buildProblem's shared backbone shapes against the
// per-layer-pair expansion they replace. The reference below copies the
// backbone and every bit topology into each layer-pair candidate, builds
// the demand lists through std::map, rebuilds the via demand per layer
// pair, computes every pair-block ratio from two topologies, and derives
// clustering's per-bit candidates with generateBackbones plus one
// equivalent topology per bit (with the structure recomputed per bit).
// The production problem must match it bit for bit: every candidate
// field, every shape, and every pair-block cell. The reference remaps
// every member; production moves the backbone's wire for members that
// are a pure shift of the representative, and both paths are counted.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/backbone.hpp"
#include "core/candidate.hpp"
#include "core/equiv.hpp"
#include "core/problem.hpp"
#include "core/regularity.hpp"
#include "gen/generator.hpp"
#include "test_util.hpp"

namespace streak {
namespace {

// ------------------------------------------------------- the reference

namespace reference {

struct Candidate {
    int backboneId = 0;
    steiner::Topology backbone;
    std::vector<steiner::Topology> bitTopologies;
    int hLayer = 0;
    int vLayer = 1;
    double cost = 0.0;
    long wirelength2d = 0;
    int viaCount = 0;
    std::vector<std::pair<int, int>> edgeUse;
    std::vector<std::pair<int, int>> viaUse;
};

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

std::vector<std::pair<int, int>> computeEdgeUse(
    const grid::RoutingGrid& grid, const std::vector<steiner::Topology>& bits,
    int hLayer, int vLayer) {
    std::map<int, int> use;
    for (const steiner::Topology& t : bits) {
        for (const steiner::UnitEdge& e : t.wire()) {
            const int layer = e.horizontal ? hLayer : vLayer;
            if (grid.validEdge(layer, e.at.x, e.at.y)) {
                ++use[grid.edgeId(layer, e.at.x, e.at.y)];
            }
        }
    }
    return {use.begin(), use.end()};
}

std::vector<std::pair<int, int>> computeViaUse(
    const grid::RoutingGrid& grid,
    const std::vector<steiner::Topology>& bits) {
    std::map<int, int> use;
    for (const steiner::Topology& t : bits) {
        for (const geom::Point p : t.pins()) {
            if (grid.contains(p)) ++use[grid.cellIndex(p)];
        }
        for (const geom::Point p : t.viaPoints()) {
            if (grid.contains(p)) ++use[grid.cellIndex(p)];
        }
    }
    return {use.begin(), use.end()};
}

std::vector<Candidate> generateCandidates(const Design& design,
                                          const RoutingObject& object,
                                          const StreakOptions& opts) {
    const SignalGroup& group =
        design.groups[static_cast<size_t>(object.groupIndex)];
    const std::vector<steiner::Topology> backbones =
        generateBackbones(group, object, opts.backbone);
    const std::vector<int> hLayers =
        design.grid.layersOf(grid::Dir::Horizontal);
    const std::vector<int> vLayers = design.grid.layersOf(grid::Dir::Vertical);
    std::vector<std::pair<int, int>> pairs;
    for (const int h : hLayers) {
        for (const int v : vLayers) pairs.emplace_back(h, v);
    }
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const auto& a, const auto& b) {
                         const int ga = std::abs(a.first - a.second);
                         const int gb = std::abs(b.first - b.second);
                         if (ga != gb) return ga < gb;
                         return a < b;
                     });
    if (static_cast<int>(pairs.size()) > opts.maxLayerPairs) {
        pairs.resize(static_cast<size_t>(opts.maxLayerPairs));
    }

    std::vector<Candidate> out;
    for (size_t bb = 0; bb < backbones.size(); ++bb) {
        std::vector<steiner::Topology> bitTopos;
        for (int k = 0; k < object.width(); ++k) {
            bitTopos.push_back(reference::equivalentTopology(
                backbones[bb], group, object, k));
        }
        long wl = 0;
        int vias2d = 0;
        int pinAccess = 0;
        for (const steiner::Topology& t : bitTopos) {
            wl += t.wirelength();
            vias2d += t.bendCount();
            pinAccess += static_cast<int>(t.pins().size());
        }
        for (const auto& [h, v] : pairs) {
            Candidate cand;
            cand.backboneId = static_cast<int>(bb);
            cand.backbone = backbones[bb];
            cand.bitTopologies = bitTopos;
            cand.hLayer = h;
            cand.vLayer = v;
            cand.wirelength2d = wl;
            cand.viaCount = vias2d + pinAccess;
            cand.edgeUse = computeEdgeUse(design.grid, bitTopos, h, v);
            cand.viaUse = computeViaUse(design.grid, bitTopos);
            bool fits = true;
            for (const auto& [edge, amount] : cand.edgeUse) {
                if (amount > design.grid.capacity(edge)) {
                    fits = false;
                    break;
                }
            }
            if (fits && design.grid.viaLimited()) {
                for (const auto& [cell, amount] : cand.viaUse) {
                    const int cap = design.grid.viaCapacity(cell);
                    if (cap >= 0 && amount > cap) {
                        fits = false;
                        break;
                    }
                }
            }
            if (!fits) continue;
            const int gap = std::abs(h - v) - 1;
            cand.cost = static_cast<double>(wl) +
                        opts.viaWeight * cand.viaCount +
                        opts.layerAdjacencyWeight * gap *
                            static_cast<double>(object.width());
            out.push_back(std::move(cand));
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Candidate& a, const Candidate& b) {
                         return a.cost < b.cost;
                     });
    return out;
}

/// Pair blocks of one group from the reference candidates, in (a, b)
/// member order; the ratio comes straight from the two backbones.
std::vector<PairBlock> groupPairBlocks(
    const std::vector<std::vector<Candidate>>& candidates,
    const std::vector<int>& members, const StreakOptions& opts) {
    std::vector<PairBlock> blocks;
    for (size_t a = 0; a < members.size(); ++a) {
        for (size_t b = a + 1; b < members.size(); ++b) {
            const int i = members[a];
            const int p = members[b];
            const auto& candsI = candidates[static_cast<size_t>(i)];
            const auto& candsP = candidates[static_cast<size_t>(p)];
            if (candsI.empty() || candsP.empty()) continue;
            std::map<std::pair<int, int>, double> ratioCache;
            PairBlock block;
            block.objA = i;
            block.objB = p;
            block.cost.assign(candsI.size(),
                              std::vector<double>(candsP.size(), 0.0));
            for (size_t j = 0; j < candsI.size(); ++j) {
                for (size_t q = 0; q < candsP.size(); ++q) {
                    const auto key = std::make_pair(candsI[j].backboneId,
                                                    candsP[q].backboneId);
                    auto it = ratioCache.find(key);
                    if (it == ratioCache.end()) {
                        it = ratioCache
                                 .emplace(key, regularityRatio(
                                                   candsI[j].backbone,
                                                   candsP[q].backbone))
                                 .first;
                    }
                    const double ratio = it->second;
                    double c = 0.0;
                    if (ratio <= 0.0) {
                        c = kNoSharePenalty;
                    } else {
                        c = opts.irregularityWeight * (1.0 / ratio - 1.0);
                    }
                    c += opts.pairLayerWeight *
                         (std::abs(candsI[j].hLayer - candsP[q].hLayer) +
                          std::abs(candsI[j].vLayer - candsP[q].vLayer));
                    block.cost[j][q] = c;
                }
            }
            blocks.push_back(std::move(block));
        }
    }
    return blocks;
}

}  // namespace reference

// ------------------------------------------------------ the comparison

bool sameBits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Totals over a sweep, so a sweep that never exercises what it is meant
/// to (pair blocks, backbones that fit nowhere) fails instead of passing
/// vacuously.
struct Coverage {
    int designs = 0;
    long long candidates = 0;
    long long pairCells = 0;
    long long backbonesWithoutCandidate = 0;
    /// Object members whose equivalent topologies take the shift path,
    /// and those that take the remap.
    long long shiftedMembers = 0;
    long long remappedMembers = 0;
    int mismatches = 0;
};

/// Every way one object's shapes and candidates differ from the
/// reference's, one line each, each prefixed with `at`.
void objectDifferences(const Design& design, const RoutingObject& obj,
                       const std::vector<BackboneShape>& shapes,
                       const std::vector<RouteCandidate>& gotCands,
                       const std::vector<reference::Candidate>& wantCands,
                       const StreakOptions& opts, const std::string& at,
                       Coverage* cov, std::vector<std::string>* out) {
    const auto note = [&](const std::string& what) {
        out->push_back(at + what);
    };
    const SignalGroup& group =
        design.groups[static_cast<size_t>(obj.groupIndex)];
    for (const std::optional<geom::Point>& d : memberShifts(group, obj)) {
        ++(d ? cov->shiftedMembers : cov->remappedMembers);
    }

    // Clustering's Alg. 3 line 1: every backbone, every member.
    const std::vector<steiner::Topology> backbones =
        generateBackbones(group, obj, opts.backbone);
    if (backbones.size() != shapes.size()) {
        note("has " + std::to_string(shapes.size()) + " shapes for " +
             std::to_string(backbones.size()) + " backbones");
        return;
    }
    std::vector<char> used(shapes.size(), 0);
    for (const reference::Candidate& c : wantCands) {
        used[static_cast<size_t>(c.backboneId)] = 1;
    }
    for (size_t b = 0; b < shapes.size(); ++b) {
        const std::string bat = "backbone " + std::to_string(b) + " ";
        cov->backbonesWithoutCandidate += used[b] == 0 ? 1 : 0;
        if (!(shapes[b].backbone == backbones[b])) note(bat + "backbone");
        if (static_cast<int>(shapes[b].bitTopologies.size()) != obj.width()) {
            note(bat + "bit topology count");
            continue;
        }
        for (int k = 0; k < obj.width(); ++k) {
            if (!(shapes[b].bitTopologies[static_cast<size_t>(k)] ==
                  reference::equivalentTopology(backbones[b], group, obj,
                                                k))) {
                note(bat + "member " + std::to_string(k) + " topology");
            }
        }
    }

    if (wantCands.size() != gotCands.size()) {
        note("candidate count " + std::to_string(gotCands.size()) +
             ", want " + std::to_string(wantCands.size()));
        return;
    }
    cov->candidates += static_cast<long long>(gotCands.size());
    for (size_t j = 0; j < gotCands.size(); ++j) {
        const reference::Candidate& w = wantCands[j];
        const RouteCandidate& g = gotCands[j];
        const std::string cat = "candidate " + std::to_string(j) + " ";
        if (w.backboneId != g.backboneId) {
            note(cat + "backboneId");
            continue;
        }
        const BackboneShape& shape = shapes[static_cast<size_t>(g.backboneId)];
        if (!(shape.backbone == w.backbone)) note(cat + "backbone");
        if (shape.bitTopologies != w.bitTopologies) {
            note(cat + "bit topologies");
        }
        if (w.hLayer != g.hLayer || w.vLayer != g.vLayer) {
            note(cat + "layer pair");
        }
        if (!sameBits(w.cost, g.cost)) note(cat + "cost");
        if (w.wirelength2d != g.wirelength2d) note(cat + "wirelength2d");
        if (w.viaCount != g.viaCount) note(cat + "viaCount");
        if (w.edgeUse != g.edgeUse) note(cat + "edgeUse");
        if (w.viaUse != g.viaUse) note(cat + "viaUse");
    }
}

/// Every way the production problem differs from the reference, one line
/// each.
std::vector<std::string> differences(const Design& design,
                                     const RoutingProblem& prob,
                                     const StreakOptions& opts,
                                     Coverage* cov) {
    std::vector<std::string> out;
    const auto note = [&](const std::string& what) { out.push_back(what); };
    const int n = prob.numObjects();
    if (static_cast<int>(prob.shapes.size()) != n ||
        static_cast<int>(prob.candidates.size()) != n) {
        note("shape or candidate sets do not match the objects");
        return out;
    }

    std::vector<std::vector<reference::Candidate>> want;
    want.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        const RoutingObject& obj = prob.objects[static_cast<size_t>(i)];
        want.push_back(reference::generateCandidates(design, obj, opts));
        objectDifferences(design, obj, prob.shapes[static_cast<size_t>(i)],
                          prob.candidates[static_cast<size_t>(i)], want.back(),
                          opts, "object " + std::to_string(i) + " ", cov,
                          &out);
    }

    std::vector<PairBlock> wantBlocks;
    std::vector<std::vector<int>> wantPairsOf(static_cast<size_t>(n));
    for (const std::vector<int>& members : prob.groupObjects) {
        for (PairBlock& block :
             reference::groupPairBlocks(want, members, opts)) {
            const int id = static_cast<int>(wantBlocks.size());
            wantPairsOf[static_cast<size_t>(block.objA)].push_back(id);
            wantPairsOf[static_cast<size_t>(block.objB)].push_back(id);
            wantBlocks.push_back(std::move(block));
        }
    }
    if (wantPairsOf != prob.pairsOf) note("pairsOf");
    if (wantBlocks.size() != prob.pairBlocks.size()) {
        note("pair block count " + std::to_string(prob.pairBlocks.size()) +
             ", want " + std::to_string(wantBlocks.size()));
        return out;
    }
    for (size_t k = 0; k < wantBlocks.size(); ++k) {
        const PairBlock& w = wantBlocks[k];
        const PairBlock& g = prob.pairBlocks[k];
        const std::string at = "pair block " + std::to_string(k) + " ";
        if (w.objA != g.objA || w.objB != g.objB) {
            note(at + "endpoints");
            continue;
        }
        if (w.cost.size() != g.cost.size()) {
            note(at + "rows");
            continue;
        }
        for (size_t j = 0; j < w.cost.size(); ++j) {
            if (w.cost[j].size() != g.cost[j].size()) {
                note(at + "row " + std::to_string(j) + " width");
                continue;
            }
            cov->pairCells += static_cast<long long>(w.cost[j].size());
            for (size_t q = 0; q < w.cost[j].size(); ++q) {
                if (!sameBits(w.cost[j][q], g.cost[j][q])) {
                    note(at + "cell (" + std::to_string(j) + ", " +
                         std::to_string(q) + ")");
                }
            }
        }
    }
    return out;
}

void compareOn(const Design& design, const StreakOptions& opts,
               Coverage* cov) {
    const RoutingProblem prob = buildProblem(design, opts);
    const std::vector<std::string> diffs =
        differences(design, prob, opts, cov);
    ++cov->designs;
    if (!diffs.empty()) ++cov->mismatches;
    for (size_t k = 0; k < std::min<size_t>(diffs.size(), 5); ++k) {
        ADD_FAILURE() << design.name << ": " << diffs[k];
    }
}

/// The 72-design set, four rounds of 18: full-size and shrunk synth1-7
/// with their generator seeds advanced by 0-3, and four congested
/// multipin variants at seeds 1-4 (as generated, three via slots per
/// G-Cell, two tracks per edge, two tracks per edge with three via
/// slots). The fourth round expands five layer pairs per backbone
/// instead of three, which adds non-adjacent pairs.
TEST(ProblemBuildEquivalence, MatchesPerLayerPairExpansion) {
    Coverage cov;
    for (std::uint32_t offset = 1; offset <= 4; ++offset) {
        StreakOptions opts;
        opts.threads = 1;
        if (offset == 4) opts.maxLayerPairs = 5;
        std::vector<gen::SuiteSpec> specs;
        for (int suite = 1; suite <= 7; ++suite) {
            for (gen::SuiteSpec spec :
                 {gen::synthSpec(suite), gen::shrunkSynthSpec(suite)}) {
                spec.seed += offset - 1;
                specs.push_back(spec);
            }
        }
        for (const auto& [capacity, viaCapacity] :
             {std::pair{0, -1}, std::pair{0, 3}, std::pair{2, -1},
              std::pair{2, 3}}) {
            gen::SuiteSpec spec = testutil::congestedMultipinSpec();
            spec.name = "congested-cap" + std::to_string(capacity) + "-via" +
                        std::to_string(viaCapacity);
            if (capacity > 0) spec.capacity = capacity;
            spec.viaCapacity = viaCapacity;
            spec.seed = offset;
            specs.push_back(spec);
        }
        for (gen::SuiteSpec& spec : specs) {
            spec.name += "-" + std::to_string(spec.seed);
            compareOn(gen::generate(spec), opts, &cov);
        }
    }
    std::cout << cov.designs << " designs, " << cov.candidates
              << " candidates, " << cov.pairCells << " pair-block cells, "
              << cov.backbonesWithoutCandidate
              << " backbones with no surviving candidate, "
              << cov.shiftedMembers << " shifted and " << cov.remappedMembers
              << " remapped members, " << cov.mismatches << " mismatches\n";
    EXPECT_EQ(cov.designs, 72);
    EXPECT_EQ(cov.mismatches, 0);
    EXPECT_GT(cov.pairCells, 0);
    // Clustering reads backbones that no candidate kept; the set must
    // contain some, or it would not tell shapes from candidates.
    EXPECT_GT(cov.backbonesWithoutCandidate, 0);
    // Both ways of building an equivalent topology are compared.
    EXPECT_GT(cov.shiftedMembers, 0);
    EXPECT_GT(cov.remappedMembers, 0);
}

TEST(ProblemBuildEquivalence, ShapesAtTheGridBorder) {
    // Groups that touch the grid's last row and column: the shapes'
    // boxes end on the border, where no edge leaves the grid.
    const Design touching = testutil::makeDesign(
        {testutil::makeBusGroup({{9, 15}, {15, 15}, {15, 9}}, 4, -1, -1,
                                "corner"),
         testutil::makeBusGroup({{2, 15}, {8, 15}, {5, 11}}, 3, 0, -1,
                                "top"),
         testutil::makeBusGroup({{15, 0}, {15, 5}, {12, 3}}, 3, -1, 0,
                                "right")},
        16, 16);
    Coverage cov;
    StreakOptions opts;
    opts.threads = 1;
    compareOn(touching, opts, &cov);
    EXPECT_EQ(cov.mismatches, 0);
    EXPECT_GT(cov.candidates, 0);
    EXPECT_GT(cov.shiftedMembers, 0);

    // Hand-built objects with pins around and beyond the border: the
    // counts clip to the grid as the reference's filters do, on both
    // the shift and the remap path.
    std::mt19937 rng(4099);
    std::uniform_int_distribution<int> coord(-3, 18);
    std::uniform_int_distribution<int> offset(-4, 4);
    std::uniform_int_distribution<int> pinCount(2, 4);
    int offGrid = 0;
    for (int round = 0; round < 100; ++round) {
        const int pins = pinCount(rng);
        Design design = testutil::makeDesign({SignalGroup{}}, 16, 16);
        SignalGroup& group = design.groups[0];
        RoutingObject obj;
        Bit rep;
        for (int k = 0; k < pins; ++k) {
            rep.pins.push_back({coord(rng), coord(rng)});
        }
        const geom::Point d{offset(rng), offset(rng)};
        Bit moved = rep;
        for (geom::Point& p : moved.pins) p = {p.x + d.x, p.y + d.y};
        Bit unrelated;
        for (int k = 0; k < pins; ++k) {
            unrelated.pins.push_back({coord(rng), coord(rng)});
        }
        group.bits = {rep, moved, unrelated};
        std::vector<int> pinMap(static_cast<size_t>(pins));
        std::iota(pinMap.begin(), pinMap.end(), 0);
        obj.bitIndices = {0, 1, 2};
        obj.pinMaps = {pinMap, pinMap, pinMap};
        for (const Bit& b : group.bits) {
            for (const geom::Point p : b.pins) {
                offGrid += design.grid.contains(p) ? 0 : 1;
            }
        }
        const ObjectCandidates got = generateCandidates(design, obj, opts);
        std::vector<std::string> diffs;
        objectDifferences(design, obj, got.shapes, got.candidates,
                          reference::generateCandidates(design, obj, opts),
                          opts, "round " + std::to_string(round) + " ", &cov,
                          &diffs);
        for (size_t k = 0; k < std::min<size_t>(diffs.size(), 5); ++k) {
            ADD_FAILURE() << diffs[k];
        }
    }
    EXPECT_GT(offGrid, 0);
    EXPECT_GT(cov.remappedMembers, 0);
}

TEST(ProblemBuildEquivalence, SparseShapesAcrossALargeGrid) {
    // Two-bit groups between opposite corners of a 300 x 300 grid, and
    // one on its four corners: their boxes hold 50-75 cells per unit of
    // pin and wire demand, so their demand is sorted instead of counted
    // over the box. The bits are shifts of each other, so both the
    // moved via points and the sort are compared.
    const Design sparse = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 2}, {297, 296}}, 2, 1, 0, "diagonal"),
         testutil::makeBusGroup({{5, 290}, {290, 5}}, 2, 0, 1, "anti"),
         testutil::makeBusGroup({{1, 1}, {298, 1}, {1, 298}, {298, 298}}, 2,
                                -1, 0, "corners")},
        300, 300);
    Coverage cov;
    StreakOptions opts;
    opts.threads = 1;
    compareOn(sparse, opts, &cov);
    EXPECT_EQ(cov.mismatches, 0);
    EXPECT_GT(cov.candidates, 0);
    EXPECT_GT(cov.shiftedMembers, 0);
}

TEST(ProblemBuildEquivalence, ShiftWithPermutedPinsAndAnotherDriver) {
    // The member is the representative moved by (3, -2), listing its pins
    // in another order and driven from another pin: memberShifts finds
    // the shift through the pin map, and the moved wire over the
    // member's own pins and driver is what the remap builds.
    SignalGroup group;
    group.bits.push_back(testutil::makeBit({{1, 4}, {9, 4}, {9, 10}, {4, 12}}));
    Bit member;
    member.pins = {{12, 8}, {4, 2}, {7, 10}, {12, 2}};
    member.driver = 2;
    group.bits.push_back(member);
    RoutingObject obj;
    obj.bitIndices = {0, 1};
    obj.pinMaps = {{0, 1, 2, 3}, {2, 0, 3, 1}};
    const MemberShifts shifts = memberShifts(group, obj);
    ASSERT_EQ(shifts.size(), 2u);
    EXPECT_EQ(shifts[0], (geom::Point{0, 0}));
    EXPECT_EQ(shifts[1], (geom::Point{3, -2}));
    const std::vector<steiner::Topology> backbones =
        generateBackbones(group, obj, BackboneOptions{});
    ASSERT_FALSE(backbones.empty());
    for (const steiner::Topology& backbone : backbones) {
        const std::vector<steiner::Topology> got =
            equivalentTopologies(backbone, group, obj, shifts);
        ASSERT_EQ(got.size(), 2u);
        for (int k = 0; k < 2; ++k) {
            EXPECT_TRUE(got[static_cast<size_t>(k)] ==
                        reference::equivalentTopology(backbone, group, obj, k))
                << "member " << k;
        }
        EXPECT_EQ(got[1].pins(), member.pins);
        EXPECT_EQ(got[1].driverIndex(), 2);
        EXPECT_TRUE(got[1].isTree());
    }
}

TEST(ProblemBuildEquivalence, EquivalentTopologiesOnUnrelatedPins) {
    // Generated objects stretch their bits uniformly, so a mapped pin
    // always lands on the member's pin. Hand-built objects whose member
    // pins are unrelated to the representative's also reach the nearest-
    // pin offsets and the L-shape stitching of a displaced pin.
    std::mt19937 rng(2017);
    std::uniform_int_distribution<int> coord(0, 12);
    std::uniform_int_distribution<int> pinCount(2, 5);
    for (int round = 0; round < 300; ++round) {
        const int pins = pinCount(rng);
        SignalGroup group;
        RoutingObject obj;
        for (int b = 0; b < 3; ++b) {
            Bit bit;
            for (int k = 0; k < pins; ++k) {
                bit.pins.push_back({coord(rng), coord(rng)});
            }
            group.bits.push_back(bit);
            obj.bitIndices.push_back(b);
            std::vector<int> pinMap(static_cast<size_t>(pins));
            std::iota(pinMap.begin(), pinMap.end(), 0);
            obj.pinMaps.push_back(pinMap);
        }
        for (const steiner::Topology& backbone :
             generateBackbones(group, obj, BackboneOptions{})) {
            const std::vector<steiner::Topology> got = equivalentTopologies(
                backbone, group, obj, memberShifts(group, obj));
            ASSERT_EQ(got.size(), 3u);
            for (int k = 0; k < 3; ++k) {
                const steiner::Topology want =
                    reference::equivalentTopology(backbone, group, obj, k);
                EXPECT_TRUE(got[static_cast<size_t>(k)] == want)
                    << "round " << round << " member " << k;
                EXPECT_TRUE(equivalentTopology(backbone, group, obj, k) ==
                            want);
            }
        }
    }
}

}  // namespace
}  // namespace streak
