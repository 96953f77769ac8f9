#include "steiner/rsmt.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <unordered_set>

#include "check/assert.hpp"

namespace streak::steiner {

namespace {

/// Prim's buffers, reusable across calls.
struct MstScratch {
    std::vector<char> inTree;
    std::vector<int> best;
    std::vector<int> parent;
};

/// Prim's algorithm over `pts` in `s`: the MST's total Manhattan length,
/// with its (parent, point) edges appended to `edges` when non-null.
long prim(const std::vector<geom::Point>& pts, MstScratch* s,
          std::vector<std::pair<int, int>>* edges) {
    const int n = static_cast<int>(pts.size());
    if (n <= 1) return 0;
    const auto at = [](int v) { return static_cast<size_t>(v); };
    s->inTree.assign(at(n), 0);
    s->best.assign(at(n), std::numeric_limits<int>::max());
    s->parent.assign(at(n), -1);
    s->inTree[0] = 1;
    for (int v = 1; v < n; ++v) {
        s->best[at(v)] = manhattan(pts[0], pts[at(v)]);
        s->parent[at(v)] = 0;
    }
    long total = 0;
    for (int added = 1; added < n; ++added) {
        int pick = -1;
        int pickCost = std::numeric_limits<int>::max();
        for (int v = 0; v < n; ++v) {
            if (s->inTree[at(v)] == 0 && s->best[at(v)] < pickCost) {
                pick = v;
                pickCost = s->best[at(v)];
            }
        }
        STREAK_ASSERT(pick >= 0,
                      "Prim step {} of {} found no reachable point", added, n);
        s->inTree[at(pick)] = 1;
        total += pickCost;
        if (edges != nullptr) edges->emplace_back(s->parent[at(pick)], pick);
        for (int v = 0; v < n; ++v) {
            if (s->inTree[at(v)] != 0) continue;
            const int d = manhattan(pts[at(pick)], pts[at(v)]);
            if (d < s->best[at(v)]) {
                s->best[at(v)] = d;
                s->parent[at(v)] = pick;
            }
        }
    }
    return total;
}

}  // namespace

std::vector<std::pair<int, int>> rectilinearMST(
    const std::vector<geom::Point>& pts) {
    std::vector<std::pair<int, int>> edges;
    edges.reserve(pts.empty() ? 0 : pts.size() - 1);
    MstScratch scratch;
    prim(pts, &scratch, &edges);
    return edges;
}

long mstLength(const std::vector<geom::Point>& pts) {
    MstScratch scratch;
    return prim(pts, &scratch, nullptr);
}

std::vector<geom::Point> hananPoints(const std::vector<geom::Point>& pins) {
    std::vector<int> xs;
    std::vector<int> ys;
    xs.reserve(pins.size());
    ys.reserve(pins.size());
    for (geom::Point p : pins) {
        xs.push_back(p.x);
        ys.push_back(p.y);
    }
    std::sort(xs.begin(), xs.end());
    xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
    std::sort(ys.begin(), ys.end());
    ys.erase(std::unique(ys.begin(), ys.end()), ys.end());

    std::unordered_set<geom::Point> pinSet(pins.begin(), pins.end());
    std::vector<geom::Point> out;
    for (int x : xs) {
        for (int y : ys) {
            const geom::Point p{x, y};
            if (!pinSet.contains(p)) out.push_back(p);
        }
    }
    return out;
}

std::vector<geom::Point> iterated1Steiner(const std::vector<geom::Point>& pins,
                                          int maxInserts) {
    std::vector<geom::Point> accepted;
    if (pins.size() < 3) return accepted;

    std::vector<geom::Point> current = pins;
    // Every candidate's MST length is evaluated in these buffers.
    MstScratch scratch;
    long currentCost = prim(current, &scratch, nullptr);
    for (int round = 0; round < maxInserts; ++round) {
        const std::vector<geom::Point> candidates = hananPoints(current);
        geom::Point bestPoint{};
        long bestCost = currentCost;
        bool found = false;
        for (geom::Point c : candidates) {
            current.push_back(c);
            const long cost = prim(current, &scratch, nullptr);
            current.pop_back();
            if (cost < bestCost) {
                bestCost = cost;
                bestPoint = c;
                found = true;
            }
        }
        if (!found) break;
        current.push_back(bestPoint);
        accepted.push_back(bestPoint);
        currentCost = bestCost;
    }

    // Degree pruning: drop accepted points with MST degree <= 2 (they do
    // not branch the tree and only add bends).
    for (;;) {
        const auto edges = rectilinearMST(current);
        std::vector<int> degree(current.size(), 0);
        for (const auto& [a, b] : edges) {
            ++degree[static_cast<size_t>(a)];
            ++degree[static_cast<size_t>(b)];
        }
        bool removed = false;
        for (size_t i = current.size(); i-- > pins.size();) {
            if (degree[i] <= 2) {
                const geom::Point victim = current[i];
                current.erase(current.begin() + static_cast<std::ptrdiff_t>(i));
                std::erase(accepted, victim);
                removed = true;
                break;
            }
        }
        if (!removed) break;
    }
    return accepted;
}

Topology rectifyTree(const std::vector<geom::Point>& pins, int driver,
                     const std::vector<geom::Point>& steiner, LMode mode) {
    std::vector<geom::Point> all = pins;
    all.insert(all.end(), steiner.begin(), steiner.end());
    Topology topo(pins, driver);
    const auto edges = rectilinearMST(all);

    bool lastLegHorizontal = true;
    for (const auto& [ia, ib] : edges) {
        const geom::Point a = all[static_cast<size_t>(ia)];
        const geom::Point b = all[static_cast<size_t>(ib)];
        if (a.x == b.x || a.y == b.y) {
            topo.addSegment({a, b});
            lastLegHorizontal = (a.y == b.y);
            continue;
        }
        const geom::Point cornerLower{b.x, a.y};  // horizontal leg first
        const geom::Point cornerUpper{a.x, b.y};  // vertical leg first
        geom::Point corner{};
        switch (mode) {
            case LMode::LowerFirst:
                corner = cornerLower;
                break;
            case LMode::UpperFirst:
                corner = cornerUpper;
                break;
            case LMode::Adaptive: {
                // Prefer the corner already touched by placed wire; when
                // both/neither, continue in the previous leg direction to
                // reduce zig-zagging.
                const auto touches = [&](geom::Point p) {
                    const std::array<UnitEdge, 4> around{
                        UnitEdge{p, true}, UnitEdge{{p.x - 1, p.y}, true},
                        UnitEdge{p, false}, UnitEdge{{p.x, p.y - 1}, false}};
                    return std::any_of(around.begin(), around.end(),
                                       [&](const UnitEdge& e) {
                                           return topo.hasEdge(e);
                                       });
                };
                const bool lowerTouch = touches(cornerLower);
                const bool upperTouch = touches(cornerUpper);
                if (lowerTouch != upperTouch) {
                    corner = lowerTouch ? cornerLower : cornerUpper;
                } else {
                    corner = lastLegHorizontal ? cornerLower : cornerUpper;
                }
                break;
            }
        }
        topo.addLShape(a, b, corner);
        lastLegHorizontal = (corner.y == b.y);
    }
    return topo;
}

Topology pruneToTree(const Topology& t) {
    if (t.isTree()) return t;
    Topology out(t.pins(), t.driverIndex());
    if (t.wire().empty()) return out;
    // Spanning tree via DFS over the wire graph from the driver. Which
    // cycle edges get dropped depends on the neighbour visit order, which
    // the graph gives in sorted-edge order.
    const WireGraph g = t.graph();
    const std::vector<geom::Point>& pts = g.points();
    std::vector<UnitEdge> kept;
    if (const int root = g.indexOf(t.driverPin()); root >= 0) {
        std::vector<char> seen(pts.size(), 0);
        std::vector<int> stack{root};
        seen[static_cast<size_t>(root)] = 1;
        while (!stack.empty()) {
            const int p = stack.back();
            stack.pop_back();
            for (const int q : g.neighbours(p)) {
                if (seen[static_cast<size_t>(q)] != 0) continue;
                seen[static_cast<size_t>(q)] = 1;
                const geom::Point a = pts[static_cast<size_t>(std::min(p, q))];
                const geom::Point b = pts[static_cast<size_t>(std::max(p, q))];
                kept.push_back({a, a.y == b.y});
                stack.push_back(q);
            }
        }
    }
    std::sort(kept.begin(), kept.end());
    for (const UnitEdge& e : kept) out.addSegment(e.segment());

    // Trim degree-1 non-pin leaves repeatedly.
    std::vector<geom::Point> pinSet = t.pins();
    std::sort(pinSet.begin(), pinSet.end());
    const auto isPin = [&](geom::Point p) {
        return std::binary_search(pinSet.begin(), pinSet.end(), p);
    };
    for (;;) {
        const WireGraph h = out.graph();
        const auto leaf = [&](geom::Point p) {
            return h.degree(h.indexOf(p)) == 1 && !isPin(p);
        };
        Topology next(out.pins(), out.driverIndex());
        for (const UnitEdge& e : out.wire()) {
            if (!leaf(e.at) && !leaf(e.other())) next.addSegment(e.segment());
        }
        if (next.wirelength() == out.wirelength()) break;
        out = std::move(next);
    }
    return out;
}

std::vector<Topology> enumerateTopologies(const std::vector<geom::Point>& pins,
                                          int driver,
                                          const EnumerateOptions& opts) {
    std::vector<Topology> raw;
    const std::vector<geom::Point> noSteiner;
    for (const LMode mode :
         {LMode::Adaptive, LMode::LowerFirst, LMode::UpperFirst}) {
        raw.push_back(rectifyTree(pins, driver, noSteiner, mode));
    }
    if (pins.size() >= 3) {
        const std::vector<geom::Point> steiner = iterated1Steiner(pins);
        if (!steiner.empty()) {
            for (const LMode mode :
                 {LMode::Adaptive, LMode::LowerFirst, LMode::UpperFirst}) {
                raw.push_back(rectifyTree(pins, driver, steiner, mode));
            }
        }
    }

    // rectifyTree draws a union that is connected and covers its pins,
    // so it is a tree exactly when it touches one more lattice point than
    // it has edges: only a union with a cycle is pruned.
    for (Topology& t : raw) {
        if (!t.empty() && t.pointCount() != t.wirelength() + 1) {
            t = pruneToTree(t);
        }
    }

    // Dedupe by wire shape, then rank by wl + lambda * bends, with each
    // cost computed once (bendCount() walks every wire end).
    std::vector<std::pair<int, Topology>> ranked;
    std::unordered_set<std::uint64_t> seen;
    for (Topology& t : raw) {
        if (!seen.insert(t.wireHash()).second) continue;
        const int cost = t.wirelength() + opts.bendPenalty * t.bendCount();
        ranked.emplace_back(cost, std::move(t));
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    if (static_cast<int>(ranked.size()) > opts.maxCandidates) {
        ranked.resize(static_cast<size_t>(opts.maxCandidates));
    }
    std::vector<Topology> unique;
    unique.reserve(ranked.size());
    for (auto& [cost, t] : ranked) unique.push_back(std::move(t));
    return unique;
}

}  // namespace streak::steiner
