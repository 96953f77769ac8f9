// Differential test of Topology's flat wire storage against the hash-set
// representation it replaced. The reference below keeps that
// representation: the wire as an unordered_set of unit edges, a hash-map
// adjacency built from the sorted wire, and every query on top of it
// (connectivity, tree test, via points, source-to-sink distances, the RC
// structure, the wire hash), plus the hash-adjacency versions of
// pruneToTree and the Elmore delay walk. The production code must match
// it field for field, and the delays bit for bit, on seeded random
// wires, on lattice meshes, on add/remove sequences, and on every
// backbone, equivalent topology, rectified raw tree and post-refine
// routed bit of synth1-7.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <iostream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/problem.hpp"
#include "equiv_reference.hpp"
#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "steiner/rsmt.hpp"
#include "steiner/topology.hpp"
#include "timing/elmore.hpp"

namespace streak {
namespace {

using geom::Point;
using steiner::TopoStructure;
using steiner::Topology;
using steiner::UnitEdge;
using steiner::UnitEdgeHash;

// ------------------------------------------------------- the reference

namespace reference {

using streak::reference::equivalentTopology;

struct Incidence {
    bool left = false, right = false, down = false, up = false;

    [[nodiscard]] int degree() const {
        return int{left} + int{right} + int{down} + int{up};
    }
    [[nodiscard]] bool hasHorizontal() const { return left || right; }
    [[nodiscard]] bool hasVertical() const { return down || up; }
};

/// The hash-set topology: pins, driver and a set of unit edges.
struct Wire {
    std::vector<Point> pins;
    int driver = 0;
    std::unordered_set<UnitEdge, UnitEdgeHash> wire;

    [[nodiscard]] Point driverPin() const {
        return pins[static_cast<size_t>(driver)];
    }

    void addSegment(const geom::Segment& seg) {
        const geom::Segment c = seg.canonical();
        if (c.horizontal()) {
            for (int x = c.a.x; x < c.b.x; ++x) wire.insert({{x, c.a.y}, true});
        } else {
            for (int y = c.a.y; y < c.b.y; ++y) wire.insert({{c.a.x, y}, false});
        }
    }

    void removeSegment(const geom::Segment& seg) {
        const geom::Segment c = seg.canonical();
        if (c.horizontal()) {
            for (int x = c.a.x; x < c.b.x; ++x) wire.erase({{x, c.a.y}, true});
        } else {
            for (int y = c.a.y; y < c.b.y; ++y) wire.erase({{c.a.x, y}, false});
        }
    }

    [[nodiscard]] std::vector<UnitEdge> sortedWire() const {
        std::vector<UnitEdge> edges(wire.begin(), wire.end());
        std::sort(edges.begin(), edges.end());
        return edges;
    }

    [[nodiscard]] std::vector<Point> sortedWirePoints() const {
        std::vector<Point> points;
        for (const UnitEdge& e : sortedWire()) {
            points.push_back(e.at);
            points.push_back(e.other());
        }
        std::sort(points.begin(), points.end());
        points.erase(std::unique(points.begin(), points.end()), points.end());
        return points;
    }

    [[nodiscard]] std::unordered_map<Point, std::vector<Point>> adjacency() const {
        std::unordered_map<Point, std::vector<Point>> adj;
        for (const UnitEdge& e : sortedWire()) {
            adj[e.at].push_back(e.other());
            adj[e.other()].push_back(e.at);
        }
        return adj;
    }

    [[nodiscard]] Incidence incidenceAt(Point p) const {
        Incidence inc;
        inc.right = wire.contains({p, true});
        inc.left = wire.contains({{p.x - 1, p.y}, true});
        inc.up = wire.contains({p, false});
        inc.down = wire.contains({{p.x, p.y - 1}, false});
        return inc;
    }

    [[nodiscard]] bool connected() const {
        const auto adj = adjacency();
        if (wire.empty()) {
            return std::all_of(pins.begin(), pins.end(),
                               [&](Point p) { return p == pins[0]; });
        }
        std::unordered_set<Point> seen;
        std::deque<Point> queue{pins[0]};
        seen.insert(pins[0]);
        while (!queue.empty()) {
            const Point p = queue.front();
            queue.pop_front();
            const auto it = adj.find(p);
            if (it == adj.end()) continue;
            for (const Point q : it->second) {
                if (seen.insert(q).second) queue.push_back(q);
            }
        }
        for (const Point p : pins) {
            if (!seen.contains(p)) return false;
        }
        for (const UnitEdge& e : wire) {
            if (!seen.contains(e.at)) return false;
        }
        return true;
    }

    [[nodiscard]] bool isTree() const {
        if (!connected()) return false;
        if (wire.empty()) return true;
        std::unordered_set<Point> points;
        for (const UnitEdge& e : wire) {
            points.insert(e.at);
            points.insert(e.other());
        }
        return points.size() == wire.size() + 1;
    }

    [[nodiscard]] std::vector<Point> viaPoints() const {
        std::vector<Point> vias;
        for (const Point p : sortedWirePoints()) {
            const Incidence inc = incidenceAt(p);
            if (inc.hasHorizontal() && inc.hasVertical()) vias.push_back(p);
        }
        return vias;
    }

    [[nodiscard]] std::vector<int> sourceToSinkDistances() const {
        std::vector<int> dist(pins.size(), -1);
        const auto adj = adjacency();
        std::unordered_map<Point, int> d;
        std::deque<Point> queue{driverPin()};
        d[driverPin()] = 0;
        while (!queue.empty()) {
            const Point p = queue.front();
            queue.pop_front();
            const auto it = adj.find(p);
            if (it == adj.end()) continue;
            for (const Point q : it->second) {
                if (!d.contains(q)) {
                    d[q] = d[p] + 1;
                    queue.push_back(q);
                }
            }
        }
        for (size_t i = 0; i < pins.size(); ++i) {
            const auto it = d.find(pins[i]);
            if (it != d.end()) dist[i] = it->second;
        }
        return dist;
    }

    [[nodiscard]] TopoStructure structure() const {
        TopoStructure st;
        std::unordered_map<Point, int> nodeOf;
        std::unordered_map<Point, int> pinAt;
        for (size_t i = 0; i < pins.size(); ++i) {
            pinAt.emplace(pins[i], static_cast<int>(i));
        }
        std::vector<Point> featurePts = sortedWirePoints();
        featurePts.insert(featurePts.end(), pins.begin(), pins.end());
        std::sort(featurePts.begin(), featurePts.end());
        featurePts.erase(std::unique(featurePts.begin(), featurePts.end()),
                         featurePts.end());
        for (const Point p : featurePts) {
            const Incidence inc = incidenceAt(p);
            const bool feature =
                pinAt.contains(p) || inc.degree() != 2 ||
                (inc.hasHorizontal() && inc.hasVertical());
            if (!feature) continue;
            TopoStructure::Node n;
            n.pt = p;
            n.degree = inc.degree();
            n.isBend = inc.degree() == 2 && inc.hasHorizontal() &&
                       inc.hasVertical();
            const auto it = pinAt.find(p);
            n.pinIndex = it == pinAt.end() ? -1 : it->second;
            nodeOf.emplace(p, static_cast<int>(st.nodes.size()));
            st.nodes.push_back(n);
        }
        const auto step = [](Point p, int dir) -> Point {
            switch (dir) {
                case 0: return {p.x + 1, p.y};
                case 1: return {p.x - 1, p.y};
                case 2: return {p.x, p.y + 1};
                default: return {p.x, p.y - 1};
            }
        };
        const auto edgeTowards = [](Point p, int dir) -> UnitEdge {
            switch (dir) {
                case 0: return {p, true};
                case 1: return {{p.x - 1, p.y}, true};
                case 2: return {p, false};
                default: return {{p.x, p.y - 1}, false};
            }
        };
        for (int start = 0; start < static_cast<int>(st.nodes.size()); ++start) {
            const Point from = st.nodes[static_cast<size_t>(start)].pt;
            for (int dir = 0; dir < 4; ++dir) {
                if (!wire.contains(edgeTowards(from, dir))) continue;
                Point p = from;
                do {
                    p = step(p, dir);
                } while (!nodeOf.contains(p));
                if (from < p) st.rcs.emplace_back(start, nodeOf.at(p));
            }
        }
        return st;
    }

    [[nodiscard]] std::uint64_t wireHash() const {
        std::uint64_t h = 0x9e3779b97f4a7c15ull;
        for (const UnitEdge& e : wire) {
            std::uint64_t k =
                (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.at.x)) << 33) ^
                (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.at.y)) << 1) ^
                (e.horizontal ? 1u : 0u);
            k *= 0xbf58476d1ce4e5b9ull;
            k ^= k >> 27;
            h ^= k;
        }
        return h;
    }
};

Wire of(const Topology& t) {
    return {t.pins(), t.driverIndex(), {t.wire().begin(), t.wire().end()}};
}

Wire pruneToTree(const Wire& t) {
    if (t.isTree()) return t;
    const auto adj = t.adjacency();
    Wire out{t.pins, t.driver, {}};
    if (t.wire.empty()) return out;
    std::unordered_set<Point> seen;
    std::vector<Point> stack{t.driverPin()};
    seen.insert(t.driverPin());
    std::vector<geom::Segment> kept;
    while (!stack.empty()) {
        const Point p = stack.back();
        stack.pop_back();
        const auto it = adj.find(p);
        if (it == adj.end()) continue;
        for (const Point q : it->second) {
            if (seen.insert(q).second) {
                kept.push_back({p, q});
                stack.push_back(q);
            }
        }
    }
    for (const geom::Segment& s : kept) out.addSegment(s);
    const std::unordered_set<Point> pinSet(t.pins.begin(), t.pins.end());
    for (;;) {
        const std::vector<UnitEdge> edges = out.sortedWire();
        std::unordered_map<Point, int> degree;
        for (const UnitEdge& e : edges) {
            ++degree[e.at];
            ++degree[e.other()];
        }
        std::vector<UnitEdge> removable;
        for (const UnitEdge& e : edges) {
            const bool leafA = degree[e.at] == 1 && !pinSet.contains(e.at);
            const bool leafB =
                degree[e.other()] == 1 && !pinSet.contains(e.other());
            if (leafA || leafB) removable.push_back(e);
        }
        if (removable.empty()) break;
        Wire next{out.pins, out.driver, {}};
        const std::unordered_set<UnitEdge, UnitEdgeHash> drop(removable.begin(),
                                                              removable.end());
        for (const UnitEdge& e : edges) {
            if (!drop.contains(e)) next.addSegment(e.segment());
        }
        out = std::move(next);
    }
    return out;
}

std::vector<double> elmoreDelays(const Wire& topo,
                                 const timing::ElmoreParameters& params) {
    struct Node {
        Point pt;
        int parent = -1;
        double ownCap = 0.0;
        double edgeRes = 0.0;
        double edgeCap = 0.0;
        double subtreeCap = 0.0;
        double delay = 0.0;
    };
    std::vector<double> out(topo.pins.size(), -1.0);
    const auto adj = topo.adjacency();
    std::unordered_map<Point, double> pointCap;
    std::unordered_map<Point, double> pointRes;
    for (const Point p : topo.viaPoints()) {
        pointCap[p] += params.viaCapacitance;
        pointRes[p] += params.viaResistance;
    }
    for (size_t i = 0; i < topo.pins.size(); ++i) {
        if (static_cast<int>(i) == topo.driver) continue;
        pointCap[topo.pins[i]] += params.sinkLoad;
    }
    const Point root = topo.driverPin();
    std::vector<Node> nodes;
    std::unordered_map<Point, int> indexOf;
    const auto makeNode = [&](Point p, int parent) {
        Node n;
        n.pt = p;
        n.parent = parent;
        const auto capIt = pointCap.find(p);
        n.ownCap = capIt == pointCap.end() ? 0.0 : capIt->second;
        indexOf.emplace(p, static_cast<int>(nodes.size()));
        nodes.push_back(n);
        return static_cast<int>(nodes.size()) - 1;
    };
    makeNode(root, -1);
    std::deque<int> queue{0};
    while (!queue.empty()) {
        const int cur = queue.front();
        queue.pop_front();
        const auto it = adj.find(nodes[static_cast<size_t>(cur)].pt);
        if (it == adj.end()) continue;
        for (const Point q : it->second) {
            if (indexOf.contains(q)) continue;
            const int child = makeNode(q, cur);
            Node& cn = nodes[static_cast<size_t>(child)];
            cn.edgeRes = params.wireResistance;
            cn.edgeCap = params.wireCapacitance;
            const auto resIt = pointRes.find(q);
            if (resIt != pointRes.end()) cn.edgeRes += resIt->second;
            queue.push_back(child);
        }
    }
    for (size_t i = nodes.size(); i-- > 0;) {
        Node& n = nodes[i];
        n.subtreeCap += n.ownCap + n.edgeCap / 2.0;
        if (n.parent >= 0) {
            nodes[static_cast<size_t>(n.parent)].subtreeCap +=
                n.subtreeCap + n.edgeCap / 2.0;
        }
    }
    nodes[0].delay = params.driverResistance * nodes[0].subtreeCap;
    for (size_t i = 1; i < nodes.size(); ++i) {
        Node& n = nodes[i];
        n.delay = nodes[static_cast<size_t>(n.parent)].delay +
                  n.edgeRes * n.subtreeCap;
    }
    for (size_t i = 0; i < topo.pins.size(); ++i) {
        const auto it = indexOf.find(topo.pins[i]);
        if (it != indexOf.end()) {
            out[i] = nodes[static_cast<size_t>(it->second)].delay;
        } else if (topo.pins[i] == root) {
            out[i] = nodes[0].delay;
        }
    }
    return out;
}

}  // namespace reference

// ------------------------------------------------------- the comparison

/// What the inputs exercised; every field must end up positive.
struct Coverage {
    long inputs = 0;
    long cycles = 0;         // connected, not a tree
    long stubs = 0;          // a non-pin leaf that pruning trims
    long floating = 0;       // wire not reachable from the first pin
    long pinsOffWire = 0;
    long duplicatePins = 0;
    long driverOffWire = 0;  // with wire present
    long bareSinglePin = 0;  // one pin, no wire
    long vias = 0;
    long fourWay = 0;   // a point with all four neighbours
    long sharedAt = 0;  // a horizontal and a vertical edge share an `at` end
    long unionCycles = 0;  // rectified unions enumeration must prune
};

std::string str(Point p) {
    std::ostringstream os;
    os << p;
    return os.str();
}

template <typename T>
std::string str(const std::vector<T>& v) {
    std::ostringstream os;
    os << '[';
    for (size_t i = 0; i < v.size(); ++i) {
        if constexpr (std::is_same_v<T, UnitEdge>) {
            os << (i ? " " : "") << v[i].at << (v[i].horizontal ? 'h' : 'v');
        } else {
            os << (i ? " " : "") << v[i];
        }
    }
    os << ']';
    return os.str();
}

bool sameStructure(const TopoStructure& a, const TopoStructure& b) {
    if (a.rcs != b.rcs || a.nodes.size() != b.nodes.size()) return false;
    for (size_t i = 0; i < a.nodes.size(); ++i) {
        const TopoStructure::Node& x = a.nodes[i];
        const TopoStructure::Node& y = b.nodes[i];
        if (x.pt != y.pt || x.pinIndex != y.pinIndex || x.degree != y.degree ||
            x.isBend != y.isBend) {
            return false;
        }
    }
    return true;
}

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) {
            return false;
        }
    }
    return true;
}

/// Every query of `t` against the reference built from the same edges;
/// returns the names of the fields that differ.
std::vector<std::string> differences(const Topology& t,
                                     const reference::Wire& ref,
                                     Coverage* cov) {
    std::vector<std::string> diffs;
    const auto check = [&](bool same, const std::string& what) {
        if (!same) diffs.push_back(what);
    };
    const std::vector<UnitEdge> sorted = ref.sortedWire();
    if (t.wire() != sorted) {
        // Every other query reads the wire; nothing else is comparable.
        diffs.push_back("wire " + str(t.wire()) + " vs " + str(sorted));
        return diffs;
    }
    check(t.sortedWirePoints() == ref.sortedWirePoints(), "sortedWirePoints");
    check(t.wireHash() == ref.wireHash(), "wireHash");

    // The graph view against the hash adjacency, neighbour order included.
    const steiner::WireGraph g = t.graph();
    const auto adj = ref.adjacency();
    check(g.points() == ref.sortedWirePoints(), "graph points");
    for (int i = 0; i < g.size(); ++i) {
        const Point p = g.points()[static_cast<size_t>(i)];
        std::vector<Point> got;
        for (const int q : g.neighbours(i)) got.push_back(g.points()[static_cast<size_t>(q)]);
        const auto it = adj.find(p);
        const std::vector<Point> want =
            it == adj.end() ? std::vector<Point>{} : it->second;
        if (got != want) {
            diffs.push_back("neighbours of " + str(p) + " " + str(got) +
                            " vs " + str(want));
            break;
        }
        if (g.indexOf(p) != i) diffs.push_back("indexOf " + str(p));
    }

    const bool connected = ref.connected();
    const bool tree = ref.isTree();
    check(t.connected() == connected, "connected");
    check(t.isTree() == tree, "isTree");
    const std::vector<Point> vias = ref.viaPoints();
    if (t.viaPoints() != vias) {
        diffs.push_back("viaPoints " + str(t.viaPoints()) + " vs " + str(vias));
    }
    check(t.bendCount() == static_cast<int>(vias.size()), "bendCount");
    const std::vector<int> dist = ref.sourceToSinkDistances();
    if (t.sourceToSinkDistances() != dist) {
        diffs.push_back("sourceToSinkDistances " +
                        str(t.sourceToSinkDistances()) + " vs " + str(dist));
    }
    check(sameStructure(t.structure(), ref.structure()), "structure");

    const reference::Wire pruned = reference::pruneToTree(ref);
    const Topology got = steiner::pruneToTree(t);
    check(got.pins() == t.pins() && got.driverIndex() == t.driverIndex(),
          "pruned pins");
    if (got.wire() != pruned.sortedWire()) {
        diffs.push_back("pruned wire " + str(got.wire()) + " vs " +
                        str(pruned.sortedWire()));
    }

    for (const timing::ElmoreParameters& params :
         {timing::ElmoreParameters{},
          timing::ElmoreParameters{0.3, 1.7, 2.9, 0.25, 7.5, 1.1}}) {
        check(sameBits(timing::elmoreDelays(t, params),
                       reference::elmoreDelays(ref, params)),
              "elmoreDelays");
    }

    // Coverage.
    ++cov->inputs;
    if (connected && !tree) ++cov->cycles;
    const auto isPin = [&](Point p) {
        return std::find(ref.pins.begin(), ref.pins.end(), p) != ref.pins.end();
    };
    if (!tree && std::any_of(adj.begin(), adj.end(), [&](const auto& kv) {
            return kv.second.size() == 1 && !isPin(kv.first);
        })) {
        ++cov->stubs;
    }
    const std::vector<Point> pts = ref.sortedWirePoints();
    const auto onWire = [&](Point p) {
        return std::binary_search(pts.begin(), pts.end(), p);
    };
    if (onWire(ref.pins[0])) {
        const std::vector<int> reach = g.distancesFrom(g.indexOf(ref.pins[0]));
        if (std::count(reach.begin(), reach.end(), -1) > 0) ++cov->floating;
    }
    if (!ref.wire.empty()) {
        if (std::any_of(ref.pins.begin(), ref.pins.end(),
                        [&](Point p) { return !onWire(p); })) {
            ++cov->pinsOffWire;
        }
        if (!onWire(ref.driverPin())) ++cov->driverOffWire;
    }
    std::vector<Point> pins = ref.pins;
    std::sort(pins.begin(), pins.end());
    if (std::adjacent_find(pins.begin(), pins.end()) != pins.end()) {
        ++cov->duplicatePins;
    }
    if (ref.pins.size() == 1 && ref.wire.empty()) ++cov->bareSinglePin;
    if (!vias.empty()) ++cov->vias;
    if (std::any_of(adj.begin(), adj.end(),
                    [](const auto& kv) { return kv.second.size() == 4; })) {
        ++cov->fourWay;
    }
    if (std::any_of(ref.wire.begin(), ref.wire.end(), [&](const UnitEdge& e) {
            return e.horizontal && ref.wire.contains({e.at, false});
        })) {
        ++cov->sharedAt;
    }
    return diffs;
}

void expectSame(const Topology& t, const std::string& label, Coverage* cov) {
    const std::vector<std::string> diffs =
        differences(t, reference::of(t), cov);
    for (size_t k = 0; k < std::min<size_t>(diffs.size(), 3); ++k) {
        ADD_FAILURE() << label << ": " << diffs[k];
    }
}

// ------------------------------------------------------- random wires

geom::Segment randomSegment(std::mt19937* rng, int span, int maxLen) {
    std::uniform_int_distribution<int> coord(0, span);
    std::uniform_int_distribution<int> len(-maxLen, maxLen);
    std::bernoulli_distribution horizontal(0.5);
    const Point a{coord(*rng), coord(*rng)};
    const int d = len(*rng);
    return horizontal(*rng) ? geom::Segment{a, {a.x + d, a.y}}
                            : geom::Segment{a, {a.x, a.y + d}};
}

/// Random wire #i. The shape family rotates with i so that every case
/// the coverage asks for appears many times.
std::pair<Topology, reference::Wire> randomWire(std::mt19937* rng, int i) {
    const int span = 4 + i % 9;
    std::vector<geom::Segment> segs;
    const int family = i % 8;
    const int count = family == 7 || family == 3
                          ? 0
                          : std::uniform_int_distribution<int>(1, 9)(*rng);
    for (int k = 0; k < count; ++k) segs.push_back(randomSegment(rng, span, 6));
    if (family == 3) {
        // A closed rectangle with every pin on it: a connected cycle.
        const geom::Segment s = randomSegment(rng, span, 0);
        const Point a = s.a;
        const Point c{a.x + 2 + i % 3, a.y + 1 + i % 4};
        segs.push_back({a, {c.x, a.y}});
        segs.push_back({{c.x, a.y}, c});
        segs.push_back({c, {a.x, c.y}});
        segs.push_back({{a.x, c.y}, a});
    }
    if (family == 4) {
        // Floating metal far from everything else.
        segs.push_back({{span + 20, span + 20}, {span + 23, span + 20}});
    }

    // Wire points, for pins on the wire.
    reference::Wire probe;
    for (const geom::Segment& s : segs) probe.addSegment(s);
    const std::vector<Point> pts = probe.sortedWirePoints();

    std::uniform_int_distribution<int> coord(0, span);
    const int numPins = family == 7 ? 1 : std::uniform_int_distribution<int>(1, 6)(*rng);
    std::vector<Point> pins;
    for (int k = 0; k < numPins; ++k) {
        const bool onWire = !pts.empty() &&
                            std::bernoulli_distribution(family == 3 ? 1.0 : 0.7)(*rng);
        pins.push_back(onWire ? pts[std::uniform_int_distribution<size_t>(
                                    0, pts.size() - 1)(*rng)]
                              : Point{coord(*rng), coord(*rng)});
    }
    if (family == 5) pins.push_back(pins.front());  // a duplicate pin
    int driver = std::uniform_int_distribution<int>(
        0, static_cast<int>(pins.size()) - 1)(*rng);
    if (family == 6) {
        // The driver off the wire.
        pins.push_back({-3, -3});
        driver = static_cast<int>(pins.size()) - 1;
    }

    Topology t(pins, driver);
    reference::Wire ref{pins, driver, {}};
    for (const geom::Segment& s : segs) {
        t.addSegment(s);
        ref.addSegment(s);
    }
    // Sometimes cut a piece back out, which leaves stubs and splits.
    if (!segs.empty() && i % 3 == 0) {
        const geom::Segment cut = randomSegment(rng, span, 3);
        t.removeSegment(cut);
        ref.removeSegment(cut);
    }
    return {std::move(t), std::move(ref)};
}

TEST(TopologyEquivalence, RandomWiresMatchTheHashSetReference) {
    std::mt19937 rng(20170618);
    Coverage cov;
    long mismatches = 0;
    for (int i = 0; i < 2400; ++i) {
        const auto [t, ref] = randomWire(&rng, i);
        const std::vector<std::string> diffs = differences(t, ref, &cov);
        if (diffs.empty()) continue;
        ++mismatches;
        if (mismatches <= 5) {
            ADD_FAILURE() << "wire " << i << ": " << diffs.front();
        }
    }
    std::cout << cov.inputs << " wires: " << cov.cycles << " with cycles, "
              << cov.stubs << " with stubs, " << cov.floating
              << " floating, " << cov.pinsOffWire << " pins off the wire, "
              << cov.duplicatePins << " duplicate pins, " << cov.driverOffWire
              << " drivers off the wire, " << cov.bareSinglePin
              << " single bare pins, " << cov.vias << " with vias\n";
    EXPECT_EQ(mismatches, 0);
    EXPECT_GE(cov.inputs, 1000);
    EXPECT_GT(cov.cycles, 0);
    EXPECT_GT(cov.stubs, 0);
    EXPECT_GT(cov.floating, 0);
    EXPECT_GT(cov.pinsOffWire, 0);
    EXPECT_GT(cov.duplicatePins, 0);
    EXPECT_GT(cov.driverOffWire, 0);
    EXPECT_GT(cov.bareSinglePin, 0);
    EXPECT_GT(cov.vias, 0);
}

/// A lattice mesh of 4-6 by 4-6 cells with up to three unit edges cut
/// out. It has at least nine interior points, and a cut spoils at most
/// two of them, so every mesh keeps both ties graph() must order at one
/// point: a point's four edge ends, and a vertical and a horizontal edge
/// with the same `at` end.
std::pair<Topology, reference::Wire> meshWire(std::mt19937* rng) {
    std::uniform_int_distribution<int> cells(4, 6);
    std::uniform_int_distribution<int> origin(-3, 8);
    const int w = cells(*rng);
    const int h = cells(*rng);
    const Point o{origin(*rng), origin(*rng)};
    std::vector<geom::Segment> segs;
    for (int y = 0; y <= h; ++y) segs.push_back({{o.x, o.y + y}, {o.x + w, o.y + y}});
    for (int x = 0; x <= w; ++x) segs.push_back({{o.x + x, o.y}, {o.x + x, o.y + h}});

    std::uniform_int_distribution<int> dx(0, w);
    std::uniform_int_distribution<int> dy(0, h);
    const int numPins = std::uniform_int_distribution<int>(1, 6)(*rng);
    std::vector<Point> pins;
    for (int k = 0; k < numPins; ++k) {
        const bool onMesh = std::bernoulli_distribution(0.8)(*rng);
        pins.push_back(onMesh ? Point{o.x + dx(*rng), o.y + dy(*rng)}
                              : Point{o.x - 2, o.y + dy(*rng)});
    }
    const int driver = std::uniform_int_distribution<int>(0, numPins - 1)(*rng);

    Topology t(pins, driver);
    reference::Wire ref{pins, driver, {}};
    for (const geom::Segment& s : segs) {
        t.addSegment(s);
        ref.addSegment(s);
    }
    const int cuts = std::uniform_int_distribution<int>(0, 3)(*rng);
    for (int k = 0; k < cuts; ++k) {
        const bool horizontal = std::bernoulli_distribution(0.5)(*rng);
        const int x = std::uniform_int_distribution<int>(0, horizontal ? w - 1 : w)(*rng);
        const int y = std::uniform_int_distribution<int>(0, horizontal ? h : h - 1)(*rng);
        const Point a{o.x + x, o.y + y};
        const geom::Segment cut{a, horizontal ? Point{a.x + 1, a.y} : Point{a.x, a.y + 1}};
        t.removeSegment(cut);
        ref.removeSegment(cut);
    }
    return {std::move(t), std::move(ref)};
}

TEST(TopologyEquivalence, LatticeMeshesMatch) {
    std::mt19937 rng(1706);
    Coverage cov;
    long mismatches = 0;
    for (int i = 0; i < 300; ++i) {
        const auto [t, ref] = meshWire(&rng);
        const std::vector<std::string> diffs = differences(t, ref, &cov);
        if (diffs.empty()) continue;
        ++mismatches;
        if (mismatches <= 5) {
            ADD_FAILURE() << "mesh " << i << ": " << diffs.front();
        }
    }
    std::cout << cov.inputs << " meshes: " << cov.fourWay
              << " with a four-way point, " << cov.sharedAt
              << " with a shared `at` end, " << cov.stubs << " with stubs\n";
    EXPECT_EQ(mismatches, 0);
    EXPECT_GT(cov.fourWay, 0);
    EXPECT_GT(cov.sharedAt, 0);
}

TEST(TopologyEquivalence, AddRemoveSequencesMatchAnEdgeSet) {
    std::mt19937 rng(4242);
    long ops = 0;
    for (int round = 0; round < 300; ++round) {
        const int span = 3 + round % 10;
        Topology t({{0, 0}}, 0);
        reference::Wire ref{{{0, 0}}, 0, {}};
        std::set<UnitEdge> want;
        const int steps = std::uniform_int_distribution<int>(1, 40)(rng);
        for (int k = 0; k < steps; ++k, ++ops) {
            const geom::Segment s = randomSegment(&rng, span, 7);
            const bool add = std::bernoulli_distribution(0.65)(rng);
            const geom::Segment c = s.canonical();
            for (int d = 0; d < c.length(); ++d) {
                const UnitEdge e = c.horizontal()
                                       ? UnitEdge{{c.a.x + d, c.a.y}, true}
                                       : UnitEdge{{c.a.x, c.a.y + d}, false};
                if (add) {
                    want.insert(e);
                } else {
                    want.erase(e);
                }
            }
            if (add) {
                t.addSegment(s);
                ref.addSegment(s);
            } else {
                t.removeSegment(s);
                ref.removeSegment(s);
            }
            const std::vector<UnitEdge> expected(want.begin(), want.end());
            ASSERT_EQ(t.wire(), expected)
                << "round " << round << " step " << k << ": "
                << str(t.wire()) << " vs " << str(expected);
            for (const UnitEdge& e : expected) ASSERT_TRUE(t.hasEdge(e));
        }
        // Full query comparison of the final wire.
        Coverage cov;
        const std::vector<std::string> diffs = differences(t, ref, &cov);
        EXPECT_TRUE(diffs.empty()) << "round " << round << ": "
                                   << (diffs.empty() ? "" : diffs.front());
    }
    EXPECT_GT(ops, 3000);
}

// ------------------------------------------------------- enumeration

namespace reference {

/// Batched iterated 1-Steiner with every candidate's MST length from
/// steiner::mstLength, which allocates per call.
std::vector<Point> iterated1Steiner(const std::vector<Point>& pins,
                                    int maxInserts = 16) {
    std::vector<Point> accepted;
    if (pins.size() < 3) return accepted;
    std::vector<Point> current = pins;
    long currentCost = steiner::mstLength(current);
    for (int round = 0; round < maxInserts; ++round) {
        Point bestPoint{};
        long bestCost = currentCost;
        bool found = false;
        for (const Point c : steiner::hananPoints(current)) {
            current.push_back(c);
            const long cost = steiner::mstLength(current);
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
    for (;;) {
        std::vector<int> degree(current.size(), 0);
        for (const auto& [a, b] : steiner::rectilinearMST(current)) {
            ++degree[static_cast<size_t>(a)];
            ++degree[static_cast<size_t>(b)];
        }
        bool removed = false;
        for (size_t i = current.size(); i-- > pins.size();) {
            if (degree[i] <= 2) {
                const Point victim = current[i];
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

/// Every raw union enumerateTopologies draws, in its order.
std::vector<Topology> rawUnions(const std::vector<Point>& pins, int driver) {
    std::vector<std::vector<Point>> steinerSets{{}};
    if (pins.size() >= 3) {
        std::vector<Point> st = iterated1Steiner(pins);
        if (!st.empty()) steinerSets.push_back(std::move(st));
    }
    std::vector<Topology> raw;
    for (const std::vector<Point>& st : steinerSets) {
        for (const steiner::LMode mode :
             {steiner::LMode::Adaptive, steiner::LMode::LowerFirst,
              steiner::LMode::UpperFirst}) {
            raw.push_back(steiner::rectifyTree(pins, driver, st, mode));
        }
    }
    return raw;
}

/// enumerateTopologies with pruneToTree called on every raw union.
std::vector<Topology> enumerateTopologies(
    const std::vector<Point>& pins, int driver,
    const steiner::EnumerateOptions& opts) {
    std::vector<std::pair<int, Topology>> ranked;
    std::unordered_set<std::uint64_t> seen;
    for (const Topology& raw : rawUnions(pins, driver)) {
        Topology t = steiner::pruneToTree(raw);
        if (!seen.insert(t.wireHash()).second) continue;
        const int cost = t.wirelength() + opts.bendPenalty * t.bendCount();
        ranked.emplace_back(cost, std::move(t));
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });
    if (static_cast<int>(ranked.size()) > opts.maxCandidates) {
        ranked.resize(static_cast<size_t>(opts.maxCandidates));
    }
    std::vector<Topology> out;
    for (auto& [cost, t] : ranked) out.push_back(std::move(t));
    return out;
}

}  // namespace reference

TEST(TopologyEquivalence, EnumerationMatchesPruningEveryUnion) {
    // enumerateTopologies prunes only the unions whose point census says
    // they hold a cycle; the reference prunes every union. Random 3-14
    // pin sets, duplicate pins and every driver index included, with
    // K = 4 and K = 8.
    std::mt19937 rng(2017061);
    Coverage cov;
    long sets = 0;
    for (int i = 0; i < 400; ++i) {
        const int n = 3 + i % 12;
        std::uniform_int_distribution<int> coord(0, 6 + i % 17);
        std::vector<Point> pins;
        for (int k = 0; k < n; ++k) pins.push_back({coord(rng), coord(rng)});
        const int driver = std::uniform_int_distribution<int>(0, n - 1)(rng);
        ASSERT_EQ(steiner::iterated1Steiner(pins),
                  reference::iterated1Steiner(pins))
            << "set " << i;
        for (const Topology& raw : reference::rawUnions(pins, driver)) {
            if (!raw.isTree()) ++cov.unionCycles;
        }
        steiner::EnumerateOptions opts;
        opts.maxCandidates = i % 2 == 0 ? 4 : 8;
        const std::vector<Topology> got =
            steiner::enumerateTopologies(pins, driver, opts);
        const std::vector<Topology> want =
            reference::enumerateTopologies(pins, driver, opts);
        ASSERT_EQ(got.size(), want.size()) << "set " << i;
        for (size_t k = 0; k < got.size(); ++k) {
            EXPECT_TRUE(got[k] == want[k]) << "set " << i << " topology " << k;
        }
        ++sets;
    }
    std::cout << sets << " pin sets, " << cov.unionCycles
              << " unions with a cycle\n";
    EXPECT_GT(cov.unionCycles, 0);
}

// ------------------------------------------------------- synth1-7

TEST(TopologyEquivalence, FlowTopologiesOfSynthSuitesMatch) {
    Coverage cov;
    long backbones = 0;
    long bitTopologies = 0;
    long rawTrees = 0;
    long routedBits = 0;
    for (int suite = 1; suite <= 7; ++suite) {
        for (const gen::SuiteSpec& spec :
             {gen::synthSpec(suite), gen::shrunkSynthSpec(suite)}) {
            const Design design = gen::generate(spec);
            StreakOptions opts;
            opts.threads = 1;
            opts.postOptimize = true;
            const FlowResult run = runStreak(design, opts);
            ASSERT_TRUE(run.ok()) << spec.name;
            const StreakResult& r = run.value();
            for (size_t i = 0; i < r.problem.shapes.size(); ++i) {
                const RoutingObject& obj = r.problem.objects[i];
                const SignalGroup& group =
                    design.groups[static_cast<size_t>(obj.groupIndex)];
                for (const BackboneShape& shape : r.problem.shapes[i]) {
                    expectSame(shape.backbone, spec.name + " backbone", &cov);
                    ++backbones;
                    for (int k = 0; k < obj.width(); ++k) {
                        const Topology t = shape.memberTopology(group, obj, k);
                        EXPECT_TRUE(t == reference::equivalentTopology(
                                             shape.backbone, group, obj, k))
                            << spec.name << " object " << i << " member "
                            << k;
                        expectSame(t, spec.name + " bit topology", &cov);
                        ++bitTopologies;
                    }
                }
            }
            for (const RoutedBit& bit : r.routed.bits) {
                expectSame(bit.topo, spec.name + " routed bit", &cov);
                ++routedBits;
            }
            // The rectified trees enumerateTopologies prunes, cycles and
            // stubs included, for every bit's pins.
            for (const SignalGroup& group : design.groups) {
                for (const Bit& b : group.bits) {
                    std::vector<std::vector<Point>> steinerSets{{}};
                    if (b.pins.size() >= 3) {
                        steinerSets.push_back(steiner::iterated1Steiner(b.pins));
                    }
                    for (const std::vector<Point>& st : steinerSets) {
                        for (const steiner::LMode mode :
                             {steiner::LMode::Adaptive, steiner::LMode::LowerFirst,
                              steiner::LMode::UpperFirst}) {
                            expectSame(steiner::rectifyTree(b.pins, b.driver, st, mode),
                                       spec.name + " raw tree", &cov);
                            ++rawTrees;
                        }
                    }
                }
            }
        }
    }
    std::cout << backbones << " backbones, " << bitTopologies
              << " bit topologies, " << rawTrees << " raw trees, "
              << routedBits << " routed bits; " << cov.cycles
              << " with cycles, " << cov.vias << " with vias\n";
    EXPECT_GT(backbones, 0);
    EXPECT_GT(bitTopologies, backbones);
    EXPECT_GT(routedBits, 0);
    EXPECT_GT(cov.cycles, 0);
}

}  // namespace
}  // namespace streak
