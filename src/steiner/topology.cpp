#include "steiner/topology.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "check/assert.hpp"

namespace streak::steiner {

namespace {

/// The unit edges of a straight segment, lowest first — already in wire
/// order.
struct Run {
    geom::Point start;
    bool horizontal = true;
    int length = 0;

    [[nodiscard]] UnitEdge operator[](int i) const {
        return horizontal ? UnitEdge{{start.x + i, start.y}, true}
                          : UnitEdge{{start.x, start.y + i}, false};
    }
    /// True when `e` has the run's orientation and row (or column). An
    /// edge between run[0] and run[length - 1] in wire order that passes
    /// this is an edge of the run.
    [[nodiscard]] bool onLine(const UnitEdge& e) const {
        return e.horizontal == horizontal &&
               (horizontal ? e.at.y == start.y : e.at.x == start.x);
    }
};

Run runOf(const geom::Segment& seg) {
    const geom::Segment c = seg.canonical();
    return {c.a, c.horizontal(), c.length()};
}

/// Calls `f(p, key, horizontal)` for every end of every edge of the
/// sorted wire, in (point, key) order. Key 2k is edge k's `at` end and
/// key 2k + 1 its other() end; `horizontal` is edge k's orientation.
///
/// No sort is needed: three streams are each in that order already —
/// the `at` ends in wire order, and the far ends of the horizontal and
/// of the vertical edges, each in wire order (a unit shift keeps the
/// order, and no two edges of one orientation share a far end). At a
/// shared point the streams tie-break by edge index without comparing
/// keys: a point's left edge sorts before its down edge, and both
/// before the up and right edges it is the `at` end of.
template <typename F>
void forEachEnd(const std::vector<UnitEdge>& wire, F&& f) {
    const auto size = static_cast<int>(wire.size());
    // The first edge of the given orientation after edge k, or size.
    const auto next = [&](int k, bool horizontal) {
        for (++k; k < size && wire[static_cast<size_t>(k)].horizontal != horizontal;
             ++k) {
        }
        return k;
    };
    // A drained stream's end sorts after every lattice point.
    constexpr geom::Point kDrained{std::numeric_limits<int>::max(),
                                   std::numeric_limits<int>::max()};
    const auto atEnd = [&](int k) {
        return k < size ? wire[static_cast<size_t>(k)].at : kDrained;
    };
    const auto farEnd = [&](int k) {
        return k < size ? wire[static_cast<size_t>(k)].other() : kDrained;
    };
    int a = 0;
    int h = next(-1, true);
    int v = next(-1, false);
    geom::Point pa = atEnd(a);
    geom::Point ph = farEnd(h);
    geom::Point pv = farEnd(v);
    for (int n = 2 * size; n > 0; --n) {
        geom::Point p;
        int key = 0;
        bool horizontal = false;
        if (ph <= pv && ph <= pa) {
            p = ph;
            key = 2 * h + 1;
            horizontal = true;
            h = next(h, true);
            ph = farEnd(h);
        } else if (pv <= pa) {
            p = pv;
            key = 2 * v + 1;
            v = next(v, false);
            pv = farEnd(v);
        } else {
            p = pa;
            key = 2 * a;
            horizontal = wire[static_cast<size_t>(a)].horizontal;
            pa = atEnd(++a);
        }
        f(p, key, horizontal);
    }
}

/// One wire point as forEachPoint reports it.
struct PointCensus {
    geom::Point p;
    int degree = 0;           // wire edges ending here
    bool horizontal = false;  // one of them is horizontal
    bool vertical = false;    // one of them is vertical

    /// Horizontal and vertical wire meet here (WireGraph::isVia).
    [[nodiscard]] bool via() const { return horizontal && vertical; }
};

/// Calls `f(census)` for every wire point in lexicographic order: the
/// degree and incidence graph() would give the point, from one walk over
/// the merged ends, with no graph built.
template <typename F>
void forEachPoint(const std::vector<UnitEdge>& wire, F&& f) {
    PointCensus c;
    forEachEnd(wire, [&](geom::Point p, int /*key*/, bool horizontal) {
        if (c.degree > 0 && c.p != p) {
            f(c);
            c = {};
        }
        c.p = p;
        ++c.degree;
        (horizontal ? c.horizontal : c.vertical) = true;
    });
    if (c.degree > 0) f(c);
}

}  // namespace

Topology::Topology(std::vector<geom::Point> pins, int driver)
    : pins_(std::move(pins)), driver_(driver) {
    if (pins_.empty()) throw std::invalid_argument("Topology: no pins");
    if (driver_ < 0 || driver_ >= static_cast<int>(pins_.size())) {
        throw std::invalid_argument("Topology: driver index out of range");
    }
}

void Topology::addSegment(const geom::Segment& seg) {
    STREAK_ASSERT(seg.rectilinear(),
                  "addSegment with diagonal ({},{})-({},{})",
                  seg.a.x, seg.a.y, seg.b.x, seg.b.y);
    const Run run = runOf(seg);
    if (run.length == 0) return;
    if (wire_.empty() || wire_.back() < run[0]) {
        for (int i = 0; i < run.length; ++i) wire_.push_back(run[i]);
        return;
    }
    // Merge the run in place from the back, skipping edges already there.
    int fresh = 0;
    for (int i = 0; i < run.length; ++i) fresh += hasEdge(run[i]) ? 0 : 1;
    if (fresh == 0) return;
    auto old = static_cast<std::ptrdiff_t>(wire_.size());
    wire_.resize(wire_.size() + static_cast<size_t>(fresh));
    auto out = static_cast<std::ptrdiff_t>(wire_.size());
    for (int j = run.length - 1; j >= 0;) {
        const UnitEdge e = run[j];
        if (old > 0 && e <= wire_[static_cast<size_t>(old - 1)]) {
            if (e == wire_[static_cast<size_t>(old - 1)]) --j;
            wire_[static_cast<size_t>(--out)] = wire_[static_cast<size_t>(--old)];
        } else {
            wire_[static_cast<size_t>(--out)] = e;
            --j;
        }
    }
}

void Topology::addLShape(geom::Point a, geom::Point b, geom::Point corner) {
    STREAK_ASSERT((corner.x == a.x && corner.y == b.y) ||
                      (corner.x == b.x && corner.y == a.y),
                  "corner ({},{}) not on the bend of ({},{})-({},{})",
                  corner.x, corner.y, a.x, a.y, b.x, b.y);
    addSegment({a, corner});
    addSegment({corner, b});
}

void Topology::removeSegment(const geom::Segment& seg) {
    STREAK_ASSERT(seg.rectilinear(),
                  "removeSegment with diagonal ({},{})-({},{})",
                  seg.a.x, seg.a.y, seg.b.x, seg.b.y);
    const Run run = runOf(seg);
    if (run.length == 0) return;
    const auto first = std::lower_bound(wire_.begin(), wire_.end(), run[0]);
    const auto last = std::upper_bound(first, wire_.end(), run[run.length - 1]);
    wire_.erase(std::remove_if(first, last,
                               [&](const UnitEdge& e) { return run.onLine(e); }),
                last);
}

bool Topology::hasEdge(const UnitEdge& e) const {
    return std::binary_search(wire_.begin(), wire_.end(), e);
}

std::vector<geom::Point> Topology::sortedWirePoints() const {
    std::vector<geom::Point> points;
    points.reserve(wire_.size() + 1);
    forEachPoint(wire_, [&](const PointCensus& c) { points.push_back(c.p); });
    return points;
}

geom::Rect Topology::bounds() const {
    STREAK_ASSERT(!pins_.empty(), "bounds of a topology with no pins");
    geom::Rect box{pins_.front(), pins_.front()};
    for (const geom::Point p : pins_) box.expand(p);
    for (const UnitEdge& e : wire_) {
        box.expand(e.at);
        box.expand(e.other());
    }
    return box;
}

int WireGraph::indexOf(geom::Point p) const {
    const auto it = std::lower_bound(points_.begin(), points_.end(), p);
    return it != points_.end() && *it == p
               ? static_cast<int>(it - points_.begin())
               : -1;
}

std::vector<int> WireGraph::distancesFrom(int source) const {
    std::vector<int> dist(points_.size(), -1);
    std::vector<int> queue{source};
    queue.reserve(points_.size());
    dist[static_cast<size_t>(source)] = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
        const int p = queue[head];
        for (const int q : neighbours(p)) {
            if (dist[static_cast<size_t>(q)] >= 0) continue;
            dist[static_cast<size_t>(q)] = dist[static_cast<size_t>(p)] + 1;
            queue.push_back(q);
        }
    }
    return dist;
}

WireGraph Topology::graph() const {
    // The edge ends in (point, edge index) order group by point; each
    // end's neighbour is the other end of its edge, whose point index is
    // known once every end has been placed.
    const size_t ends = wire_.size() * 2;
    WireGraph g;
    g.points_.reserve(ends);
    g.offsets_.reserve(ends + 1);
    g.incidence_.reserve(ends);
    g.neighbours_.reserve(ends);
    std::vector<int> pointOfEnd(ends);
    forEachEnd(wire_, [&](geom::Point p, int key, bool horizontal) {
        if (g.points_.empty() || g.points_.back() != p) {
            g.points_.push_back(p);
            g.offsets_.push_back(static_cast<int>(g.neighbours_.size()));
            g.incidence_.push_back(0);
        }
        pointOfEnd[static_cast<size_t>(key)] =
            static_cast<int>(g.points_.size()) - 1;
        g.incidence_.back() |=
            horizontal ? WireGraph::kHorizontal : WireGraph::kVertical;
        g.neighbours_.push_back(key ^ 1);  // the far end's key, for now
    });
    g.offsets_.push_back(static_cast<int>(ends));
    for (int& q : g.neighbours_) q = pointOfEnd[static_cast<size_t>(q)];
    return g;
}

bool Topology::spans(const WireGraph& g) const {
    // With no wire, every pin must sit on the first one.
    if (wire_.empty()) {
        return std::all_of(pins_.begin(), pins_.end(),
                           [&](geom::Point p) { return p == pins_[0]; });
    }
    // Otherwise the first pin must be on the wire, and the walk from it
    // must reach every pin and every wire point (no floating metal).
    const int start = g.indexOf(pins_[0]);
    if (start < 0) return false;
    const std::vector<int> dist = g.distancesFrom(start);
    if (std::any_of(dist.begin(), dist.end(), [](int d) { return d < 0; })) {
        return false;
    }
    return std::all_of(pins_.begin(), pins_.end(),
                       [&](geom::Point p) { return g.indexOf(p) >= 0; });
}

bool Topology::connected() const { return spans(graph()); }

bool Topology::isTree() const {
    const WireGraph g = graph();
    // |V| = |E| + 1 for a tree.
    return spans(g) && (wire_.empty() || g.points().size() == wire_.size() + 1);
}

int Topology::pointCount() const {
    int points = 0;
    forEachPoint(wire_, [&](const PointCensus&) { ++points; });
    return points;
}

int Topology::bendCount() const {
    int bends = 0;
    forEachPoint(wire_, [&](const PointCensus& c) { bends += c.via() ? 1 : 0; });
    return bends;
}

std::vector<geom::Point> Topology::viaPoints() const {
    std::vector<geom::Point> vias;
    forEachPoint(wire_, [&](const PointCensus& c) {
        if (c.via()) vias.push_back(c.p);
    });
    return vias;
}

std::vector<int> Topology::sourceToSinkDistances() const {
    std::vector<int> dist(pins_.size(), -1);
    const WireGraph g = graph();
    const int source = g.indexOf(driverPin());
    if (source < 0) {
        // The driver is off the wire: only pins at its location have a
        // distance (zero).
        for (size_t i = 0; i < pins_.size(); ++i) {
            if (pins_[i] == driverPin()) dist[i] = 0;
        }
        return dist;
    }
    const std::vector<int> hops = g.distancesFrom(source);
    for (size_t i = 0; i < pins_.size(); ++i) {
        const int p = g.indexOf(pins_[i]);
        if (p >= 0) dist[i] = hops[static_cast<size_t>(p)];
    }
    return dist;
}

TopoStructure Topology::structure() const {
    TopoStructure st;

    // Pins by location; the first index wins where pins coincide.
    std::vector<std::pair<geom::Point, int>> pinAt;
    pinAt.reserve(pins_.size());
    for (size_t i = 0; i < pins_.size(); ++i) {
        pinAt.emplace_back(pins_[i], static_cast<int>(i));
    }
    std::sort(pinAt.begin(), pinAt.end());

    // Feature nodes in lexicographic order: a merge of the wire census and
    // the pin locations, keeping pins, junctions, stub ends and bends.
    size_t q = 0;
    const auto visit = [&](geom::Point p, int degree, bool via) {
        int pinIndex = -1;
        if (q < pinAt.size() && pinAt[q].first == p) {
            pinIndex = pinAt[q].second;
            while (q < pinAt.size() && pinAt[q].first == p) ++q;
        }
        if (pinIndex < 0 && degree == 2 && !via) return;
        st.nodes.push_back({p, pinIndex, degree, degree == 2 && via});
    };
    forEachPoint(wire_, [&](const PointCensus& c) {
        while (q < pinAt.size() && pinAt[q].first < c.p) {
            visit(pinAt[q].first, 0, false);
        }
        visit(c.p, c.degree, c.via());
    });
    while (q < pinAt.size()) visit(pinAt[q].first, 0, false);

    const auto nodeAt = [&](geom::Point p) {
        const auto it = std::lower_bound(
            st.nodes.begin(), st.nodes.end(), p,
            [](const TopoStructure::Node& n, geom::Point v) { return n.pt < v; });
        return it != st.nodes.end() && it->pt == p
                   ? static_cast<int>(it - st.nodes.begin())
                   : -1;
    };
    // Walk the straight run from each node rightwards and upwards to the
    // next node. Every RC has its lexicographically smaller end on its
    // left or bottom, so this records each RC exactly once.
    for (int start = 0; start < static_cast<int>(st.nodes.size()); ++start) {
        const TopoStructure::Node& n = st.nodes[static_cast<size_t>(start)];
        for (const bool horizontal : {true, false}) {
            if (!hasEdge({n.pt, horizontal})) continue;
            geom::Point p = n.pt;
            int end = -1;
            while (end < 0) {
                p = horizontal ? geom::Point{p.x + 1, p.y} : geom::Point{p.x, p.y + 1};
                end = nodeAt(p);
            }
            st.rcs.emplace_back(start, end);
        }
    }
    return st;
}

Topology Topology::translate(geom::Point d, std::vector<geom::Point> pins,
                             int driver) const {
    Topology out(std::move(pins), driver);
    // A translation keeps the lexicographic order: copy, then move each
    // edge in place.
    out.wire_ = wire_;
    for (UnitEdge& e : out.wire_) e.at = {e.at.x + d.x, e.at.y + d.y};
    return out;
}

std::uint64_t Topology::wireHash() const {
    // XOR of per-edge hashes is order independent.
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const UnitEdge& e : wire_) {
        std::uint64_t k = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.at.x)) << 33) ^
                          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.at.y)) << 1) ^
                          (e.horizontal ? 1u : 0u);
        k *= 0xbf58476d1ce4e5b9ull;
        k ^= k >> 27;
        h ^= k;
    }
    return h;
}

}  // namespace streak::steiner
