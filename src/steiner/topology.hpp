// Rectilinear routing topology.
//
// A Topology is the wire shape of one signal bit: a set of unit lattice
// edges plus the bit's pin locations. Storing unit edges (rather than long
// segments) makes unioning overlapping L-shapes, connectivity checks and
// path-length queries trivial and robust. The edges live in one sorted,
// duplicate-free vector, so a copy is one vector copy and every walk over
// the wire is in a reproducible order; graph queries run over a flat
// WireGraph built from it.
//
// The paper's "rectilinear connections" (RCs) — maximal straight wires
// between pins/bends/junctions — are recovered on demand by structure().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "geom/segment.hpp"

namespace streak::steiner {

/// A unit lattice edge, canonically encoded by its lower-left endpoint and
/// orientation.
struct UnitEdge {
    geom::Point at;        // lower / left endpoint
    bool horizontal = true;

    friend auto operator<=>(const UnitEdge&, const UnitEdge&) = default;

    [[nodiscard]] geom::Point other() const {
        return horizontal ? geom::Point{at.x + 1, at.y}
                          : geom::Point{at.x, at.y + 1};
    }

    [[nodiscard]] geom::Segment segment() const { return {at, other()}; }
};

struct UnitEdgeHash {
    size_t operator()(const UnitEdge& e) const noexcept {
        return std::hash<geom::Point>{}(e.at) * 2 + (e.horizontal ? 1 : 0);
    }
};

/// Derived view of a topology: feature nodes (pins, bends, junctions, stub
/// ends) and the maximal straight RC segments between them.
struct TopoStructure {
    struct Node {
        geom::Point pt;
        int pinIndex = -1;  // >= 0 when the node is a pin of the topology
        int degree = 0;
        bool isBend = false;  // degree-2 corner (one H + one V incident wire)
    };
    /// In lexicographic order of pt.
    std::vector<Node> nodes;
    /// RC segments as (node index, node index); each is straight.
    std::vector<std::pair<int, int>> rcs;

    [[nodiscard]] int numRCs() const { return static_cast<int>(rcs.size()); }
};

/// Flat graph view of a topology's wire, built by Topology::graph(): the
/// wire's lattice points in lexicographic order, each point's neighbours
/// as CSR lists, and each point's horizontal / vertical incidence. A
/// point's neighbours are listed in sorted-edge order (the order of the
/// wire edges that touch it), which on the lattice is left, down, up,
/// right, whichever exist; so every traversal over them is reproducible.
class WireGraph {
public:
    [[nodiscard]] const std::vector<geom::Point>& points() const { return points_; }
    [[nodiscard]] int size() const { return static_cast<int>(points_.size()); }

    /// Index of `p` in points(), or -1 when no wire touches it.
    [[nodiscard]] int indexOf(geom::Point p) const;

    /// Indices of the points one unit edge away from point `i`.
    [[nodiscard]] std::span<const int> neighbours(int i) const {
        const auto k = static_cast<size_t>(i);
        return {neighbours_.data() + offsets_[k],
                static_cast<size_t>(offsets_[k + 1] - offsets_[k])};
    }

    [[nodiscard]] int degree(int i) const {
        const auto k = static_cast<size_t>(i);
        return offsets_[k + 1] - offsets_[k];
    }
    /// Horizontal and vertical wire meet at point `i` (a layer change on
    /// uni-directional metal).
    [[nodiscard]] bool isVia(int i) const {
        return incidence_[static_cast<size_t>(i)] == (kHorizontal | kVertical);
    }

    /// Hop distance from point `source` to every point; -1 where
    /// unreachable.
    [[nodiscard]] std::vector<int> distancesFrom(int source) const;

private:
    friend class Topology;

    /// Incidence bits: the orientations of the wire edges at a point.
    static constexpr std::uint8_t kHorizontal = 1;
    static constexpr std::uint8_t kVertical = 2;

    std::vector<geom::Point> points_;
    std::vector<int> offsets_;     // size() + 1 entries
    std::vector<int> neighbours_;  // point indices, grouped by offsets_
    std::vector<std::uint8_t> incidence_;
};

class Topology {
public:
    Topology() = default;
    /// A topology over the given pins; `driver` indexes into `pins`.
    Topology(std::vector<geom::Point> pins, int driver);

    [[nodiscard]] const std::vector<geom::Point>& pins() const { return pins_; }
    [[nodiscard]] int driverIndex() const { return driver_; }
    [[nodiscard]] geom::Point driverPin() const { return pins_[static_cast<size_t>(driver_)]; }

    /// Add a straight segment's unit edges to the wire (union semantics).
    void addSegment(const geom::Segment& seg);
    /// Add both legs of an L-shape from `a` to `b` through `corner`.
    void addLShape(geom::Point a, geom::Point b, geom::Point corner);

    /// Remove a straight segment's unit edges from the wire (edges not
    /// present are ignored). Used by the refinement detour surgery.
    void removeSegment(const geom::Segment& seg);

    /// The wire edges, sorted and duplicate free.
    [[nodiscard]] const std::vector<UnitEdge>& wire() const { return wire_; }
    [[nodiscard]] bool hasEdge(const UnitEdge& e) const;

    /// All lattice points touched by the wire, in lexicographic order.
    [[nodiscard]] std::vector<geom::Point> sortedWirePoints() const;
    [[nodiscard]] bool empty() const { return wire_.empty(); }

    /// The smallest rectangle holding every pin and both ends of every
    /// wire edge. Needs a pin.
    [[nodiscard]] geom::Rect bounds() const;

    /// Total wire-length (number of unit edges).
    [[nodiscard]] int wirelength() const { return static_cast<int>(wire_.size()); }

    /// The wire as a flat graph, built per call in one linear pass: the
    /// edges' `at` ends and the far ends of the horizontal and of the
    /// vertical edges are three streams already in (point, edge index)
    /// order, so merging them groups the ends by point with no sort.
    /// Topologies are shared read-only across pool tasks, so nothing is
    /// cached inside them. Queries that read only each point's degree
    /// and orientations (sortedWirePoints, bendCount, viaPoints and
    /// structure's feature nodes) walk the merged ends without building
    /// the graph.
    [[nodiscard]] WireGraph graph() const;

    /// True if the wire plus pins form one connected component covering
    /// every pin. (Single-pin topologies with no wire are connected.)
    [[nodiscard]] bool connected() const;

    /// True if connected and the wire graph is acyclic.
    [[nodiscard]] bool isTree() const;

    /// Number of bend points: lattice points where horizontal and vertical
    /// wire meet.
    [[nodiscard]] int bendCount() const;

    /// Lattice points where the route changes layer on uni-directional
    /// metal: every point with both horizontal and vertical incident wire.
    /// (Pin access stacks are counted separately by the consumers.)
    [[nodiscard]] std::vector<geom::Point> viaPoints() const;

    /// Shortest wire distance from the driver to each pin (index-aligned
    /// with pins()). Unreachable pins get -1.
    [[nodiscard]] std::vector<int> sourceToSinkDistances() const;

    /// Extract feature nodes and maximal RC segments.
    [[nodiscard]] TopoStructure structure() const;

    /// This topology's wire moved by `d`, laid over the given pins and
    /// driver (which need not be this topology's pins moved; a rigid
    /// translation passes them moved too). One pass: a translation keeps
    /// the wire's order.
    [[nodiscard]] Topology translate(geom::Point d,
                                     std::vector<geom::Point> pins,
                                     int driver) const;

    /// Order-independent hash of the wire shape (for deduping candidates).
    [[nodiscard]] std::uint64_t wireHash() const;

    friend bool operator==(const Topology& a, const Topology& b) {
        return a.pins_ == b.pins_ && a.driver_ == b.driver_ && a.wire_ == b.wire_;
    }

private:
    /// connected(), given this topology's graph().
    [[nodiscard]] bool spans(const WireGraph& g) const;

    std::vector<geom::Point> pins_;
    int driver_ = 0;
    std::vector<UnitEdge> wire_;  // sorted, duplicate free
};

}  // namespace streak::steiner
