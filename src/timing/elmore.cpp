#include "timing/elmore.hpp"

namespace streak::timing {

namespace {

struct Node {
    int at = -1;          // wire point index; -1 for a driver off the wire
    int parent = -1;      // index into nodes; -1 at the root
    double ownCap = 0.0;  // lumped capacitance at the point itself
    double edgeRes = 0.0; // resistance of the wire from the parent
    double edgeCap = 0.0; // capacitance of the wire from the parent
    double subtreeCap = 0.0;
    double delay = 0.0;
};

}  // namespace

std::vector<double> elmoreDelays(const steiner::Topology& topo,
                                 const ElmoreParameters& params) {
    std::vector<double> out(topo.pins().size(), -1.0);

    // The BFS node numbering (and with it the floating-point accumulation
    // order of subtree capacitances) follows the graph's neighbour order,
    // which is the sorted-edge order on every toolchain.
    const steiner::WireGraph g = topo.graph();
    const geom::Point root = topo.driverPin();
    const int rootAt = g.indexOf(root);

    // Lumped capacitance at lattice points: via RC at layer-change points,
    // sink loads at pins.
    std::vector<double> pointCap(static_cast<size_t>(g.size()), 0.0);
    for (int p = 0; p < g.size(); ++p) {
        if (g.isVia(p)) pointCap[static_cast<size_t>(p)] += params.viaCapacitance;
    }
    double offWireRootCap = 0.0;
    for (size_t i = 0; i < topo.pins().size(); ++i) {
        if (static_cast<int>(i) == topo.driverIndex()) continue;
        const int p = g.indexOf(topo.pins()[i]);
        if (p >= 0) {
            pointCap[static_cast<size_t>(p)] += params.sinkLoad;
        } else if (topo.pins()[i] == root) {
            offWireRootCap += params.sinkLoad;
        }
    }

    // BFS tree from the driver over unit edges.
    std::vector<Node> nodes;
    std::vector<int> nodeOf(static_cast<size_t>(g.size()), -1);
    Node rootNode;
    rootNode.at = rootAt;
    rootNode.ownCap =
        rootAt < 0 ? offWireRootCap : pointCap[static_cast<size_t>(rootAt)];
    nodes.push_back(rootNode);
    if (rootAt >= 0) nodeOf[static_cast<size_t>(rootAt)] = 0;
    for (size_t cur = 0; cur < nodes.size(); ++cur) {
        const int at = nodes[cur].at;
        if (at < 0) continue;
        for (const int q : g.neighbours(at)) {
            if (nodeOf[static_cast<size_t>(q)] >= 0) continue;
            Node child;
            child.at = q;
            child.parent = static_cast<int>(cur);
            child.ownCap = pointCap[static_cast<size_t>(q)];
            child.edgeRes = params.wireResistance;
            child.edgeCap = params.wireCapacitance;
            // Series via resistance lumps into the edge entering the point.
            if (g.isVia(q)) child.edgeRes += params.viaResistance;
            nodeOf[static_cast<size_t>(q)] = static_cast<int>(nodes.size());
            nodes.push_back(child);
        }
    }

    // Pass 1 (leaves to root): subtree capacitance.
    for (size_t i = nodes.size(); i-- > 0;) {
        Node& n = nodes[i];
        n.subtreeCap += n.ownCap + n.edgeCap / 2.0;
        if (n.parent >= 0) {
            nodes[static_cast<size_t>(n.parent)].subtreeCap +=
                n.subtreeCap + n.edgeCap / 2.0;
        }
    }
    // Pass 2 (root to children; BFS order == index order): delays. With
    // the pi wire model each edge's resistance charges exactly the cap at
    // and below its child node (the child-side half of the edge is already
    // inside subtreeCap; the source-side half hangs before the resistor).
    nodes[0].delay = params.driverResistance * nodes[0].subtreeCap;
    for (size_t i = 1; i < nodes.size(); ++i) {
        Node& n = nodes[i];
        n.delay = nodes[static_cast<size_t>(n.parent)].delay +
                  n.edgeRes * n.subtreeCap;
    }

    for (size_t i = 0; i < topo.pins().size(); ++i) {
        const int p = g.indexOf(topo.pins()[i]);
        const int node = p < 0 ? -1 : nodeOf[static_cast<size_t>(p)];
        if (node >= 0) {
            out[i] = nodes[static_cast<size_t>(node)].delay;
        } else if (topo.pins()[i] == root) {
            out[i] = nodes[0].delay;
        }
    }
    return out;
}

double sinkSkew(const steiner::Topology& topo,
                const ElmoreParameters& params) {
    const std::vector<double> delays = elmoreDelays(topo, params);
    double lo = -1.0;
    double hi = -1.0;
    for (size_t i = 0; i < delays.size(); ++i) {
        if (static_cast<int>(i) == topo.driverIndex()) continue;
        if (delays[i] < 0.0) continue;
        if (lo < 0.0 || delays[i] < lo) lo = delays[i];
        if (delays[i] > hi) hi = delays[i];
    }
    return hi < 0.0 ? 0.0 : hi - lo;
}

}  // namespace streak::timing
