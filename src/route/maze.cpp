#include "route/maze.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "check/assert.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "robust/fault.hpp"

namespace streak::route {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Local tallies for one route() call, flushed once on exit (any path)
/// so the search loop never touches the registry.
struct SearchTally {
    long long pops = 0;
    long long pushes = 0;
    long long windowGrowths = 0;

    ~SearchTally() {
        if (!obs::detailEnabled()) return;
        obs::Session& sess = obs::session();
        sess.counter("route/maze.pops").add(pops);
        sess.counter("route/maze.pushes").add(pushes);
        sess.counter("route/maze.window_growths").add(windowGrowths);
    }
};

/// Inclusive G-Cell rectangle the current search may expand into.
struct Window {
    int x0 = 0;
    int y0 = 0;
    int x1 = 0;
    int y1 = 0;

    [[nodiscard]] bool contains(int x, int y) const {
        return x >= x0 && x <= x1 && y >= y0 && y <= y1;
    }
};

}  // namespace

void SearchState::ensure(int numNodes) {
    if (static_cast<int>(stamp_.size()) >= numNodes) return;
    stamp_.assign(static_cast<size_t>(numNodes), 0);
    treeStamp_.assign(static_cast<size_t>(numNodes), 0);
    dist_.resize(static_cast<size_t>(numNodes));
    parent_.resize(static_cast<size_t>(numNodes));
    parentEdge_.resize(static_cast<size_t>(numNodes));
    searchEpoch_ = 0;
    netEpoch_ = 0;
}

std::optional<RoutedNet> MazeRouter::route(const std::vector<geom::Point>& pins,
                                           int driver) {
    return route(pins, driver, &scratch_);
}

std::optional<RoutedNet> MazeRouter::route(const std::vector<geom::Point>& pins,
                                           int driver, SearchState* state) {
    STREAK_FAULT_POINT("maze/search");
    SearchTally tally;
    const grid::RoutingGrid& g = usage_->grid();
    STREAK_REQUIRE(state != nullptr, "maze route called without a SearchState");
    STREAK_REQUIRE(!pins.empty(), "maze route called with no pins");
    STREAK_REQUIRE(driver >= 0 && driver < static_cast<int>(pins.size()),
                   "driver index {} outside the {} pins", driver, pins.size());
    for (const geom::Point p : pins) {
        STREAK_REQUIRE(g.contains(p),
                       "pin ({},{}) outside the {}x{} grid", p.x, p.y,
                       g.width(), g.height());
    }
    const int W = g.width();
    const int H = g.height();
    const int L = g.numLayers();
    const int numNodes = W * H * L;
    const auto nodeId = [&](int x, int y, int l) { return (l * H + y) * W + x; };
    const auto nodeX = [&](int n) { return n % W; };
    const auto nodeY = [&](int n) { return (n / W) % H; };
    const auto nodeL = [&](int n) { return n / (W * H); };

    state->ensure(numNodes);
    if (state->netEpoch_ == std::numeric_limits<int>::max()) {
        std::fill(state->treeStamp_.begin(), state->treeStamp_.end(), 0);
        state->netEpoch_ = 0;
    }
    const int netEpoch = ++state->netEpoch_;
    const auto inTree = [&](int n) {
        return state->treeStamp_[static_cast<size_t>(n)] == netEpoch;
    };
    std::vector<int>& treeNodes = state->treeNodes_;
    treeNodes.clear();
    const auto addTree = [&](int n) {
        if (!inTree(n)) {
            state->treeStamp_[static_cast<size_t>(n)] = netEpoch;
            treeNodes.push_back(n);
        }
    };

    const auto edgeCost = [&](int edge) -> double {
        if (usage_->remaining(edge) < 1) {
            if (!opts_.allowOverflow || g.capacity(edge) == 0) return kInf;
            return kOverflowCost;
        }
        const double cap = std::max(1, g.capacity(edge));
        const double ratio = static_cast<double>(usage_->usage(edge)) / cap;
        return 1.0 + opts_.congestionPenalty * ratio * ratio;
    };

    RoutedNet net;
    for (int l = 0; l < L; ++l) {
        addTree(nodeId(pins[static_cast<size_t>(driver)].x,
                       pins[static_cast<size_t>(driver)].y, l));
    }

    // Targets ordered nearest-to-driver first (greedy sequential Steiner).
    std::vector<int> order;
    for (int i = 0; i < static_cast<int>(pins.size()); ++i) {
        if (i != driver) order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        const int da = manhattan(pins[static_cast<size_t>(a)],
                                 pins[static_cast<size_t>(driver)]);
        const int db = manhattan(pins[static_cast<size_t>(b)],
                                 pins[static_cast<size_t>(driver)]);
        if (da != db) return da < db;
        return a < b;
    });

    // Admissible per-step lower bounds for the heuristic. Wire edges cost
    // 1 + congestionPenalty * ratio^2 >= 1 (kOverflowCost > 1 on overflow
    // when allowed), vias cost exactly viaCost; the guards keep the bound
    // valid for pathological option values too.
    const double wireMin = opts_.congestionPenalty < 0.0 ? 0.0 : 1.0;
    const double viaMin = std::max(0.0, opts_.viaCost);

    // Edges committed so far for this net (rolled back on failure).
    std::vector<int>& committed = state->committed_;
    committed.clear();
    const auto rollback = [&] {
        for (const int e : committed) usage_->remove(e, 1);
    };

    const auto heapAfter = [](const SearchState::HeapEntry& a,
                              const SearchState::HeapEntry& b) {
        // Min-heap on (f, g, node): deterministic pop order independent
        // of insertion order, and equal-f ties resolve smaller-g first so
        // every canonical predecessor finalizes before the sink pops.
        return std::tie(a.f, a.g, a.node) > std::tie(b.f, b.g, b.node);
    };

    for (const int target : order) {
        const geom::Point tp = pins[static_cast<size_t>(target)];
        if (inTree(nodeId(tp.x, tp.y, 0))) continue;

        const auto heur = [&](int x, int y, int l) -> double {
            const int dx = std::abs(x - tp.x);
            const int dy = std::abs(y - tp.y);
            int vias = 0;
            if (dx > 0 && dy > 0) {
                vias = 1;  // must use both directions -> one layer change
            } else if (dx > 0) {
                vias = g.layerDir(l) == grid::Dir::Horizontal ? 0 : 1;
            } else if (dy > 0) {
                vias = g.layerDir(l) == grid::Dir::Vertical ? 0 : 1;
            }
            return wireMin * (dx + dy) + viaMin * vias;
        };

        // Search window: tree bbox ∪ sink, inflated by a margin that
        // doubles until the in-window result is provably grid-optimal or
        // the clamped window spans the grid.
        int bx0 = tp.x;
        int bx1 = tp.x;
        int by0 = tp.y;
        int by1 = tp.y;
        for (const int n : treeNodes) {
            bx0 = std::min(bx0, nodeX(n));
            bx1 = std::max(bx1, nodeX(n));
            by0 = std::min(by0, nodeY(n));
            by1 = std::max(by1, nodeY(n));
        }

        long margin = std::max(1L, static_cast<long>(opts_.windowMargin));
        int reached = -1;
        for (;;) {
            const Window win{
                static_cast<int>(std::max(0L, bx0 - margin)),
                static_cast<int>(std::max(0L, by0 - margin)),
                static_cast<int>(
                    std::min(static_cast<long>(W - 1), bx1 + margin)),
                static_cast<int>(
                    std::min(static_cast<long>(H - 1), by1 + margin))};
            const bool fullGrid = win.x0 == 0 && win.y0 == 0 &&
                                  win.x1 == W - 1 && win.y1 == H - 1;

            if (state->searchEpoch_ == std::numeric_limits<int>::max()) {
                std::fill(state->stamp_.begin(), state->stamp_.end(), 0);
                state->searchEpoch_ = 0;
            }
            const int epoch = ++state->searchEpoch_;
            std::vector<SearchState::HeapEntry>& heap = state->heap_;
            heap.clear();
            // Best lower bound on any source-to-sink path the window cut
            // off; the in-window result is exact iff it beats this.
            double minPrunedF = kInf;

            // Seed only the tree nodes inside the window (always the full
            // tree on the full-grid pass); pruned seeds still count into
            // the bound so a too-small window can never flip an outcome.
            for (const int n : treeNodes) {
                const int x = nodeX(n);
                const int y = nodeY(n);
                if (!win.contains(x, y)) {
                    minPrunedF = std::min(minPrunedF, heur(x, y, nodeL(n)));
                    continue;
                }
                state->stamp_[static_cast<size_t>(n)] = epoch;
                state->dist_[static_cast<size_t>(n)] = 0.0;
                state->parent_[static_cast<size_t>(n)] = -1;
                state->parentEdge_[static_cast<size_t>(n)] = -1;
                heap.push_back({heur(x, y, nodeL(n)), 0.0, n});
                std::push_heap(heap.begin(), heap.end(), heapAfter);
                ++tally.pushes;
            }

            reached = -1;
            double reachedCost = kInf;
            while (!heap.empty()) {
                std::pop_heap(heap.begin(), heap.end(), heapAfter);
                const SearchState::HeapEntry top = heap.back();
                heap.pop_back();
                ++tally.pops;
                if (top.g > state->dist_[static_cast<size_t>(top.node)]) {
                    continue;  // stale duplicate
                }
                const int x = nodeX(top.node);
                const int y = nodeY(top.node);
                const int l = nodeL(top.node);
                if (x == tp.x && y == tp.y) {
                    reached = top.node;
                    reachedCost = top.g;
                    break;
                }
                const auto relax = [&](int nn, int nx, int ny, double cost,
                                       int viaEdge) {
                    const double nd = top.g + cost;
                    if (!win.contains(nx, ny)) {
                        // f = g + h of the node the window cut off: a
                        // lower bound on finishing through it.
                        minPrunedF =
                            std::min(minPrunedF, nd + heur(nx, ny, nodeL(nn)));
                        return;
                    }
                    const size_t sn = static_cast<size_t>(nn);
                    if (state->stamp_[sn] != epoch) {
                        state->stamp_[sn] = epoch;
                        state->dist_[sn] = kInf;
                        state->parent_[sn] = -1;
                        state->parentEdge_[sn] = -1;
                    }
                    if (nd < state->dist_[sn]) {
                        state->dist_[sn] = nd;
                        state->parent_[sn] = top.node;
                        state->parentEdge_[sn] = viaEdge;
                        heap.push_back({nd + heur(nx, ny, nodeL(nn)), nd, nn});
                        std::push_heap(heap.begin(), heap.end(), heapAfter);
                        ++tally.pushes;
                    } else if (nd == state->dist_[sn] && cost > 0.0 &&
                               top.node < state->parent_[sn]) {
                        // Canonical equal-cost parent: the smallest
                        // predecessor id wins, making the routed tree a
                        // pure function of the distance field — identical
                        // for A*/Dijkstra and windowed/full searches.
                        // (Skipped for zero-cost moves, where the rule
                        // could orient a tie both ways.)
                        state->parent_[sn] = top.node;
                        state->parentEdge_[sn] = viaEdge;
                    }
                };
                // Wire moves along the layer's direction.
                if (g.layerDir(l) == grid::Dir::Horizontal) {
                    if (x + 1 < W) {
                        const int e = g.edgeId(l, x, y);
                        const double c = edgeCost(e);
                        if (c < kInf) relax(nodeId(x + 1, y, l), x + 1, y, c, e);
                    }
                    if (x > 0) {
                        const int e = g.edgeId(l, x - 1, y);
                        const double c = edgeCost(e);
                        if (c < kInf) relax(nodeId(x - 1, y, l), x - 1, y, c, e);
                    }
                } else {
                    if (y + 1 < H) {
                        const int e = g.edgeId(l, x, y);
                        const double c = edgeCost(e);
                        if (c < kInf) relax(nodeId(x, y + 1, l), x, y + 1, c, e);
                    }
                    if (y > 0) {
                        const int e = g.edgeId(l, x, y - 1);
                        const double c = edgeCost(e);
                        if (c < kInf) relax(nodeId(x, y - 1, l), x, y - 1, c, e);
                    }
                }
                // Via moves (stay inside the column, hence the window).
                if (l + 1 < L) {
                    relax(nodeId(x, y, l + 1), x, y, opts_.viaCost, -1);
                }
                if (l > 0) relax(nodeId(x, y, l - 1), x, y, opts_.viaCost, -1);
            }

            if (fullGrid) break;  // exact by construction
            if (reached >= 0 && reachedCost < minPrunedF) break;  // proven
            if (reached < 0 && minPrunedF == kInf) {
                break;  // nothing was pruned: unreachable on the full grid
            }
            ++tally.windowGrowths;
            margin *= 2;
        }

        if (reached < 0) {
            rollback();
            return std::nullopt;
        }
        // Trace back, commit edges, extend the tree.
        int n = reached;
        while (state->parent_[static_cast<size_t>(n)] >= 0 && !inTree(n)) {
            const int e = state->parentEdge_[static_cast<size_t>(n)];
            if (e >= 0) {
                usage_->add(e, 1);
                committed.push_back(e);
                net.edges.push_back(e);
                ++net.wirelength2d;
            } else {
                ++net.viaCount;
            }
            addTree(n);
            n = state->parent_[static_cast<size_t>(n)];
        }
        // Make the whole target column part of the tree so later sinks can
        // tap the net at any layer of this pin.
        for (int l = 0; l < L; ++l) addTree(nodeId(tp.x, tp.y, l));
    }
    return net;
}

}  // namespace streak::route
