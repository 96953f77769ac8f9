#include "post/refine.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/candidate.hpp"
#include "geom/rect.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "robust/fault.hpp"

namespace streak::post {

namespace {

/// The straight connection feeding a leaf pin: the maximal run of wire
/// from the pin to the first feature node (bend / junction / other pin).
struct Connection {
    geom::Point start;  // feature-node end (sp in Alg. 4)
    geom::Point end;    // the violating pin (ep)
    bool horizontal = true;
    bool found = false;
};

Connection findTerminalConnection(const steiner::Topology& topo,
                                  geom::Point pin) {
    Connection conn;
    const steiner::TopoStructure st = topo.structure();
    int pinNode = -1;
    for (size_t i = 0; i < st.nodes.size(); ++i) {
        if (st.nodes[i].pt == pin) {
            pinNode = static_cast<int>(i);
            break;
        }
    }
    if (pinNode < 0) return conn;
    if (st.nodes[static_cast<size_t>(pinNode)].degree != 1) return conn;
    for (const auto& [u, v] : st.rcs) {
        if (u != pinNode && v != pinNode) continue;
        const int other = u == pinNode ? v : u;
        conn.start = st.nodes[static_cast<size_t>(other)].pt;
        conn.end = pin;
        conn.horizontal = conn.start.y == conn.end.y;
        conn.found = conn.start != conn.end;
        return conn;
    }
    return conn;
}

/// Detour plan: replace start-end with start -> a -> b -> end where the
/// middle run is the original connection shifted by `shift` perpendicular
/// units; adds exactly 2*shift wire-length.
struct Detour {
    geom::Segment leg1, mid, leg2;
    geom::Segment removed;
};

Detour makeDetour(const Connection& conn, int shift, bool positive) {
    const int d = positive ? shift : -shift;
    Detour det;
    det.removed = {conn.start, conn.end};
    if (conn.horizontal) {
        const geom::Point a{conn.start.x, conn.start.y + d};
        const geom::Point b{conn.end.x, conn.end.y + d};
        det.leg1 = {conn.start, a};
        det.mid = {a, b};
        det.leg2 = {b, conn.end};
    } else {
        const geom::Point a{conn.start.x + d, conn.start.y};
        const geom::Point b{conn.end.x + d, conn.end.y};
        det.leg1 = {conn.start, a};
        det.mid = {a, b};
        det.leg2 = {b, conn.end};
    }
    return det;
}

/// All lattice points strictly inside the detour (excluding its anchor
/// endpoints start / end).
std::vector<geom::Point> detourInteriorPoints(const Detour& det) {
    std::vector<geom::Point> pts;
    const auto addPoints = [&](const geom::Segment& s) {
        const geom::Segment c = s.canonical();
        if (c.horizontal()) {
            for (int x = c.a.x; x <= c.b.x; ++x) pts.push_back({x, c.a.y});
        } else {
            for (int y = c.a.y; y <= c.b.y; ++y) pts.push_back({c.a.x, y});
        }
    };
    addPoints(det.leg1);
    addPoints(det.mid);
    addPoints(det.leg2);
    std::erase(pts, det.removed.a);
    std::erase(pts, det.removed.b);
    return pts;
}

/// Capacity + overlap legality of a detour for a bit on (hLayer, vLayer),
/// assuming the removed connection's usage has NOT been released yet (the
/// new wire never reuses the removed run, so this is conservative only
/// about unrelated edges).
bool detourLegal(const RoutedDesign& routed, const steiner::Topology& topo,
                 const Detour& det, int hLayer, int vLayer) {
    const grid::RoutingGrid& grid = routed.usage.grid();
    // Grid bounds and capacity for each new unit edge.
    for (const geom::Segment* seg : {&det.leg1, &det.mid, &det.leg2}) {
        if (seg->degenerate()) continue;
        const int layer = seg->horizontal() ? hLayer : vLayer;
        const geom::Segment c = seg->canonical();
        if (!grid.contains(c.a) || !grid.contains(c.b)) return false;
        if (c.horizontal()) {
            for (int x = c.a.x; x < c.b.x; ++x) {
                if (!grid.validEdge(layer, x, c.a.y) ||
                    routed.usage.remaining(grid.edgeId(layer, x, c.a.y)) < 1) {
                    return false;
                }
            }
        } else {
            for (int y = c.a.y; y < c.b.y; ++y) {
                if (!grid.validEdge(layer, c.a.x, y) ||
                    routed.usage.remaining(grid.edgeId(layer, c.a.x, y)) < 1) {
                    return false;
                }
            }
        }
    }
    // The detour must not touch the bit's own wire anywhere except at its
    // anchor points, or the tree gains cycles / the path shortens.
    const std::vector<geom::Point> own = topo.sortedWirePoints();
    for (const geom::Point p : detourInteriorPoints(det)) {
        if (std::binary_search(own.begin(), own.end(), p)) return false;
    }
    // Pin-access model: the detour adds layer-change points; the increase
    // per cell must fit the remaining via slots.
    if (grid.viaLimited()) {
        steiner::Topology tentative = topo;
        tentative.removeSegment(det.removed);
        for (const geom::Segment* seg : {&det.leg1, &det.mid, &det.leg2}) {
            if (!seg->degenerate()) tentative.addSegment(*seg);
        }
        std::map<int, int> delta;
        for (const auto& [cell, n] : computeViaUse(grid, tentative)) {
            delta[cell] += n;
        }
        for (const auto& [cell, n] : computeViaUse(grid, topo)) {
            delta[cell] -= n;
        }
        for (const auto& [cell, d] : delta) {
            if (d > 0 && routed.usage.viaRemaining(cell) < d) return false;
        }
    }
    return true;
}

void applyDetour(RoutedDesign* routed, RoutedBit* bit, const Detour& det) {
    const grid::RoutingGrid& grid = routed->usage.grid();
    const auto viasBefore =
        grid.viaLimited() ? computeViaUse(grid, bit->topo)
                          : std::vector<std::pair<int, int>>{};
    // Release the removed straight run.
    const int removedLayer =
        det.removed.horizontal() ? bit->hLayer : bit->vLayer;
    for (const int e : grid.edgesOnSegment(det.removed, removedLayer)) {
        routed->usage.remove(e, 1);
    }
    bit->topo.removeSegment(det.removed);
    // Commit the three detour legs.
    for (const geom::Segment* seg : {&det.leg1, &det.mid, &det.leg2}) {
        if (seg->degenerate()) continue;
        const int layer = seg->horizontal() ? bit->hLayer : bit->vLayer;
        for (const int e : grid.edgesOnSegment(*seg, layer)) {
            routed->usage.add(e, 1);
        }
        bit->topo.addSegment(*seg);
    }
    if (grid.viaLimited()) {
        std::map<int, int> delta;
        for (const auto& [cell, n] : computeViaUse(grid, bit->topo)) {
            delta[cell] += n;
        }
        for (const auto& [cell, n] : viasBefore) delta[cell] -= n;
        for (const auto& [cell, d] : delta) {
            if (d > 0) routed->usage.addVias(cell, d);
            else if (d < 0) routed->usage.removeVias(cell, -d);
        }
    }
}

/// Per-group tallies of the detour pass, merged in group order.
struct GroupRefineOutcome {
    int pinsConsidered = 0;
    int pinsFixed = 0;
    long addedWirelength = 0;
};

/// Run Alg. 4 on one group's violations (identical to the sequential
/// inner loop; mutates only this group's bits and grid cells inside the
/// group's search region).
GroupRefineOutcome refineGroup(const StreakOptions& opts,
                               const GroupDistanceReport& rep,
                               RoutedDesign* routed) {
    GroupRefineOutcome out;
    for (const PinDeviation& dev : rep.violations) {
        ++out.pinsConsidered;
        RoutedBit& bit = routed->bits[static_cast<size_t>(dev.routedBitIndex)];
        const geom::Point pin =
            bit.topo.pins()[static_cast<size_t>(dev.pinIndex)];
        const Connection conn = findTerminalConnection(bit.topo, pin);
        if (!conn.found) continue;

        // A shift of s adds 2*s wire. Aim at matching the family's
        // target distance (dst' = familyMax); fall back towards the
        // minimum shift that still clears the threshold.
        const int deficit = dev.familyMax - dev.distance;
        const int sIdeal = std::min(opts.maxDetourShift, (deficit + 1) / 2);
        const int sMin = std::max(1, (deficit - rep.threshold + 1) / 2);
        if (sMin > opts.maxDetourShift) continue;

        bool fixed = false;
        for (int s = sIdeal; s >= sMin && !fixed; --s) {
            for (const bool positive : {true, false}) {
                const Detour det = makeDetour(conn, s, positive);
                if (detourLegal(*routed, bit.topo, det, bit.hLayer,
                                bit.vLayer)) {
                    applyDetour(routed, &bit, det);
                    out.addedWirelength += 2L * s;
                    fixed = true;
                    break;
                }
            }
        }
        if (fixed) ++out.pinsFixed;
    }
    return out;
}

/// Conservative G-Cell region a group's detour pass may read or write:
/// the bounding box of every violating bit's topology, expanded by the
/// maximum total shift its detours can accumulate. Everything Alg. 4
/// touches for the group — candidate detour edges, released runs, via
/// cells — has both endpoints inside these rectangles.
std::vector<geom::Rect> groupSearchRegion(const StreakOptions& opts,
                                          const GroupDistanceReport& rep,
                                          const RoutedDesign& routed) {
    std::map<int, int> violationsOfBit;
    for (const PinDeviation& dev : rep.violations) {
        ++violationsOfBit[dev.routedBitIndex];
    }
    std::vector<geom::Rect> rects;
    rects.reserve(violationsOfBit.size());
    for (const auto& [bitIndex, count] : violationsOfBit) {
        const RoutedBit& bit = routed.bits[static_cast<size_t>(bitIndex)];
        const std::vector<geom::Point>& pins = bit.topo.pins();
        if (pins.empty()) continue;
        geom::Rect box{pins.front(), pins.front()};
        for (const geom::Point p : pins) box.expand(p);
        for (const steiner::UnitEdge& e : bit.topo.wire()) {
            box.expand(e.at);
            box.expand(e.other());
        }
        // Each violation applies at most one detour of shift
        // <= maxDetourShift, and a later connection may sit on wire a
        // previous detour already displaced — so the reachable region
        // grows by one shift per violation of the bit.
        const int margin = opts.maxDetourShift * count;
        box.lo.x -= margin;
        box.lo.y -= margin;
        box.hi.x += margin;
        box.hi.y += margin;
        rects.push_back(box);
    }
    return rects;
}

bool regionsOverlap(const std::vector<geom::Rect>& a,
                    const std::vector<geom::Rect>& b) {
    for (const geom::Rect& ra : a) {
        for (const geom::Rect& rb : b) {
            if (ra.overlaps(rb)) return true;
        }
    }
    return false;
}

}  // namespace

RefinementResult refineDistances(
    const RoutingProblem& prob, RoutedDesign* routed,
    const std::vector<GroupDistanceReport>* baseline,
    const std::vector<char>* changed) {
    STREAK_SPAN("post/refine");
    STREAK_FAULT_POINT("post/refine");
    const StreakOptions& opts = prob.opts;
    RefinementResult result;

    // Lines 1-4: locate violating bits/pins and their targets.
    const std::vector<GroupDistanceReport> before = analyzeDistances(
        prob, *routed, opts.distanceThresholdFraction, nullptr,
        &result.parallelStats, baseline, changed);
    result.violatingGroupsBefore = countViolatingGroups(before);
    result.thresholds.assign(before.size(), -1);
    for (const GroupDistanceReport& r : before) {
        result.thresholds[static_cast<size_t>(r.groupIndex)] = r.threshold;
    }

    // Wave schedule over the violating groups: a group may run once every
    // earlier (lower-index) group whose search region overlaps its own
    // has finished. Same-wave groups touch disjoint G-Cells, so their
    // capacity checks and usage updates cannot interact — the outcome
    // matches the sequential group order exactly, for any thread count.
    struct Task {
        const GroupDistanceReport* rep = nullptr;
        std::vector<geom::Rect> region;
        int wave = 0;
    };
    std::vector<Task> tasks;
    for (const GroupDistanceReport& rep : before) {
        if (rep.violations.empty()) continue;
        Task t;
        t.rep = &rep;
        t.region = groupSearchRegion(opts, rep, *routed);
        for (const Task& prior : tasks) {
            if (t.wave <= prior.wave &&
                regionsOverlap(t.region, prior.region)) {
                t.wave = prior.wave + 1;
            }
        }
        tasks.push_back(std::move(t));
    }
    int waves = 0;
    for (const Task& t : tasks) waves = std::max(waves, t.wave + 1);

    parallel::ThreadPool pool(parallel::resolveThreads(opts.threads));
    pool.setControl(opts.control);
    std::vector<GroupRefineOutcome> outcomes(tasks.size());
    const bool detail = obs::detailEnabled();
    for (int wave = 0; wave < waves; ++wave) {
        // Tick point: one poll per wave (a wave is a full parallel
        // region of per-group detour searches).
        opts.control.checkpoint("refine/wave");
        std::vector<int> members;
        for (size_t t = 0; t < tasks.size(); ++t) {
            if (tasks[t].wave == wave) members.push_back(static_cast<int>(t));
        }
        if (detail) {
            // Wave sizes expose how much independence the overlap
            // scheduler found — the Fig. 13 scalability ceiling.
            obs::session()
                .histogram("post/refine.wave_size", {1, 2, 4, 8, 16, 32})
                .record(static_cast<long long>(members.size()));
        }
        pool.parallelFor(static_cast<int>(members.size()), [&](int k) {
            const int t = members[static_cast<size_t>(k)];
            outcomes[static_cast<size_t>(t)] =
                refineGroup(opts, *tasks[static_cast<size_t>(t)].rep, routed);
        });
    }
    for (const GroupRefineOutcome& out : outcomes) {
        result.pinsConsidered += out.pinsConsidered;
        result.pinsFixed += out.pinsFixed;
        result.addedWirelength += out.addedWirelength;
    }
    result.parallelStats.merge(pool.stats());
    if (detail) {
        obs::Session& sess = obs::session();
        sess.counter("post/refine.waves").add(waves);
        sess.counter("post/refine.pins_considered").add(result.pinsConsidered);
        sess.counter("post/refine.pins_fixed").add(result.pinsFixed);
        sess.counter("post/refine.added_wirelength")
            .add(result.addedWirelength);
    }

    // Only the refined groups' wires moved; every other group keeps its
    // report under the same threshold.
    std::vector<char> refined(before.size(), 0);
    for (const Task& t : tasks) {
        refined[static_cast<size_t>(t.rep->groupIndex)] = 1;
    }
    const std::vector<GroupDistanceReport> after = analyzeDistances(
        prob, *routed, opts.distanceThresholdFraction, &result.thresholds,
        &result.parallelStats, &before, &refined);
    result.violatingGroupsAfter = countViolatingGroups(after);
    result.groupViolatingAfter.assign(after.size(), 0);
    for (const GroupDistanceReport& r : after) {
        result.groupViolatingAfter[static_cast<size_t>(r.groupIndex)] =
            r.violating() ? 1 : 0;
    }
    return result;
}

}  // namespace streak::post
