#include "route/sequential.hpp"

#include "check/assert.hpp"
#include "obs/trace.hpp"
#include "steiner/rsmt.hpp"

namespace streak::route {

namespace {

/// Try to place a Steiner topology directly onto a pair of layers (the
/// hand-routing style: straight trunks on neighbouring layers). Returns
/// true and commits usage on success.
bool patternRoute(const Design& design, grid::EdgeUsage* usage,
                  const steiner::Topology& topo, long* wirelength,
                  long* viaCount) {
    const grid::RoutingGrid& g = design.grid;
    for (const int h : g.layersOf(grid::Dir::Horizontal)) {
        for (const int v : g.layersOf(grid::Dir::Vertical)) {
            bool fits = true;
            for (const steiner::UnitEdge& e : topo.wire()) {
                const int layer = e.horizontal ? h : v;
                if (!g.validEdge(layer, e.at.x, e.at.y) ||
                    usage->remaining(g.edgeId(layer, e.at.x, e.at.y)) < 1) {
                    fits = false;
                    break;
                }
            }
            if (!fits) continue;
            for (const steiner::UnitEdge& e : topo.wire()) {
                const int layer = e.horizontal ? h : v;
                usage->add(g.edgeId(layer, e.at.x, e.at.y), 1);
            }
            *wirelength += topo.wirelength();
            *viaCount += topo.bendCount() +
                         static_cast<long>(topo.pins().size());
            return true;
        }
    }
    return false;
}

}  // namespace

SequentialResult routeSequential(const Design& design,
                                 const MazeOptions& opts, bool mazeOnly) {
    const obs::Stopwatch watch;
    SequentialResult result(design.grid);
    MazeRouter router(&result.usage, opts);
    // One epoch-stamped scratch for every net in the pass: label arrays
    // are allocated once and invalidated by epoch bump, not re-filled.
    // (Workers in a future parallel pass would each own one.)
    SearchState scratch;

    for (const SignalGroup& group : design.groups) {
        for (const Bit& bit : group.bits) {
            ++result.totalBits;
            // Min-wire-length pattern route first (what a designer draws:
            // the best Steiner tree on free tracks), maze as fallback.
            if (!mazeOnly) {
                steiner::EnumerateOptions eopts;
                eopts.maxCandidates = 3;
                const auto candidates =
                    steiner::enumerateTopologies(bit.pins, bit.driver, eopts);
                bool placed = false;
                for (const steiner::Topology& t : candidates) {
                    if (patternRoute(design, &result.usage, t,
                                     &result.wirelength, &result.viaCount)) {
                        placed = true;
                        break;
                    }
                }
                if (placed) {
                    ++result.routedBits;
                    continue;
                }
            }
            const auto net = router.route(bit.pins, bit.driver, &scratch);
            if (net) {
                ++result.routedBits;
                result.wirelength += net->wirelength2d;
                result.viaCount += net->viaCount;
            } else {
                // Whole-design wire-length view: estimate with an RSMT,
                // matching how the Streak metrics count unrouted bits.
                steiner::EnumerateOptions eopts;
                eopts.maxCandidates = 1;
                const auto topos =
                    steiner::enumerateTopologies(bit.pins, bit.driver, eopts);
                if (!topos.empty()) {
                    result.wirelength += topos.front().wirelength();
                }
            }
        }
    }
    result.seconds = watch.seconds();
    STREAK_ASSERT(result.routedBits <= result.totalBits,
                  "routed {} of {} bits", result.routedBits, result.totalBits);
    // Unless overflow is an explicitly modelled hand-design behaviour,
    // the committed usage must respect every track capacity.
    STREAK_INVARIANT(opts.allowOverflow || result.usage.totalOverflow() == 0,
                     "sequential router overflowed {} tracks across {} edges",
                     result.usage.totalOverflow(),
                     result.usage.overflowedEdges());
    return result;
}

}  // namespace streak::route
