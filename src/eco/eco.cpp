#include "eco/eco.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>

#include "core/candidate.hpp"
#include "flow/report.hpp"
#include "robust/error.hpp"

namespace streak::eco {

namespace {

/// Sentinel "window" of a group with no pins: overlaps nothing (lo > hi
/// fails every overlap test against in-grid rectangles).
constexpr geom::Rect kEmptyWindow{{0, 0}, {-1, -1}};

[[nodiscard]] bool windowEmpty(const geom::Rect& r) {
    return r.lo.x > r.hi.x || r.lo.y > r.hi.y;
}

[[nodiscard]] geom::Rect unionWindows(const geom::Rect& a,
                                      const geom::Rect& b) {
    if (windowEmpty(a)) return b;
    if (windowEmpty(b)) return a;
    return {{std::min(a.lo.x, b.lo.x), std::min(a.lo.y, b.lo.y)},
            {std::max(a.hi.x, b.hi.x), std::max(a.hi.y, b.hi.y)}};
}

[[nodiscard]] bool bitsEqual(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Per-group cluster partition: each cluster as its sorted bit indices,
/// clusters sorted for set comparison. Raw cluster keys are run-local
/// (the solver uses object indices, post clustering assigns fresh ones),
/// so equivalence is over the partition, not the key values.
[[nodiscard]] std::map<int, std::vector<std::vector<int>>> clusterPartition(
    const std::vector<RoutedBit>& bits) {
    std::map<int, std::map<int, std::vector<int>>> byKey;
    for (const RoutedBit& b : bits) {
        byKey[b.groupIndex][b.clusterKey].push_back(b.bitIndex);
    }
    std::map<int, std::vector<std::vector<int>>> out;
    for (auto& [group, clusters] : byKey) {
        std::vector<std::vector<int>>& list = out[group];
        for (auto& [key, members] : clusters) {
            std::sort(members.begin(), members.end());
            list.push_back(std::move(members));
        }
        std::sort(list.begin(), list.end());
    }
    return out;
}

[[nodiscard]] std::vector<std::pair<int, int>> coldUnroutedBits(
    const StreakResult& cold) {
    std::vector<std::pair<int, int>> out;
    out.reserve(cold.routed.unroutedMembers.size());
    for (const auto& [objIdx, member] : cold.routed.unroutedMembers) {
        const RoutingObject& obj =
            cold.problem.objects[static_cast<size_t>(objIdx)];
        out.emplace_back(obj.groupIndex,
                         obj.bitIndices[static_cast<size_t>(member)]);
    }
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace

geom::Rect groupWindow(const Design& design, int groupIndex,
                       const StreakOptions& opts) {
    const SignalGroup& group =
        design.groups[static_cast<size_t>(groupIndex)];
    geom::Rect window = kEmptyWindow;
    int maxPins = 0;
    bool first = true;
    for (const Bit& bit : group.bits) {
        maxPins = std::max(maxPins, bit.numPins());
        for (const geom::Point p : bit.pins) {
            if (first) {
                window = {p, p};
                first = false;
            } else {
                window.expand(p);
            }
        }
    }
    if (first) return kEmptyWindow;
    // Backbones, equivalent topologies and clustering candidates never
    // leave the pin bounding box (Hanan-grid construction); only the
    // refinement stage's twisting detours can, by at most maxDetourShift
    // per violating sink, with at most numPins - 1 sinks per bit.
    int margin = 0;
    if (opts.postOptimize && opts.refinementEnabled) {
        margin = opts.maxDetourShift * std::max(0, maxPins - 1);
    }
    window.lo.x = std::max(0, window.lo.x - margin);
    window.lo.y = std::max(0, window.lo.y - margin);
    window.hi.x = std::min(design.grid.width() - 1, window.hi.x + margin);
    window.hi.y = std::min(design.grid.height() - 1, window.hi.y + margin);
    return window;
}

std::vector<int> affectedGroups(const Design& before, const Design& after,
                                const StreakOptions& opts,
                                const std::vector<Delta>& deltas) {
    const int n = after.numGroups();
    std::vector<geom::Rect> window(static_cast<size_t>(n));
    for (int g = 0; g < n; ++g) {
        window[static_cast<size_t>(g)] = groupWindow(after, g, opts);
    }
    std::vector<char> moved(static_cast<size_t>(n), 0);
    std::vector<geom::Rect> dirty;
    dirty.reserve(deltas.size());
    for (const Delta& d : deltas) {
        dirty.push_back(dirtyRect(d, before));
        if (d.kind == DeltaKind::MovePin) {
            moved[static_cast<size_t>(d.group)] = 1;
            // The carried-over routing of a moved group lives inside its
            // pre-move window; be conservative and use the union.
            window[static_cast<size_t>(d.group)] =
                unionWindows(window[static_cast<size_t>(d.group)],
                             groupWindow(before, d.group, opts));
        }
    }

    std::vector<char> inClosure(static_cast<size_t>(n), 0);
    for (int g = 0; g < n; ++g) {
        if (moved[static_cast<size_t>(g)] != 0) {
            inClosure[static_cast<size_t>(g)] = 1;
            continue;
        }
        if (windowEmpty(window[static_cast<size_t>(g)])) continue;
        for (const geom::Rect& r : dirty) {
            if (!windowEmpty(r) && window[static_cast<size_t>(g)].overlaps(r)) {
                inClosure[static_cast<size_t>(g)] = 1;
                break;
            }
        }
    }
    // Fixpoint: a clean group whose window overlaps a dirty group's
    // window shares capacity with it and must be re-solved too.
    bool changed = true;
    while (changed) {
        changed = false;
        for (int u = 0; u < n; ++u) {
            if (inClosure[static_cast<size_t>(u)] != 0 ||
                windowEmpty(window[static_cast<size_t>(u)])) {
                continue;
            }
            for (int c = 0; c < n; ++c) {
                if (inClosure[static_cast<size_t>(c)] == 0 ||
                    windowEmpty(window[static_cast<size_t>(c)])) {
                    continue;
                }
                if (window[static_cast<size_t>(u)].overlaps(
                        window[static_cast<size_t>(c)])) {
                    inClosure[static_cast<size_t>(u)] = 1;
                    changed = true;
                    break;
                }
            }
        }
    }
    std::vector<int> out;
    for (int g = 0; g < n; ++g) {
        if (inClosure[static_cast<size_t>(g)] != 0) out.push_back(g);
    }
    return out;
}

EcoResult runEco(const Checkpoint& ckpt, const std::vector<Delta>& deltas,
                 int threadsOverride) {
    EcoResult r;
    r.design = std::make_unique<Design>(*ckpt.design);
    for (const Delta& d : deltas) applyDelta(r.design.get(), d);
    r.totalGroups = r.design->numGroups();
    r.resolvedGroups =
        affectedGroups(*ckpt.design, *r.design, ckpt.opts, deltas);

    StreakOptions opts = ckpt.opts;
    if (threadsOverride >= 0) opts.threads = threadsOverride;

    // Sub-design index of each resolved group (-1 = carried).
    std::vector<int> subIndex(static_cast<size_t>(r.totalGroups), -1);
    if (!r.resolvedGroups.empty()) {
        r.subDesign = std::make_unique<Design>(
            Design{r.design->name + "#eco", r.design->grid, {}});
        for (const int g : r.resolvedGroups) {
            subIndex[static_cast<size_t>(g)] =
                static_cast<int>(r.subDesign->groups.size());
            r.subDesign->groups.push_back(
                r.design->groups[static_cast<size_t>(g)]);
        }
        FlowResult flow = runStreak(*r.subDesign, opts);
        if (!flow.ok()) robust::raise(flow.error());
        r.sub = std::make_unique<StreakResult>(std::move(flow).value());
        r.degradations = r.sub->degradations;
        r.threadsUsed = r.sub->threadsUsed;
        r.pdIterations = r.sub->pdIterations;
        r.hitTimeLimit = r.sub->hitTimeLimit;
    }

    // Stitch: carried groups verbatim from the checkpoint, resolved
    // groups from the sub-run with group indices rewritten to global.
    // Within-group bit order is preserved on both paths — the metrics
    // cluster representatives depend on it.
    r.routed = std::make_unique<RoutedDesign>(r.design->grid);
    for (int g = 0; g < r.totalGroups; ++g) {
        const int sub = subIndex[static_cast<size_t>(g)];
        if (sub < 0) {
            for (const RoutedBit& b : ckpt.bits) {
                if (b.groupIndex == g) r.routed->bits.push_back(b);
            }
        } else {
            for (const RoutedBit& b : r.sub->routed.bits) {
                if (b.groupIndex != sub) continue;
                RoutedBit copy = b;
                copy.groupIndex = g;
                r.routed->bits.push_back(std::move(copy));
            }
        }
    }
    // Usage: the resolved groups' demand as their re-route left it (via
    // slots only where the grid limits them), plus each carried bit's.
    const grid::RoutingGrid& grid = r.design->grid;
    if (r.sub != nullptr) {
        const auto& resolved = r.sub->routed.usage;
        for (int e = 0; e < grid.numEdges(); ++e) {
            r.routed->usage.add(e, resolved.usage(e));
        }
        if (grid.viaLimited()) {
            for (int cell = 0; cell < grid.numCells(); ++cell) {
                r.routed->usage.addVias(cell, resolved.viaUsage(cell));
            }
        }
    }
    for (const RoutedBit& b : r.routed->bits) {
        if (subIndex[static_cast<size_t>(b.groupIndex)] >= 0) continue;
        for (const auto& [e, n] :
             computeEdgeUse(grid, b.topo, b.hLayer, b.vLayer)) {
            r.routed->usage.add(e, n);
        }
        if (grid.viaLimited()) {
            for (const auto& [cell, n] : computeViaUse(grid, b.topo)) {
                r.routed->usage.addVias(cell, n);
            }
        }
    }
    for (const auto& [g, bIdx] : ckpt.unroutedBits) {
        if (subIndex[static_cast<size_t>(g)] < 0) {
            r.unroutedBits.emplace_back(g, bIdx);
        }
    }
    if (r.sub != nullptr) {
        for (const auto& [objIdx, member] : r.sub->routed.unroutedMembers) {
            const RoutingObject& obj =
                r.sub->problem.objects[static_cast<size_t>(objIdx)];
            r.unroutedBits.emplace_back(
                r.resolvedGroups[static_cast<size_t>(obj.groupIndex)],
                obj.bitIndices[static_cast<size_t>(member)]);
        }
    }
    std::sort(r.unroutedBits.begin(), r.unroutedBits.end());

    const auto carriedFlag = [&](const std::vector<char>& flags, int g) {
        return flags.empty() ? char{0} : flags[static_cast<size_t>(g)];
    };
    r.groupDistanceBefore.assign(static_cast<size_t>(r.totalGroups), 0);
    r.groupDistanceAfter.assign(static_cast<size_t>(r.totalGroups), 0);
    for (int g = 0; g < r.totalGroups; ++g) {
        const int sub = subIndex[static_cast<size_t>(g)];
        if (sub < 0) {
            r.groupDistanceBefore[static_cast<size_t>(g)] =
                carriedFlag(ckpt.groupDistanceBefore, g);
            r.groupDistanceAfter[static_cast<size_t>(g)] =
                carriedFlag(ckpt.groupDistanceAfter, g);
        } else {
            r.groupDistanceBefore[static_cast<size_t>(g)] =
                carriedFlag(r.sub->groupDistanceBefore, sub);
            r.groupDistanceAfter[static_cast<size_t>(g)] =
                carriedFlag(r.sub->groupDistanceAfter, sub);
        }
    }
    for (int g = 0; g < r.totalGroups; ++g) {
        r.distanceViolationsBefore +=
            r.groupDistanceBefore[static_cast<size_t>(g)] != 0 ? 1 : 0;
        r.distanceViolationsAfter +=
            r.groupDistanceAfter[static_cast<size_t>(g)] != 0 ? 1 : 0;
    }

    r.metrics = evaluate(*r.design, *r.routed, r.unroutedBits);
    return r;
}

Checkpoint makeCheckpoint(const EcoResult& eco, const StreakOptions& opts) {
    Checkpoint c;
    c.design = std::make_unique<Design>(*eco.design);
    c.opts = semanticOptions(opts);
    c.bits = eco.routed->bits;
    c.unroutedBits = eco.unroutedBits;
    for (int e = 0; e < eco.design->grid.numEdges(); ++e) {
        const int u = eco.routed->usage.usage(e);
        if (u > 0) c.usagePairs.emplace_back(e, u);
    }
    if (eco.design->grid.viaLimited()) {
        for (int cell = 0; cell < eco.design->grid.numCells(); ++cell) {
            const int u = eco.routed->usage.viaUsage(cell);
            if (u > 0) c.viaUsagePairs.emplace_back(cell, u);
        }
    }
    c.groupDistanceBefore = eco.groupDistanceBefore;
    c.groupDistanceAfter = eco.groupDistanceAfter;
    return c;
}

bool equivalent(const EcoResult& eco, const StreakResult& cold,
                std::string* diff) {
    const auto mismatch = [diff](const std::string& what) {
        if (diff != nullptr) *diff = what;
        return false;
    };
    const Metrics& a = eco.metrics;
    const Metrics& b = cold.metrics;
    if (a.totalBits != b.totalBits || a.routedBits != b.routedBits) {
        return mismatch("bit counts differ");
    }
    if (!bitsEqual(a.routability, b.routability)) {
        return mismatch("routability differs");
    }
    if (a.wirelength != b.wirelength) return mismatch("wirelength differs");
    if (!bitsEqual(a.avgRegularity, b.avgRegularity)) {
        return mismatch("avgRegularity differs");
    }
    if (a.totalOverflow != b.totalOverflow ||
        a.overflowedEdges != b.overflowedEdges ||
        a.totalViaOverflow != b.totalViaOverflow) {
        return mismatch("overflow differs");
    }
    if (eco.distanceViolationsBefore != cold.distanceViolationsBefore ||
        eco.distanceViolationsAfter != cold.distanceViolationsAfter) {
        return mismatch("distance violation counts differ");
    }
    if (eco.groupDistanceBefore != cold.groupDistanceBefore ||
        eco.groupDistanceAfter != cold.groupDistanceAfter) {
        return mismatch("per-group distance flags differ");
    }

    std::map<std::pair<int, int>, const RoutedBit*> ecoBits;
    for (const RoutedBit& bit : eco.routed->bits) {
        ecoBits[{bit.groupIndex, bit.bitIndex}] = &bit;
    }
    std::map<std::pair<int, int>, const RoutedBit*> coldBits;
    for (const RoutedBit& bit : cold.routed.bits) {
        coldBits[{bit.groupIndex, bit.bitIndex}] = &bit;
    }
    if (ecoBits.size() != eco.routed->bits.size() ||
        coldBits.size() != cold.routed.bits.size()) {
        return mismatch("duplicate routed bit");
    }
    if (ecoBits.size() != coldBits.size()) {
        return mismatch("routed bit sets differ in size");
    }
    for (const auto& [key, ecoBit] : ecoBits) {
        const auto it = coldBits.find(key);
        if (it == coldBits.end()) {
            return mismatch("bit (" + std::to_string(key.first) + ", " +
                            std::to_string(key.second) +
                            ") routed incrementally but not cold");
        }
        const RoutedBit* coldBit = it->second;
        if (!(ecoBit->topo == coldBit->topo)) {
            return mismatch("topology of bit (" + std::to_string(key.first) +
                            ", " + std::to_string(key.second) + ") differs");
        }
        if (ecoBit->hLayer != coldBit->hLayer ||
            ecoBit->vLayer != coldBit->vLayer) {
            return mismatch("trunk layers of bit (" +
                            std::to_string(key.first) + ", " +
                            std::to_string(key.second) + ") differ");
        }
    }
    if (clusterPartition(eco.routed->bits) !=
        clusterPartition(cold.routed.bits)) {
        return mismatch("per-group cluster partitions differ");
    }
    if (eco.unroutedBits != coldUnroutedBits(cold)) {
        return mismatch("unrouted bit sets differ");
    }

    const grid::RoutingGrid& grid = eco.design->grid;
    for (int e = 0; e < grid.numEdges(); ++e) {
        if (eco.routed->usage.usage(e) != cold.routed.usage.usage(e)) {
            return mismatch("edge " + std::to_string(e) + " usage differs");
        }
    }
    if (grid.viaLimited()) {
        for (int cell = 0; cell < grid.numCells(); ++cell) {
            if (eco.routed->usage.viaUsage(cell) !=
                cold.routed.usage.viaUsage(cell)) {
                return mismatch("cell " + std::to_string(cell) +
                                " via usage differs");
            }
        }
    }
    return true;
}

obs::json::Value buildEcoReport(const EcoResult& eco,
                                const StreakOptions& opts,
                                double incrementalSeconds,
                                double coldSeconds) {
    // buildRunReport only reads the metric / violation / solver / robust
    // / trace fields, so a synthetic StreakResult carrying the stitched
    // state produces a schema-valid streak-run-report.
    StreakResult synth(eco.design->grid);
    synth.metrics = eco.metrics;
    synth.distanceViolationsBefore = eco.distanceViolationsBefore;
    synth.distanceViolationsAfter = eco.distanceViolationsAfter;
    synth.groupDistanceBefore = eco.groupDistanceBefore;
    synth.groupDistanceAfter = eco.groupDistanceAfter;
    synth.pdIterations = eco.pdIterations;
    synth.hitTimeLimit = eco.hitTimeLimit;
    synth.degradations = eco.degradations;
    synth.threadsUsed = eco.threadsUsed;
    if (eco.sub != nullptr) {
        synth.trace = eco.sub->trace;
        synth.counters = eco.sub->counters;
        synth.ilpNodes = eco.sub->ilpNodes;
    } else {
        // Empty closure: no flow ran, but the report schema still wants
        // a span tree rooted at flow/run. A zero-length root span states
        // exactly that.
        obs::Span root;
        root.name = stage::kRun;
        root.parent = -1;
        root.startSeconds = 0.0;
        root.endSeconds = 0.0;
        synth.trace.push_back(std::move(root));
    }

    obs::json::Value report = flow::buildRunReport(*eco.design, opts, synth);
    obs::json::Object document = report.asObject();
    obs::json::Object section;
    section.set("totalGroups", eco.totalGroups);
    section.set("resolvedGroups",
                static_cast<int>(eco.resolvedGroups.size()));
    section.set("carriedGroups", eco.carriedGroups());
    obs::json::Array resolved;
    for (const int g : eco.resolvedGroups) resolved.emplace_back(g);
    section.set("resolved", std::move(resolved));
    section.set("incrementalSeconds", incrementalSeconds);
    if (coldSeconds >= 0.0) {
        section.set("coldSeconds", coldSeconds);
    } else {
        section.set("coldSeconds", obs::json::Value());
    }
    document.set("eco", std::move(section));
    return obs::json::Value(std::move(document));
}

}  // namespace streak::eco
