#include "flow/report.hpp"

#include <cmath>
#include <string>
#include <vector>

#include "obs/process.hpp"

namespace streak::flow {

namespace {

using obs::json::Array;
using obs::json::Object;
using obs::json::Value;

const char* solverName(SolverKind kind) {
    switch (kind) {
        case SolverKind::PrimalDual: return "pd";
        case SolverKind::Ilp: return "ilp";
        case SolverKind::IlpHierarchical: return "hilp";
    }
    return "unknown";
}

Value designSection(const Design& design) {
    Object grid;
    grid.set("width", design.grid.width());
    grid.set("height", design.grid.height());
    grid.set("layers", design.grid.numLayers());
    Object d;
    d.set("name", design.name);
    d.set("grid", std::move(grid));
    d.set("groups", design.numGroups());
    d.set("nets", design.numNets());
    d.set("pins", design.totalPins());
    return d;
}

/// Host-side facts about the process that produced the report. All
/// nondeterministic by nature (like span wall times), so report_check
/// validates shape, never values.
Value processSection() {
    const obs::ProcessInfo info = obs::processInfo();
    Object o;
    o.set("peakRssKb", info.peakRssKb);
    o.set("hostname", info.hostname);
    o.set("hardwareThreads", info.hardwareThreads);
    return o;
}

Value optionsSection(const StreakOptions& opts) {
    Object o;
    o.set("solver", solverName(opts.solver));
    o.set("threads", opts.threads);
    o.set("ilpTimeLimitSeconds", opts.ilpTimeLimitSeconds);
    o.set("maxBackbones", opts.backbone.maxBackbones);
    o.set("maxLayerPairs", opts.maxLayerPairs);
    o.set("viaWeight", opts.viaWeight);
    o.set("layerAdjacencyWeight", opts.layerAdjacencyWeight);
    o.set("irregularityWeight", opts.irregularityWeight);
    o.set("pairLayerWeight", opts.pairLayerWeight);
    o.set("postOptimize", opts.postOptimize);
    o.set("clusteringEnabled", opts.clusteringEnabled);
    o.set("refinementEnabled", opts.refinementEnabled);
    o.set("distanceThresholdFraction", opts.distanceThresholdFraction);
    o.set("maxDetourShift", opts.maxDetourShift);
    return o;
}

Value metricsSection(const Metrics& m) {
    Object o;
    o.set("totalBits", m.totalBits);
    o.set("routedBits", m.routedBits);
    o.set("routability", m.routability);
    o.set("wirelength", m.wirelength);
    o.set("avgRegularity", m.avgRegularity);
    o.set("totalOverflow", m.totalOverflow);
    o.set("overflowedEdges", m.overflowedEdges);
    o.set("totalViaOverflow", m.totalViaOverflow);
    return o;
}

Value robustSection(const StreakOptions& opts, const StreakResult& result) {
    Object o;
    o.set("deadlineSeconds", opts.deadlineSeconds);
    o.set("degraded", result.degraded());
    Array rungs;
    for (const robust::Degradation& d : result.degradations) {
        Object rung;
        rung.set("stage", d.stage);
        rung.set("site", d.site);
        rung.set("rung", d.rung);
        rung.set("message", d.message);
        rungs.push_back(Value(std::move(rung)));
    }
    o.set("degradations", std::move(rungs));
    return o;
}

Value countersSection(const obs::Snapshot& snap) {
    Object o;
    for (const auto& [name, value] : snap.counters) o.set(name, value);
    return o;
}

Value histogramsSection(const obs::Snapshot& snap) {
    Object o;
    for (const auto& [name, h] : snap.histograms) {
        Array bounds;
        for (const long long b : h.upperBounds) bounds.emplace_back(b);
        Array counts;
        for (const long long c : h.counts) counts.emplace_back(c);
        Object entry;
        entry.set("upperBounds", std::move(bounds));
        entry.set("counts", std::move(counts));
        entry.set("total", h.total);
        entry.set("sum", h.sum);
        o.set(name, std::move(entry));
    }
    return o;
}

/// Span subtree rooted at `index`, children in recording order.
Value spanNode(const obs::Trace& trace,
               const std::vector<std::vector<int>>& children, int index) {
    const obs::Span& span = trace[static_cast<size_t>(index)];
    Object node;
    node.set("name", span.name);
    node.set("track", span.thread);
    node.set("startSeconds", span.startSeconds);
    node.set("seconds", span.seconds());
    if (!span.args.empty()) {
        Object args;
        for (const auto& [key, value] : span.args) args.set(key, value);
        node.set("args", std::move(args));
    }
    if (!children[static_cast<size_t>(index)].empty()) {
        Array kids;
        for (const int child : children[static_cast<size_t>(index)]) {
            kids.push_back(spanNode(trace, children, child));
        }
        node.set("children", std::move(kids));
    }
    return node;
}

Value spansSection(const obs::Trace& trace) {
    std::vector<std::vector<int>> children(trace.size());
    std::vector<int> roots;
    for (size_t i = 0; i < trace.size(); ++i) {
        const int parent = trace[i].parent;
        if (parent >= 0 && parent < static_cast<int>(trace.size())) {
            children[static_cast<size_t>(parent)].push_back(
                static_cast<int>(i));
        } else {
            roots.push_back(static_cast<int>(i));
        }
    }
    Array out;
    for (const int root : roots) out.push_back(spanNode(trace, children, root));
    return out;
}

}  // namespace

Value buildOptionsJson(const StreakOptions& opts) {
    return optionsSection(opts);
}

Value buildRunReport(const Design& design, const StreakOptions& opts,
                     const StreakResult& result) {
    Object report;
    report.set("schema", kReportSchema);
    report.set("schemaVersion", kReportSchemaVersion);
    report.set("design", designSection(design));
    report.set("options", optionsSection(opts));
    report.set("threadsUsed", result.threadsUsed);
    report.set("metrics", metricsSection(result.metrics));
    Object violations;
    violations.set("before", result.distanceViolationsBefore);
    violations.set("after", result.distanceViolationsAfter);
    report.set("distanceViolations", std::move(violations));
    Object solver;
    solver.set("pdIterations", result.pdIterations);
    solver.set("ilpNodes", result.ilpNodes);
    solver.set("hitTimeLimit", result.hitTimeLimit);
    solver.set("ilpGap", std::isfinite(result.ilpGap) ? Value(result.ilpGap)
                                                      : Value());
    report.set("solver", std::move(solver));
    report.set("robust", robustSection(opts, result));
    report.set("process", processSection());
    report.set("counters", countersSection(result.counters));
    report.set("histograms", histogramsSection(result.counters));
    report.set("spans", spansSection(result.trace));
    return Value(std::move(report));
}

void writeRunReport(const Design& design, const StreakOptions& opts,
                    const StreakResult& result, std::ostream& os) {
    buildRunReport(design, opts, result).write(os, 2);
    os << '\n';
}

}  // namespace streak::flow
