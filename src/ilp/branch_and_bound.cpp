#include "ilp/branch_and_bound.hpp"

#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "check/ilp_audit.hpp"
#include "ilp/lp.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "robust/fault.hpp"

namespace streak::ilp {

namespace {

constexpr double kIntTol = 1e-6;
/// Absolute incumbent-vs-bound gap considered proven optimal.
constexpr double kGapTolerance = 1e-6;

struct Node {
    double bound;                    // parent LP bound (lower bound)
    std::vector<std::int8_t> fixed;  // -1 free, 0 / 1 fixed

    bool operator<(const Node& o) const { return bound > o.bound; }  // min-heap
};

/// Model copy with node fixings applied as tight bounds: the model the
/// deep LP audit checks a node's relaxation against (the relaxation
/// itself applies the fixings without copying the model).
[[maybe_unused]] Model applyFixings(const Model& base,
                                    const std::vector<std::int8_t>& fixed) {
    Model m;
    for (int v = 0; v < base.numVariables(); ++v) {
        double lo = base.lower(v);
        double hi = base.upper(v);
        const auto f = fixed[static_cast<size_t>(v)];
        if (base.isInteger(v) && f >= 0) lo = hi = static_cast<double>(f);
        m.addVariable(base.objectiveCoeff(v), base.isInteger(v), lo, hi);
    }
    for (const Row& r : base.rows()) m.addRow(r);
    m.objectiveConstant = base.objectiveConstant;
    return m;
}

}  // namespace

Solution solveIlp(const Model& model, const BnbOptions& opts, BnbStats* stats) {
    STREAK_SPAN("ilp/bnb");
    const obs::Stopwatch watch;
    const std::function<bool()> timeUp = [&] {
        return watch.seconds() > opts.timeLimitSeconds;
    };

    Solution incumbent;
    incumbent.status = SolveStatus::Limit;
    // A warm-start bound prunes but is not itself a returnable solution;
    // the caller keeps its warm start when we return empty-handed.
    double incumbentObj = opts.initialUpperBound;
    bool haveIncumbent = false;
    bool provenInfeasible = true;  // until a node is feasible at LP level

    std::priority_queue<Node> open;
    Node root;
    root.bound = -kInfinity;
    root.fixed.assign(static_cast<size_t>(model.numVariables()), -1);
    open.push(std::move(root));
    long nodes = 0;
    bool limitHit = false;
    double bestOpenBound = -kInfinity;
    // Pruning tallies, accumulated locally and flushed once at the end so
    // the search loop never touches the registry (and totals stay
    // identical for any number of concurrent component solves).
    long prunedBound = 0;
    long prunedInfeasible = 0;

    // One relaxation per search: the rows are merged once and every node
    // re-solves them under its own fixings in the same workspace.
    Relaxation relaxation(model);
    while (!open.empty()) {
        // Tick point: one poll per node (each node pays an LP solve).
        opts.control.checkpoint("bnb/node");
        STREAK_FAULT_POINT("bnb/node");
        // Best-bound search: once the best open node cannot beat the
        // incumbent, neither can any other, and the incumbent is proven.
        // Checked before the limits, so a search that has nothing left
        // to explore is never reported as cut short.
        if (open.top().bound >= incumbentObj - kGapTolerance &&
            incumbentObj < kInfinity) {
            break;
        }
        if (nodes >= opts.maxNodes || timeUp()) {
            limitHit = true;
            bestOpenBound = open.top().bound;
            break;
        }
        // The limit can also pass inside the node's LP, which then stops
        // at its next tick. The node stays open: it is the best open
        // node, so the gap is measured against its bound.
        Node node = open.top();
        const Solution lp = relaxation.solve(node.fixed, opts.control, timeUp);
        if (lp.status == SolveStatus::Limit) {
            limitHit = true;
            bestOpenBound = node.bound;
            break;
        }
        open.pop();
        ++nodes;

        // Basis sanity / primal feasibility of every relaxation the tree
        // trusts for pruning decisions, against the fixed model.
        STREAK_DEEP_AUDIT(check::auditLp(applyFixings(model, node.fixed), lp));
        if (lp.status == SolveStatus::Infeasible) {
            ++prunedInfeasible;
            continue;
        }
        if (lp.status == SolveStatus::Unbounded) {
            Solution out;
            out.status = SolveStatus::Unbounded;
            if (stats) *stats = {nodes, false, kInfinity};
            return out;
        }
        provenInfeasible = false;
        if (lp.objective >= incumbentObj - kGapTolerance) {
            ++prunedBound;
            continue;
        }

        // Find the most fractional integer variable (distance to the
        // nearest integer, i.e. closeness to 0.5).
        int branchVar = -1;
        double bestScore = kIntTol;
        for (int v = 0; v < model.numVariables(); ++v) {
            if (!model.isInteger(v)) continue;
            const double x = lp.values[static_cast<size_t>(v)];
            const double dist = std::abs(x - std::round(x));
            if (dist > bestScore) {
                bestScore = dist;
                branchVar = v;
            }
        }
        if (branchVar < 0) {
            // Integral: new incumbent.
            if (lp.objective < incumbentObj) {
                incumbentObj = lp.objective;
                incumbent = lp;
                haveIncumbent = true;
            }
            continue;
        }
        for (const std::int8_t val : {std::int8_t{1}, std::int8_t{0}}) {
            Node child;
            child.bound = lp.objective;
            child.fixed = node.fixed;
            child.fixed[static_cast<size_t>(branchVar)] = val;
            open.push(std::move(child));
        }
    }

    if (obs::detailEnabled()) {
        obs::Session& sess = obs::session();
        sess.counter("ilp/bnb.nodes_explored").add(nodes);
        sess.counter("ilp/bnb.pruned_bound").add(prunedBound);
        sess.counter("ilp/bnb.pruned_infeasible").add(prunedInfeasible);
    }

    if (stats) {
        stats->nodesExplored = nodes;
        stats->hitLimit = limitHit;
        // A limit only ends the search while the best open node still
        // undercuts the incumbent (or none exists); an unsolved root's
        // open bound is -inf.
        stats->gap = limitHit ? incumbentObj - bestOpenBound : 0.0;
    }

    if (haveIncumbent) {
        incumbent.status = limitHit ? SolveStatus::Feasible : SolveStatus::Optimal;
        return incumbent;
    }
    Solution out;
    out.status = (provenInfeasible && !limitHit &&
                  opts.initialUpperBound == kInfinity)
                     ? SolveStatus::Infeasible
                     : SolveStatus::Limit;
    return out;
}

}  // namespace streak::ilp
