// Knobs for the whole Streak flow, grouped in one place so benches and
// ablations can tweak a single struct.
#pragma once

#include <memory>

#include "core/backbone.hpp"
#include "robust/control.hpp"
#include "robust/recovery.hpp"

namespace streak {

enum class SolverKind {
    PrimalDual,       // Alg. 2 (fast, near-ILP quality)
    Ilp,              // exact formulation (3), time-capped
    IlpHierarchical,  // two-stage topology-then-layering ILP (future-work
                      // divide-and-conquer extension; see hier_ilp.hpp)
};

struct StreakOptions {
    BackboneOptions backbone;

    // --- 3-D candidate expansion ---
    /// How many (hLayer, vLayer) pairs to expand each backbone into.
    int maxLayerPairs = 3;
    /// Cost per via (bend / pin access) in c(i, j).
    double viaWeight = 2.0;
    /// Extra cost per unit of |hLayer - vLayer| - 1 (non-adjacent trunk
    /// layers waste via stacks).
    double layerAdjacencyWeight = 1.0;

    // --- formulation (3) weights ---
    /// M: penalty for a non-routed object (3a). Must dominate any cost.
    double nonRoutePenaltyM = 1e6;
    /// Scale of the irregularity term 1/Ratio - 1 between group mates.
    double irregularityWeight = 50.0;
    /// Pair penalty when two objects share no RC at all (< M).
    double noSharePenalty = 1e3;
    /// Penalty per layer of difference between the trunk layers of two
    /// group mates ("...if the RCs are shared but the routed layers are
    /// not adjacent, a penalty proportional to the layer difference").
    double pairLayerWeight = 2.0;

    // --- solver selection ---
    SolverKind solver = SolverKind::PrimalDual;
    double ilpTimeLimitSeconds = 60.0;

    // --- parallel execution (DESIGN.md "Parallel execution") ---
    /// Worker threads for the parallel stages (candidate build, per-
    /// component ILP solves, distance analysis, refinement scoring).
    /// 0 = hardware concurrency, 1 = the exact legacy sequential path.
    /// Results are byte-identical for every value (ordered reductions).
    int threads = 0;

    // --- post optimization (Sec. IV) ---
    bool postOptimize = false;
    bool clusteringEnabled = true;   // Fig. 14 ablation switch
    bool refinementEnabled = true;   // Fig. 15 ablation switch
    /// Source-to-sink deviation threshold as a fraction of the group's
    /// maximum initial source-to-sink distance (the paper uses 50%).
    double distanceThresholdFraction = 0.5;
    /// Maximum shift distance explored when twisting detours (Alg. 4).
    int maxDetourShift = 12;

    // --- robustness (DESIGN.md "Robustness") ---
    /// Wall-clock budget for the whole run; <= 0 disables the deadline.
    /// When it expires, the active stage unwinds at its next tick point
    /// and the flow degrades per `recovery` (or returns a structured
    /// DeadlineExpired error when no fallback exists). A run that never
    /// hits the deadline is byte-identical to an unbudgeted one.
    double deadlineSeconds = 0.0;
    /// Optional external cancellation: share this token with whatever
    /// owns the run and call requestCancel() to unwind at the next tick.
    /// Cancellation is never absorbed by the degradation ladder.
    std::shared_ptr<robust::CancelToken> cancel;
    /// Per-stage fallback switches for the degradation ladder.
    robust::RecoveryPolicy recovery;
    /// Internal: armed by runStreak() from deadlineSeconds + cancel and
    /// carried down to every hot loop via the options copies the stages
    /// already receive. Leave default-constructed (idle) when calling
    /// stages directly.
    robust::Ticket control;
};

}  // namespace streak
