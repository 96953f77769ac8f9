// Source-to-sink distance deviation analysis (Sec. II-C / IV-C).
//
// Corresponding sinks of the bits in one group form a *family*: within an
// object the correspondence is the identification pin map; across objects
// the representatives' pins are matched by driver-weighted similarity
// vectors. A group violates ("Vio(dst)") when some family's max-min
// distance spread exceeds the threshold (a fraction — the paper uses 50% —
// of the group's maximum initial source-to-sink distance).
//
// Within one group's analysis, bits whose sorted wires are equal up to
// one offset d, with their drivers also d apart, share one BFS walk: pin
// i reads the walk's hop count at pins[i] - d, or -1 where that point is
// off the wire. A bit with no wire, or with its driver off the wire,
// runs no walk, and only its pins at the driver's place get a distance
// (zero), as Topology::sourceToSinkDistances gives.
//
// A group's report depends only on its own routed bits and its
// threshold, so a re-analysis can take the previous reports and a mask of
// the groups whose routed wires changed, and copy every other report.
// The flow analyzes three times: the flow/distance stage analyzes every
// group; refinement's before pass re-analyzes only the groups clustering
// added bits to, and its after pass only the groups it refined.
#pragma once

#include <vector>

#include "core/problem.hpp"
#include "core/solution.hpp"
#include "parallel/thread_pool.hpp"

namespace streak {

/// A sink whose distance is short enough to break its family's bound; the
/// refinement stage (Alg. 4) lengthens exactly these connections.
struct PinDeviation {
    int routedBitIndex = 0;  // into RoutedDesign::bits
    int pinIndex = 0;        // into the bit's pins
    int distance = 0;        // current source-to-sink distance
    int familyMax = 0;       // longest distance in the family
};

struct GroupDistanceReport {
    int groupIndex = 0;
    int maxInitialDistance = 0;
    int threshold = 0;  // absolute units
    int violatingFamilies = 0;
    int maxDeviation = 0;
    std::vector<PinDeviation> violations;

    [[nodiscard]] bool violating() const { return violatingFamilies > 0; }
};

/// Analyze the groups of a routed design; the reports are indexed by
/// group. When `fixedThresholds` is given (one entry per group, -1 =
/// compute), those thresholds are reused — Table II compares
/// post-refinement violations against the *initial* thresholds. Groups
/// analyze in parallel (`prob.opts.threads`) with reports collected by
/// group index, so the output is independent of the thread count;
/// `parallelStats` accumulates the stage's region stats.
///
/// Behind the detail gate, `distance/analyze.bits` counts the routed bits
/// whose distances were computed and `distance/analyze.walks` the BFS
/// walks run for them.
///
/// With `previous` and `changed` (both group-indexed), only the groups
/// flagged in `changed` are analyzed and every other report is copied
/// from `previous`. The caller guarantees that an unflagged group's
/// routed bits (indices and wires) and threshold are those `previous`
/// was computed from; the result then equals a full analysis. Without
/// them every group is analyzed.
[[nodiscard]] std::vector<GroupDistanceReport> analyzeDistances(
    const RoutingProblem& prob, const RoutedDesign& routed,
    double thresholdFraction,
    const std::vector<int>* fixedThresholds = nullptr,
    parallel::RegionStats* parallelStats = nullptr,
    const std::vector<GroupDistanceReport>* previous = nullptr,
    const std::vector<char>* changed = nullptr);

/// Number of groups with at least one violating family ("Vio(dst)").
[[nodiscard]] int countViolatingGroups(
    const std::vector<GroupDistanceReport>& reports);

/// One sink of one routed bit tagged with its correspondence family.
struct FamilyMember {
    int routedBitIndex = 0;  // into RoutedDesign::bits
    int pinIndex = 0;        // into the bit's pins (never the driver)
    int familyId = 0;        // canonical pin id within the group
};

/// The sink-correspondence families of every group (group-indexed): pin
/// maps within objects, driver-weighted SV matching across objects. Both
/// the distance analysis and the timing-skew analysis consume this.
[[nodiscard]] std::vector<std::vector<FamilyMember>> buildSinkFamilies(
    const RoutingProblem& prob, const RoutedDesign& routed);

}  // namespace streak
