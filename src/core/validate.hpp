// Design and option lint: structural checks a routing run assumes.
// Returns human-readable findings instead of throwing so front ends can
// report them: `streak info` prints validateDesign's findings and fails
// on an error, and runStreak rejects a run whose options or pins fail
// validateOptions or validatePins. validateDesign's errors are exactly
// what validatePins rejects, so both front ends agree on what routes.
#pragma once

#include <string>
#include <vector>

#include "core/options.hpp"
#include "core/signal.hpp"

namespace streak {

struct ValidationIssue {
    enum class Severity { Error, Warning };
    Severity severity = Severity::Error;
    std::string message;
};

/// Check the design. The errors are exactly what validatePins rejects:
/// a bit with no pins, a driver index out of range, a pin off the grid.
/// Everything else a run routes anyway and is a warning: an empty group,
/// a single-pin bit, a duplicate pin within a bit or across groups, a
/// group wider than any edge capacity (whole-object routing will need
/// clustering).
[[nodiscard]] std::vector<ValidationIssue> validateDesign(const Design& design);

/// True if no Error-severity issue is present.
[[nodiscard]] bool isRoutable(const std::vector<ValidationIssue>& issues);

/// The pin checks every stage relies on: each bit has at least one pin,
/// its driver index names one of them, and every pin lies on the grid.
/// One pass over the pins that allocates nothing unless a bit fails.
/// Empty when the design passes; otherwise names the first offending
/// bit. Single-pin bits and empty groups pass.
[[nodiscard]] std::string validatePins(const Design& design);

/// Range check of the options a run reads: at least one backbone and one
/// layer pair, no negative thread count or detour shift, finite weights
/// and limits, and non-negative pair weights. Empty when every option is
/// in range; otherwise names the first offending option.
[[nodiscard]] std::string validateOptions(const StreakOptions& opts);

}  // namespace streak
