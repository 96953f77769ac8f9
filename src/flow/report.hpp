// JSON run report for a Streak flow run (DESIGN.md "Observability"):
// design identity, the options the run used, the result Metrics, the
// counter / histogram deltas and the span tree with wall times.
//
// The document is schema-versioned ("schema" / "schemaVersion" header
// fields) so downstream consumers can reject reports they do not
// understand; field additions bump the minor behaviour only (same
// version), removals or renames bump schemaVersion.
#pragma once

#include <ostream>

#include "core/options.hpp"
#include "core/signal.hpp"
#include "flow/streak.hpp"
#include "obs/json.hpp"

namespace streak::flow {

inline constexpr const char* kReportSchema = "streak-run-report";
inline constexpr int kReportSchemaVersion = 1;

/// Build the report document for one finished run.
[[nodiscard]] obs::json::Value buildRunReport(const Design& design,
                                              const StreakOptions& opts,
                                              const StreakResult& result);

/// The report's "options" section on its own — the canonical JSON form
/// of the knobs that shape a run: every field eco::semanticOptions keeps
/// (src/campaign hashes it for config provenance, so two runs compare
/// only when this document matches).
[[nodiscard]] obs::json::Value buildOptionsJson(const StreakOptions& opts);

/// Pretty-print the report document to `os`.
void writeRunReport(const Design& design, const StreakOptions& opts,
                    const StreakResult& result, std::ostream& os);

}  // namespace streak::flow
