// Library form of the observability-export validator (DESIGN.md
// "Observability"), shared by the `report_check` CLI and the test suite
// so malformed-input behaviour is testable without spawning a process.
//
// Each checker takes the document *text* (not a path — I/O stays in the
// caller), validates structurally, and returns every problem found as a
// structured "<where>: <what>" message. Hostile input — truncated JSON,
// wrong schema, missing or mistyped sections — must produce problems,
// never a crash.
//
//   checkRunReport   streak-run-report v1: header fields, required
//                    sections (design/options/metrics/solver/robust/
//                    process/counters/histograms/spans), the solver's
//                    ilpGap (a number >= 0 or null; absent from reports
//                    that predate it), a "flow/run" root span,
//                    span-tree field types, and — when the document
//                    carries one or `requireEco` is set — the eco
//                    section appended by `streak eco --report`.
//   checkChromeTrace chrome://tracing export: every duration event
//                    carries ph/ts/pid/tid/name and each (pid, tid)
//                    track's B/E events balance with matching names.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace streak::flow {

/// Outcome of one document check: empty problems == valid.
struct CheckResult {
    std::vector<std::string> problems;
    [[nodiscard]] bool ok() const { return problems.empty(); }
};

/// Validate a streak-run-report document. `where` prefixes every
/// problem (the CLI passes the file path). `requireEco` additionally
/// demands the eco section (for reports produced by `streak eco`).
[[nodiscard]] CheckResult checkRunReport(std::string_view text,
                                         const std::string& where,
                                         bool requireEco = false);

/// Validate a chrome://tracing export document.
[[nodiscard]] CheckResult checkChromeTrace(std::string_view text,
                                           const std::string& where);

}  // namespace streak::flow
