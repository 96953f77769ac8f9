// Sweep campaigns over the flow (DESIGN.md "Observability"): run a grid
// of instance families x solver configs x thread counts through
// runStreak, persist one schema-versioned record per run into an
// append-only JSON-lines store, and diff stores for regressions.
//
// Each sweep point runs with detail instrumentation on, and every flow
// run records into its own obs::Session, so counters from one run can
// never bleed into the next and the records are byte-identical to what
// a fresh process would report. Records carry provenance — a hash of the
// exact design text, a hash of the canonical options JSON, and host info
// — so a diff can tell "the router regressed" apart from "you measured a
// different problem".
//
// The diff side compares a fresh store against a baseline store — a
// prior run, or the committed reference BENCH_campaign.jsonl (the full
// shrunk sweep at one thread) — flagging counter growth (maze pops, LP
// pivots, ...) and any quality loss (wirelength / vias / overflow /
// routability). Counters are thread-count-invariant by the determinism
// contract, so any counter growth between same-config runs is a real
// behavioural change, not scheduling noise. Wall time is recorded for
// information only; perfbench/ owns timing.
#pragma once

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.hpp"
#include "core/signal.hpp"
#include "obs/json.hpp"

namespace streak::campaign {

/// Schema header of one store line. Version bumps on any breaking field
/// change; readers reject records from other schemas/versions with a
/// structured problem, never a crash.
inline constexpr const char* kRunSchema = "streak-campaign-run";
inline constexpr int kRunSchemaVersion = 1;

/// Schema header of the machine-readable diff verdict.
inline constexpr const char* kVerdictSchema = "streak-campaign-verdict";
inline constexpr int kVerdictSchemaVersion = 1;

/// One named solver configuration of the sweep grid. `manualBaseline`
/// runs the sequential maze baseline (route::routeSequential in
/// maze-only mode) instead of the Streak flow; `options` is ignored.
struct SweepConfig {
    std::string name;
    StreakOptions options;
    bool manualBaseline = false;
};

/// The built-in configs: "pd" (primal-dual + post optimization),
/// "pd-nopost" (primal-dual only), "ilp" (the exact solver), and
/// "manual" (the sequential maze baseline, every bit through the maze
/// search).
[[nodiscard]] std::vector<SweepConfig> builtinConfigs();

/// Look up a built-in config; throws std::invalid_argument for unknown
/// names (the message lists the known ones).
[[nodiscard]] SweepConfig configByName(std::string_view name);

/// What to sweep. Instances come from gen::shrunkSynthSpec(suite), so a
/// sweep's problem hashes match the committed store's.
struct CampaignSpec {
    std::vector<int> suites{1, 2, 3, 4, 5, 6, 7};
    /// Empty means builtinConfigs().
    std::vector<SweepConfig> configs;
    std::vector<int> threads{0};
    /// Fault-injection knob for drills and tests: scale the named
    /// counters in every persisted record (e.g. {"route/maze.pops", 2.0}
    /// simulates a 2x maze regression without touching the router).
    std::map<std::string, double> scaleCounters;
};

/// One persisted run (one JSONL line).
struct RunRecord {
    std::string config;
    std::string instance;
    int threads = 0;      ///< requested (0 = hardware)
    int threadsUsed = 1;  ///< resolved by the run
    // Provenance.
    std::string problemHash;  ///< FNV-1a over the design's text form
    std::string configHash;   ///< FNV-1a over the canonical options JSON
    std::string hostname;
    int hardwareThreads = 1;
    // Cost; information only, never compared.
    double wallSeconds = 0.0;
    // Quality. `vias` sums the solver-selected candidates' via counts
    // (bends + pin stacks); overflow is the routed design's.
    double routability = 0.0;
    long long wirelength = 0;
    long long vias = 0;
    long long totalOverflow = 0;
    bool degraded = false;
    std::map<std::string, long long> counters;
};

[[nodiscard]] obs::json::Value recordToJson(const RunRecord& record);

/// Parse one store line back. On any malformed input (wrong schema or
/// version, missing field, wrong type) returns nullopt and stores a
/// message in *error (when non-null).
[[nodiscard]] std::optional<RunRecord> recordFromJson(
    const obs::json::Value& value, std::string* error = nullptr);

/// A parsed store: every valid record in file order plus one structured
/// problem string per rejected line (blank lines and '#' comments are
/// skipped silently).
struct Store {
    std::vector<RunRecord> records;
    std::vector<std::string> problems;
};

/// Append records as compact JSONL (one object per line).
void appendStore(const std::vector<RunRecord>& records, std::ostream& os);

[[nodiscard]] Store readStore(std::istream& is, const std::string& where);
/// Throws robust::StreakException (invalid-input) when unreadable.
[[nodiscard]] Store readStoreFile(const std::string& path);

/// Run the sweep grid. Each point routes under a fresh detail-on
/// obs::Session, so every record carries the hot-path counters. Progress
/// lines go to *log when non-null. Throws on a flow failure (the shrunk
/// suites are expected to route cleanly).
[[nodiscard]] std::vector<RunRecord> runCampaign(const CampaignSpec& spec,
                                                 std::ostream* log = nullptr);

/// Default counter growth threshold. Counters are deterministic, but
/// unrelated code motion legitimately shifts them a little between
/// binaries, so the diff tolerates 10% growth; quality must not regress
/// at all.
inline constexpr double kDefaultCounterGrowth = 0.10;

/// One flagged regression of a (config, instance, threads) sweep point.
struct Regression {
    std::string kind;  ///< "counter" | "quality"
    std::string config;
    std::string instance;
    std::string metric;  ///< counter name, "wirelength", "vias", ...
    double baseline = 0.0;
    double current = 0.0;
    double growthPercent = 0.0;
};

/// Outcome of one comparison against a baseline store.
struct DiffReport {
    int comparedRuns = 0;
    std::vector<Regression> regressions;
    /// Skipped comparisons and provenance mismatches, e.g. "no baseline
    /// for pd/synth3-shrunk/t0" — informational, unless nothing at all
    /// was compared (`streak campaign diff` then exits 3).
    std::vector<std::string> notes;
    [[nodiscard]] bool ok() const { return regressions.empty(); }
};

/// Compare current records against the *last* baseline record with the
/// same (config, instance, threads) key (stores are append-only; the
/// newest measurement wins). A counter regresses when it grows by more
/// than `counterGrowth` (a fraction); quality by any amount. Records
/// whose problem or config hash differs from the baseline's are noted
/// and skipped, not compared.
[[nodiscard]] DiffReport diffAgainstStore(
    const Store& baseline, const Store& current,
    double counterGrowth = kDefaultCounterGrowth);

/// Exit status of `streak campaign diff` for a finished comparison: 3
/// (invalid input) when no record was compared — every key missing from
/// the baseline, or every problem or config hash changed, so the
/// baseline measured something else — 8 when any regression was
/// flagged, else 0.
[[nodiscard]] int diffExitCode(const DiffReport& report);

/// The machine-readable verdict over every comparison that ran.
[[nodiscard]] obs::json::Value verdictJson(
    const std::vector<DiffReport>& reports);

// --- provenance hashing (FNV-1a 64-bit, hex) ---
[[nodiscard]] std::string fnv1aHex(std::string_view bytes);
[[nodiscard]] std::string problemHash(const Design& design);
[[nodiscard]] std::string configHash(const StreakOptions& opts);

}  // namespace streak::campaign
