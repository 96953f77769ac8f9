// Versioned serialization of routed state (DESIGN.md "Incremental ECO").
//
// A checkpoint freezes everything an incremental ECO re-route needs to
// treat untouched groups as solved: the full design (grid capacities
// included), the semantic option subset the run used, the solver's
// chosen[] artifact, every routed bit with its topology and trunk
// layers, the per-edge/per-cell usage, the per-group distance flags and
// the headline metrics.
//
// On disk the format is a fixed 8-byte magic ("STRKECO\n"), a u32
// format version, a length-prefixed informational JSON header, a
// little-endian binary payload, and a trailing FNV-1a checksum over
// everything before it. Doubles are stored bit-exact (no text
// round-trip), so a load/save cycle is byte-identical and the ECO
// equivalence guarantee is well defined.
//
// The reader is hardened for hostile input (tests/fuzz_test.cpp):
// truncated, bit-flipped or version-skewed files produce a structured
// robust::StreakError (kind invalid-input, site "eco/read"), never
// undefined behavior. Beyond parse bounds checks it verifies the stored
// usage against a recompute from the stored topologies, so a checkpoint
// that parses is also internally consistent.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "core/options.hpp"
#include "core/signal.hpp"
#include "core/solution.hpp"
#include "flow/streak.hpp"

namespace streak::eco {

inline constexpr int kCheckpointVersion = 2;
inline constexpr const char* kCheckpointSchema = "streak-eco-checkpoint";

/// In-memory image of a routed-state checkpoint. Owns its Design (the
/// routed bits and usage pairs refer to its grid's edge ids).
struct Checkpoint {
    std::unique_ptr<Design> design;
    /// Semantic option subset of the original run (solver, weights, post
    /// switches, threads). Runtime-only knobs — deadline, cancellation,
    /// recovery policy — are not serialized and stay default.
    StreakOptions opts;
    /// Solver artifact: selected candidate per routing object (-1 =
    /// unrouted). Kept for round-trips and diagnostics; the ECO re-route
    /// does not consume it. Empty for checkpoints made from ECO output.
    std::vector<int> chosen;
    /// Routed bits with global group indices, in the original run's
    /// emission order (per-group relative order is what equivalence
    /// stitching relies on).
    std::vector<RoutedBit> bits;
    /// Unrouted bits as (groupIndex, bitIndex) pairs, sorted.
    std::vector<std::pair<int, int>> unroutedBits;
    /// Nonzero per-edge track usage as sorted (edgeId, tracks) pairs.
    std::vector<std::pair<int, int>> usagePairs;
    /// Nonzero per-cell via usage; empty unless the grid's via model is
    /// enabled.
    std::vector<std::pair<int, int>> viaUsagePairs;
    /// Per-group Vio(dst) flags of the original run (may be empty for
    /// pre-flag checkpoints; treated as all-clean).
    std::vector<char> groupDistanceBefore;
    std::vector<char> groupDistanceAfter;
    Metrics metrics;
    int distanceViolationsBefore = 0;
    int distanceViolationsAfter = 0;
    int pdIterations = 0;
    bool hitTimeLimit = false;
};

/// The option subset a checkpoint round-trips: everything that changes
/// the routed result, nothing that only shapes one process's run
/// (deadline, cancellation, recovery policy, control ticket).
[[nodiscard]] StreakOptions semanticOptions(const StreakOptions& opts);

/// Freeze a finished flow run. Copies the design; maps the result's
/// (objectIndex, memberIndex) unrouted pairs to (group, bit).
[[nodiscard]] Checkpoint makeCheckpoint(const Design& design,
                                        const StreakOptions& opts,
                                        const StreakResult& result);

void writeCheckpoint(const Checkpoint& ckpt, std::ostream& os);
void writeCheckpointFile(const Checkpoint& ckpt, const std::string& path);

/// Parse and validate a checkpoint. Raises robust::StreakException
/// (kind invalid-input, site "eco/read") on any malformation: bad magic,
/// unsupported version, checksum mismatch, truncation, out-of-range
/// indices, or stored usage that does not match a recompute from the
/// stored topologies.
[[nodiscard]] Checkpoint readCheckpoint(std::istream& is);
[[nodiscard]] Checkpoint readCheckpointFile(const std::string& path);

/// Parse a checkpoint from an in-memory buffer (the fuzz harness entry).
[[nodiscard]] Checkpoint readCheckpointBuffer(std::string_view data);

}  // namespace streak::eco
