// Synthetic signal-group design generator.
//
// The paper evaluates on seven proprietary 10nm industrial benchmarks;
// this generator is the substitution (see DESIGN.md): deterministic
// synthetic designs with the same structure — bundles of bits with
// adjacent pins, a mix of routing styles per group (so identification
// yields several objects), two-pin and multipin suites, and blockages for
// congestion — scaled to sizes where the in-house ILP is usable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/signal.hpp"

namespace streak::gen {

struct SuiteSpec {
    std::string name;
    int gridWidth = 64;
    int gridHeight = 64;
    int numLayers = 6;
    int capacity = 12;

    int numGroups = 20;
    int minGroupWidth = 4;   // bits per group
    int maxGroupWidth = 12;  // "W_max" knob
    /// Maximum pins per bit ("Np_max"); 2 = classic two-pin buses.
    int maxPins = 2;
    /// Fraction of groups containing multipin bits (when maxPins > 2).
    double multipinFraction = 0.5;
    /// Probability that a group splits into two routing styles (Fig. 1).
    double twoStyleFraction = 0.4;
    /// Probability that a bit's sinks are pulled closer to the driver
    /// (direction-preserving), creating source-to-sink deviation.
    double stretchFraction = 0.12;

    int numBlockages = 6;
    int blockageMaxSize = 8;       // G-Cells per side
    int blockageRemainingCap = 1;  // tracks left under a blockage

    /// Per-G-Cell via-slot capacity (pin-access model); -1 disables.
    int viaCapacity = -1;

    std::uint32_t seed = 1;
};

/// Generate a design from the spec. Deterministic in the seed.
[[nodiscard]] Design generate(const SuiteSpec& spec);

/// Specs mirroring the structure of Table I's Industry1-7 (two-pin suites
/// 1-4, multipin suites 5-7; suite 3 and 6 congested). `index` in [1, 7].
[[nodiscard]] SuiteSpec synthSpec(int index);

/// Convenience: generate synth<index>.
[[nodiscard]] Design makeSynth(int index);

/// synthSpec(index) scaled down ("synthN-shrunk") so full ILP sweeps
/// finish in seconds — the campaign runner's default instance family,
/// behind the committed BENCH_campaign.jsonl store and check.sh's
/// drills. Counter trajectories are only comparable across those
/// consumers because they all route the *same* shrunk designs.
[[nodiscard]] SuiteSpec shrunkSynthSpec(int index);

/// Size series for the Fig. 13 scalability study: the base suite scaled
/// by group count (and, for the multipin series, enriched with pseudo
/// pins/bits, as the paper does to enlarge Industry2).
[[nodiscard]] std::vector<SuiteSpec> scalabilitySpecs(bool multipin,
                                                      int steps);

}  // namespace streak::gen
