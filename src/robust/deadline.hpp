// Run-wide deadline (DESIGN.md "Robustness").
//
// One wall-clock budget governs the whole flow: runStreak() arms a
// Deadline from StreakOptions::deadlineSeconds and carries it by value
// inside the options struct every stage already receives. Hot loops
// poll it at their natural tick points (LP pivots, B&B nodes, PD
// iterations, clustering rounds, refine waves, pool tasks), so an
// over-budget run unwinds cleanly at the next tick via a structured
// StreakException.
//
// Determinism contract: the deadline never feeds timing back into any
// algorithmic decision — a run that finishes inside its budget behaves
// byte-identically to one with no deadline at all.
//
// Deadline is built on obs::Stopwatch so the raw-std::chrono lint rule
// stays confined to src/obs and src/parallel.
#pragma once

#include "obs/trace.hpp"
#include "robust/error.hpp"

namespace streak::robust {

/// The structured error of a deadline that expired at tick point `site`.
/// Recoverable: a stage cut short may still degrade to the last valid
/// partial solution (see the ladder in flow/streak.cpp).
[[nodiscard]] StreakError deadlineError(const char* site);

/// Wall-clock budget that starts at construction; copies share the
/// start. A budget of <= 0 seconds (the default) means no deadline: it
/// never expires, and a poll costs one branch.
class Deadline {
public:
    Deadline() = default;
    explicit Deadline(double seconds) : budget_(seconds) {}

    [[nodiscard]] bool armed() const { return budget_ > 0.0; }
    [[nodiscard]] bool expired() const {
        return armed() && watch_.seconds() > budget_;
    }

    /// Throws deadlineError(site) once expired; no-op otherwise.
    void checkpoint(const char* site) const {
        if (expired()) raise(deadlineError(site));
    }

private:
    obs::Stopwatch watch_;
    double budget_ = 0.0;
};

}  // namespace streak::robust
