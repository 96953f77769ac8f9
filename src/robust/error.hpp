// Structured flow errors (DESIGN.md "Robustness").
//
// Every failure that crosses a flow-stage boundary is a StreakError: a
// machine-readable (kind, stage, site) triple plus a human message and a
// recoverability flag. Inside the flow the error travels as a
// StreakException; runStreak() converts it into the error arm of
// FlowResult, and the CLI maps the kind to a distinct exit code, so no
// raw std::runtime_error ever reaches a caller of the public API.
//
// `recoverable` is the degradation ladder's contract: a recoverable
// error thrown inside a stage lets the flow fall back to a cheaper
// engine or the last valid partial solution (see flow/streak.cpp);
// a non-recoverable one unwinds the whole run.
#pragma once

#include <stdexcept>
#include <string>

namespace streak::robust {

enum class ErrorKind {
    InvalidInput,     ///< malformed design / options (parse errors included)
    DeadlineExpired,  ///< the run-wide wall-clock budget ran out
    FaultInjected,    ///< a STREAK_FAULT_POINT fired (tests / chaos runs)
    Internal,         ///< unexpected failure (wrapped foreign exception)
};

/// Stable lower-case name, e.g. "deadline-expired" (report + CLI output).
[[nodiscard]] const char* errorKindName(ErrorKind kind);

/// CLI exit code for a failed run. Distinct per kind so unattended
/// campaigns can triage without parsing stderr (documented in README):
/// 3 invalid-input, 4 deadline-expired, 6 fault-injected, 7 internal.
/// 0/1/2 keep their historical meanings (ok / unexpected exception /
/// usage); 5 is unused.
[[nodiscard]] int exitCodeFor(ErrorKind kind);

struct StreakError {
    ErrorKind kind = ErrorKind::Internal;
    /// Flow stage that failed ("flow/build", "flow/solve", ...); filled
    /// in by the stage wrapper if the throw site left it empty.
    std::string stage;
    /// Finer-grained fault site ("lp/solve", "maze/search", ...), empty
    /// when the failure has no registered site.
    std::string site;
    std::string message;
    /// True when the degradation ladder may absorb this error at a stage
    /// boundary instead of failing the run.
    bool recoverable = false;

    /// "deadline-expired at flow/solve (lp/solve): run budget ... "
    [[nodiscard]] std::string describe() const;
};

/// The in-flight form of a StreakError. Thrown at fault sites and tick
/// points; caught only at stage boundaries (flow) and the runStreak()
/// rim, never leaked past the public API. Derives from
/// std::runtime_error so pre-existing catch sites (and tests) that
/// dispatch on runtime_error keep working; what() tracks noteStage().
class StreakException : public std::runtime_error {
public:
    explicit StreakException(StreakError error);

    [[nodiscard]] const char* what() const noexcept override {
        return what_.c_str();
    }
    [[nodiscard]] const StreakError& error() const { return error_; }

    /// Stage annotation for the flow's stage wrapper: records `stage`
    /// if the throw site left it empty (keeps the innermost stage).
    void noteStage(const std::string& stage);

private:
    StreakError error_;
    std::string what_;
};

/// Throw `error` as a StreakException.
[[noreturn]] void raise(StreakError error);

}  // namespace streak::robust
