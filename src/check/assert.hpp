// Runtime-contract macros and the check-level machinery (DESIGN.md
// "Correctness tooling").
//
// Three macro tiers, all with formatted context messages:
//
//   STREAK_REQUIRE(cond, "fmt", ...)    precondition on a public entry point
//   STREAK_ASSERT(cond, "fmt", ...)     internal consistency, cheap to test
//   STREAK_INVARIANT(cond, "fmt", ...)  expensive structural invariant
//
// The compile-time level is the STREAK_CHECKS macro (1 = cheap, 2 = deep;
// CMake option STREAK_CHECKS=cheap|deep, default cheap). REQUIRE and
// ASSERT always fire. INVARIANT — and the STREAK_DEEP_AUDIT hook used at
// stage boundaries — fire only when the *runtime* level is deep: the
// runtime level defaults to the compiled level and can be raised or
// lowered through the STREAK_CHECKS environment variable or
// check::setRuntimeLevel(), so a cheap production build can still run its
// deep auditors under a test harness.
//
// Messages use a tiny "{}" formatter; the format string must be a string
// literal:
//
//   STREAK_ASSERT(usage >= 0, "edge {} usage went negative ({})", e, usage);
//
// On failure the installed FailureHandler receives the full message
// (expression, formatted context, file:line). The default handler prints
// to stderr and aborts; tests install check::throwingFailureHandler to
// turn failures into catchable check::CheckFailure exceptions.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#ifndef STREAK_CHECKS
#define STREAK_CHECKS 1
#endif

namespace streak::check {

enum class Level : int { Cheap = 1, Deep = 2 };

inline constexpr int kCompiledLevel = STREAK_CHECKS;
static_assert(kCompiledLevel == 1 || kCompiledLevel == 2,
              "STREAK_CHECKS must be 1 (cheap) or 2 (deep)");

/// Effective runtime level: env STREAK_CHECKS (cheap/deep or 1/2) read
/// once, else the compiled level; overridable via setRuntimeLevel.
[[nodiscard]] Level runtimeLevel();
void setRuntimeLevel(Level level);

/// True when deep checks should execute: the runtime level is Deep.
[[nodiscard]] inline bool deepChecksEnabled() {
    return runtimeLevel() >= Level::Deep;
}

namespace detail {

inline void formatInto(std::ostringstream& os, const char* fmt) { os << fmt; }

template <typename T, typename... Rest>
void formatInto(std::ostringstream& os, const char* fmt, const T& value,
                const Rest&... rest) {
    while (*fmt != '\0') {
        if (fmt[0] == '{' && fmt[1] == '}') {
            os << value;
            formatInto(os, fmt + 2, rest...);
            return;
        }
        os << *fmt++;
    }
    // More arguments than "{}" slots: append them so context is never lost.
    os << " [" << value;
    ((os << ", " << rest), ...);
    os << ']';
}

}  // namespace detail

/// "{}"-style formatting: format("edge {}", 3) == "edge 3". Surplus
/// arguments are appended in brackets rather than dropped.
template <typename... Args>
[[nodiscard]] std::string format(const char* fmt, const Args&... args) {
    std::ostringstream os;
    detail::formatInto(os, fmt, args...);
    return os.str();
}

/// What a failing check throws under the throwing handler.
class CheckFailure : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

using FailureHandler = void (*)(const std::string& message);

/// Install a failure handler; returns the previous one. Passing nullptr
/// restores the default (print to stderr + abort). A handler may throw; if
/// it returns normally the process still aborts.
FailureHandler setFailureHandler(FailureHandler handler);

/// Handler that throws CheckFailure with the failure message (for tests).
[[noreturn]] void throwingFailureHandler(const std::string& message);

/// Report a failed check: builds the message, invokes the handler, aborts
/// if the handler returns.
[[noreturn]] void fail(const char* kind, const char* expr, const char* file,
                       int line, const std::string& detail);

/// Result of a deep auditor: a list of human-readable findings. Empty
/// means the audited structure is consistent. Auditors stop collecting
/// once kMaxIssues findings accumulate (the structure is corrupt either
/// way; avoid flooding).
struct AuditResult {
    static constexpr size_t kMaxIssues = 64;

    std::string subject;
    std::vector<std::string> issues;

    [[nodiscard]] bool ok() const { return issues.empty(); }
    [[nodiscard]] bool full() const { return issues.size() >= kMaxIssues; }

    template <typename... Args>
    void addf(const char* fmt, const Args&... args) {
        if (!full()) issues.push_back(format(fmt, args...));
    }

    /// Findings joined into one message (at most `maxShown` shown).
    [[nodiscard]] std::string summary(size_t maxShown = 8) const;
};

/// Fail (through the handler) when an audit found issues.
void enforce(const AuditResult& result, const char* expr, const char* file,
             int line);

/// Epsilon helper the lint pass points float == comparisons at.
[[nodiscard]] constexpr bool approxEqual(double a, double b,
                                         double eps = 1e-9) {
    const double diff = a > b ? a - b : b - a;
    const double mag = (a > 0 ? a : -a) > (b > 0 ? b : -b) ? (a > 0 ? a : -a)
                                                           : (b > 0 ? b : -b);
    return diff <= eps * (mag > 1.0 ? mag : 1.0);
}

}  // namespace streak::check

#define STREAK_CHECK_IMPL_(kind, cond, ...)                                  \
    do {                                                                     \
        if (!(cond)) [[unlikely]] {                                          \
            ::streak::check::fail(kind, #cond, __FILE__, __LINE__,           \
                                  ::streak::check::format("" __VA_ARGS__));  \
        }                                                                    \
    } while (false)

#define STREAK_ASSERT(cond, ...) STREAK_CHECK_IMPL_("assertion", cond, __VA_ARGS__)
#define STREAK_REQUIRE(cond, ...) \
    STREAK_CHECK_IMPL_("precondition", cond, __VA_ARGS__)
#define STREAK_INVARIANT(cond, ...)                                          \
    do {                                                                     \
        if (::streak::check::deepChecksEnabled() && !(cond)) [[unlikely]] {  \
            ::streak::check::fail("invariant", #cond, __FILE__, __LINE__,    \
                                  ::streak::check::format("" __VA_ARGS__));  \
        }                                                                    \
    } while (false)
/// Evaluate an auditor expression at a stage boundary and fail on
/// findings; skipped entirely unless deep checks are enabled.
#define STREAK_DEEP_AUDIT(auditExpr)                                         \
    do {                                                                     \
        if (::streak::check::deepChecksEnabled()) [[unlikely]] {             \
            ::streak::check::enforce((auditExpr), #auditExpr, __FILE__,      \
                                     __LINE__);                              \
        }                                                                    \
    } while (false)
