// Hierarchical span tracer (DESIGN.md "Observability").
//
// A span is a named wall-clock interval in the run's call tree:
//
//   {
//       STREAK_SPAN("solve/bnb");     // RAII; nests under the current span
//       ...
//   }
//
// Spans are thread-aware: `src/parallel`'s pool propagates the span that
// was current when a parallel region started to its worker threads, so a
// span opened inside a task attaches under the region's parent span and
// carries the worker's track id (0 = flow thread, 1.. = workers).
//
// Two tiers of instrumentation:
//
//   obs::SpanScope            direct API, always compiled and always
//                             recorded — for stage-granularity spans
//                             (a handful per run; these back the
//                             StreakResult stage timings)
//   STREAK_SPAN("name")       hot-path macro — compiled out entirely at
//                             STREAK_TRACE=0 and, when compiled in,
//                             gated behind the runtime detail flag
//                             (obs::detailEnabled(), a relaxed atomic
//                             load), so the disabled cost is near zero
//
// Each obs::Session (obs/session.hpp) owns one Tracer. runStreak()
// records every run into a session of its own and copies that session's
// span tree into StreakResult::trace on exit. Spans from instrumented
// code reach the tracer of the calling thread's bound session (the
// process-global default session when none is bound).
// Timestamps live only in spans, never in counters, so counter values
// stay byte-identical across thread counts while spans remain free to
// differ.
//
// This module is also the project's one sanctioned home (with
// src/parallel) for raw std::chrono timing — streak_analyze's raw-timing
// rule rejects steady_clock use anywhere else; time code through
// obs::Stopwatch.
#pragma once

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#ifndef STREAK_TRACE
#define STREAK_TRACE 1
#endif

namespace streak::obs {

/// One closed (or still-open, endSeconds < 0) interval in the span tree.
struct Span {
    std::string name;    ///< "stage/subsystem" taxonomy, e.g. "solve/bnb"
    int parent = -1;     ///< index into the owning Trace, -1 = root
    int thread = 0;      ///< track id: 0 = flow thread, 1.. = pool workers
    double startSeconds = 0.0;  ///< since the trace epoch (tracer reset)
    double endSeconds = -1.0;   ///< < 0 while the span is still open
    /// Numeric annotations (e.g. a stage's RegionStats), exported as
    /// chrome://tracing args and queried by StreakResult accessors.
    std::vector<std::pair<std::string, double>> args;

    [[nodiscard]] double seconds() const {
        return endSeconds < 0.0 ? 0.0 : endSeconds - startSeconds;
    }
};

/// A run's span tree: spans in begin order, parent links by index.
using Trace = std::vector<Span>;

/// Sum of the durations of every span with this exact name (0 if absent).
[[nodiscard]] double spanSeconds(const Trace& trace, std::string_view name);

/// First span with this name, or nullptr.
[[nodiscard]] const Span* findSpan(const Trace& trace, std::string_view name);

/// Value of a named arg on the first span with this name (fallback if
/// either is absent).
[[nodiscard]] double spanArg(const Trace& trace, std::string_view name,
                             std::string_view key, double fallback = 0.0);

class Tracer {
public:
    Tracer() = default;
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// Runtime gate for hot-path instrumentation (STREAK_SPAN spans and
    /// counter flushes). Off by default; a relaxed atomic load to test.
    [[nodiscard]] bool detailEnabled() const {
        return detail_.load(std::memory_order_relaxed);
    }
    void setDetailEnabled(bool enabled) {
        detail_.store(enabled, std::memory_order_relaxed);
    }

    /// Drop all recorded spans and restart the epoch, for callers that
    /// reuse one session across several traced operations.
    void reset();

    /// Open a span under the calling thread's current span; returns its
    /// id. Always records (see the header comment for the two tiers).
    int beginSpan(std::string name);
    void endSpan(int id);
    void addSpanArg(int id, std::string key, double value);

    /// The calling thread's innermost open span (-1 when none).
    [[nodiscard]] int currentSpan() const;

    /// Copy of the span tree recorded since the last reset().
    [[nodiscard]] Trace snapshot() const;

    // --- thread span context (used by obs::SessionBind / WorkerBind) ---
    // Span ids are indices into the bound session's tracer; the context
    // is saved and restored together with the session binding so a
    // nested bind never mixes ids across tracers.
    struct ThreadContext {
        int span = -1;  ///< innermost open span id on this thread
        int track = 0;  ///< 0 = flow thread, 1.. = pool workers
    };
    [[nodiscard]] static ThreadContext threadContext();
    static void setThreadContext(ThreadContext context);

private:
    std::atomic<bool> detail_{false};
    mutable std::mutex mutex_;
    Trace spans_;
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
};

/// Tracer of the calling thread's bound session (defined in session.cpp;
/// declared here so the inline span helpers below stay header-only).
[[nodiscard]] Tracer& currentTracer() noexcept;

/// Shorthand for currentTracer().detailEnabled().
[[nodiscard]] inline bool detailEnabled() {
    return currentTracer().detailEnabled();
}
inline void setDetailEnabled(bool enabled) {
    currentTracer().setDetailEnabled(enabled);
}

/// RAII span over the enclosing scope. Pass record = false to make the
/// scope a no-op (how STREAK_SPAN applies the runtime gate). The tracer
/// is resolved from the bound session at construction and kept, so the
/// span closes on the tracer that opened it even across a rebind.
class SpanScope {
public:
    explicit SpanScope(std::string name, bool record = true)
        : tracer_(record ? &currentTracer() : nullptr),
          id_(tracer_ != nullptr ? tracer_->beginSpan(std::move(name)) : -1) {}
    ~SpanScope() {
        if (id_ >= 0) tracer_->endSpan(id_);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    [[nodiscard]] int id() const { return id_; }
    void addArg(std::string key, double value) {
        if (id_ >= 0) tracer_->addSpanArg(id_, std::move(key), value);
    }

private:
    Tracer* tracer_;
    int id_;
};

/// The project's stopwatch: every module that needs elapsed wall time
/// uses this instead of touching std::chrono directly (lint-enforced).
class Stopwatch {
public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}
    [[nodiscard]] double seconds() const {
        const std::chrono::duration<double> d =
            std::chrono::steady_clock::now() - start_;
        return d.count();
    }
    void restart() { start_ = std::chrono::steady_clock::now(); }

private:
    std::chrono::steady_clock::time_point start_;
};

}  // namespace streak::obs

#if STREAK_TRACE >= 1
#define STREAK_OBS_CONCAT_IMPL_(a, b) a##b
#define STREAK_OBS_CONCAT_(a, b) STREAK_OBS_CONCAT_IMPL_(a, b)
/// Hot-path span: compiled out at STREAK_TRACE=0, runtime-gated otherwise.
#define STREAK_SPAN(name)                                     \
    const ::streak::obs::SpanScope STREAK_OBS_CONCAT_(        \
        streakSpan_, __LINE__)((name),                        \
                               ::streak::obs::detailEnabled())
#else
#define STREAK_SPAN(name) ((void)0)
#endif
