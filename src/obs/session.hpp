// Observability sessions (DESIGN.md "Observability").
//
// A Session owns one counter/histogram Registry and one span Tracer
// (with its runtime detail gate). Everything instrumented code records
// goes to the *calling thread's bound session*. runStreak gives every
// run a private session, so concurrent and back-to-back runs never share
// a counter or a span, and fills StreakResult::trace and ::counters from
// it. The run's detail gate starts from the caller's (obs::detailEnabled()
// on the calling thread), which is the one switch for hot-path detail:
//
//   obs::setDetailEnabled(true);       // this thread's session
//   const StreakResult r = runStreak(design, opts).value();
//   // r.counters holds this run's hot-path counters and nothing else.
//
// Code outside the flow that wants its own metrics binds a session:
//
//   obs::Session session;
//   const obs::SessionBind bind(session);   // owner thread
//   session.setDetailEnabled(true);
//   ...                                     // session.snapshotMetrics()
//
// Binding is thread-local and RAII; pool workers use
// obs::WorkerBind(session, parentSpan, track) to join the region owner's
// session. Both save and restore the previous binding *and* the thread's
// span context together — span ids are indices into the bound session's
// tracer, so the pair must always travel as one. When no session is
// bound, obs::session() resolves to the process-global default session.
#pragma once

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace streak::obs {

/// One isolated observability domain: counters + histograms + tracer +
/// detail gate. Thread-safe; the object must outlive every thread bound
/// to it.
class Session {
public:
    Session() = default;
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    [[nodiscard]] Counter& counter(std::string_view name) {
        return registry_.counter(name);
    }
    [[nodiscard]] Histogram& histogram(std::string_view name,
                                       std::vector<long long> upperBounds) {
        return registry_.histogram(name, std::move(upperBounds));
    }
    [[nodiscard]] Snapshot snapshotMetrics() const {
        return registry_.snapshot();
    }

    [[nodiscard]] Tracer& tracer() { return tracer_; }
    [[nodiscard]] const Tracer& tracer() const { return tracer_; }

    /// Per-session runtime gate for hot-path instrumentation (lives on
    /// the tracer so STREAK_SPAN and counter flushes share one flag).
    [[nodiscard]] bool detailEnabled() const {
        return tracer_.detailEnabled();
    }
    void setDetailEnabled(bool enabled) { tracer_.setDetailEnabled(enabled); }

private:
    Registry registry_;
    Tracer tracer_;
};

/// The process-global default session — what unbound threads record into.
[[nodiscard]] Session& defaultSession();

/// The calling thread's bound session, or defaultSession() when unbound.
[[nodiscard]] Session& session();

/// RAII binding of a session to the calling thread (the flow/owner
/// thread). Enters with a clean span context (no open span, track 0) and
/// restores the previous session *and* span context on destruction, so
/// nested runs under different sessions unwind correctly.
class SessionBind {
public:
    explicit SessionBind(Session& session);
    ~SessionBind();
    SessionBind(const SessionBind&) = delete;
    SessionBind& operator=(const SessionBind&) = delete;

private:
    Session* savedSession_;
    Tracer::ThreadContext savedContext_;
};

/// RAII binding for pool worker threads: installs the owning region's
/// session plus (parentSpan, track) as the worker's span context, so
/// spans opened inside tasks attach under the region's span in the
/// *same* session the region's owner was bound to.
class WorkerBind {
public:
    WorkerBind(Session& session, int parentSpan, int track);
    ~WorkerBind();
    WorkerBind(const WorkerBind&) = delete;
    WorkerBind& operator=(const WorkerBind&) = delete;

private:
    Session* savedSession_;
    Tracer::ThreadContext savedContext_;
};

}  // namespace streak::obs
