// Per-run observability sessions (DESIGN.md "Observability"): binding
// semantics (save/restore of session + span context), isolation of
// counters / histograms / spans / the detail gate between sessions, and
// the flow-level contract the campaign runner depends on — every run
// records into a session of its own and never into the caller's, so
// sequential and concurrent in-process runs report exactly what a fresh
// process would, at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "obs/counters.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

namespace streak {
namespace {

void expectSnapshotsEqual(const obs::Snapshot& a, const obs::Snapshot& b) {
    EXPECT_EQ(a.counters, b.counters);
    ASSERT_EQ(a.histograms.size(), b.histograms.size());
    for (const auto& [name, hv] : a.histograms) {
        ASSERT_TRUE(b.histograms.contains(name)) << name;
        const auto& other = b.histograms.at(name);
        EXPECT_EQ(other.upperBounds, hv.upperBounds) << name;
        EXPECT_EQ(other.counts, hv.counts) << name;
        EXPECT_EQ(other.total, hv.total) << name;
        EXPECT_EQ(other.sum, hv.sum) << name;
    }
}

/// Timestamp-free skeleton of a trace: (name, parent index, track).
std::vector<std::tuple<std::string, int, int>> structureOf(
    const obs::Trace& trace) {
    std::vector<std::tuple<std::string, int, int>> out;
    out.reserve(trace.size());
    for (const obs::Span& span : trace) {
        out.emplace_back(span.name, span.parent, span.thread);
    }
    return out;
}

/// Order- and track-insensitive skeleton: sorted (name, parent name)
/// pairs. Concurrent workers may interleave span begin order and swap
/// tracks between runs, but which spans exist and where they attach is
/// deterministic.
std::vector<std::pair<std::string, std::string>> shapeOf(
    const obs::Trace& trace) {
    std::vector<std::pair<std::string, std::string>> out;
    out.reserve(trace.size());
    for (const obs::Span& span : trace) {
        out.emplace_back(span.name,
                         span.parent >= 0
                             ? trace[static_cast<size_t>(span.parent)].name
                             : std::string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

TEST(Session, CountersAndHistogramsIsolateBetweenSessions) {
    obs::Session a;
    obs::Session b;
    {
        const obs::SessionBind bind(a);
        obs::session().counter("test/session.iso").add(3);
        obs::session().histogram("test/session.hist", {10}).record(4);
    }
    {
        const obs::SessionBind bind(b);
        obs::session().counter("test/session.iso").add(5);
    }
    const obs::Snapshot snapA = a.snapshotMetrics();
    const obs::Snapshot snapB = b.snapshotMetrics();
    EXPECT_EQ(snapA.counters.at("test/session.iso"), 3);
    EXPECT_EQ(snapB.counters.at("test/session.iso"), 5);
    EXPECT_TRUE(snapA.histograms.contains("test/session.hist"));
    EXPECT_FALSE(snapB.histograms.contains("test/session.hist"));
    // Neither bind leaked into the process-global default session.
    const obs::Snapshot global = obs::defaultSession().snapshotMetrics();
    EXPECT_FALSE(global.counters.contains("test/session.iso"));
    EXPECT_FALSE(global.histograms.contains("test/session.hist"));
}

TEST(Session, BindRestoresPreviousSessionAndSpanContext) {
    obs::Session a;
    obs::Session b;
    const obs::SessionBind bindA(a);
    obs::SpanScope outer("test/session.outer");
    EXPECT_EQ(a.tracer().currentSpan(), outer.id());
    {
        const obs::SessionBind bindB(b);
        // A fresh bind starts with a clean span context: ids are indices
        // into the *bound* tracer and must never cross sessions.
        EXPECT_EQ(b.tracer().currentSpan(), -1);
        obs::SpanScope inner("test/session.inner");
        EXPECT_EQ(b.tracer().currentSpan(), inner.id());
    }
    EXPECT_EQ(a.tracer().currentSpan(), outer.id());
    EXPECT_EQ(obs::findSpan(a.tracer().snapshot(), "test/session.inner"),
              nullptr);
    EXPECT_NE(obs::findSpan(b.tracer().snapshot(), "test/session.inner"),
              nullptr);
}

TEST(Session, DetailGateIsPerSession) {
    const bool globalBefore = obs::defaultSession().detailEnabled();
    obs::Session a;
    {
        const obs::SessionBind bind(a);
        obs::setDetailEnabled(true);  // routes to the bound session
        EXPECT_TRUE(obs::detailEnabled());
    }
    EXPECT_TRUE(a.detailEnabled());
    EXPECT_EQ(obs::defaultSession().detailEnabled(), globalBefore);
}

/// Small two-pin design shared by the flow-level tests.
Design smallDesign() {
    gen::SuiteSpec spec = gen::synthSpec(1);
    spec.numGroups = 6;
    spec.gridWidth = 48;
    spec.gridHeight = 48;
    return gen::generate(spec);
}

struct SessionRun {
    obs::Snapshot counters;
    obs::Trace trace;
};

StreakOptions postOptions(int threads) {
    StreakOptions opts;
    opts.postOptimize = true;
    opts.threads = threads;
    return opts;
}

/// One flow run started from a thread bound to a detail-on session, as a
/// campaign sweep point starts it. The run records into a brand-new
/// session of its own — what a fresh process would report for the same
/// design and options — and leaves the caller's session empty.
SessionRun runInFreshSession(const Design& d, int threads) {
    obs::Session caller;
    const obs::SessionBind bind(caller);
    caller.setDetailEnabled(true);
    const StreakResult r = runStreak(d, postOptions(threads)).value();
    const obs::Snapshot untouched = caller.snapshotMetrics();
    EXPECT_TRUE(untouched.counters.empty());
    EXPECT_TRUE(untouched.histograms.empty());
    EXPECT_TRUE(caller.tracer().snapshot().empty());
    return {r.counters, r.trace};
}

TEST(SessionFlow, SequentialSessionRunsMatchAFreshRunAtEveryThreadCount) {
    const Design d = smallDesign();
    obs::Snapshot countersAtOneThread;
    for (const int threads : {1, 2, 8}) {
        // The first run of a fresh session is the fresh-process baseline;
        // the two sequential re-runs must be indistinguishable from it.
        const SessionRun fresh = runInFreshSession(d, threads);
        const SessionRun second = runInFreshSession(d, threads);
        const SessionRun third = runInFreshSession(d, threads);
        expectSnapshotsEqual(second.counters, fresh.counters);
        expectSnapshotsEqual(third.counters, fresh.counters);
        if (threads == 1) {
            // Single-threaded span recording is fully deterministic:
            // the whole skeleton matches span for span.
            EXPECT_EQ(structureOf(second.trace), structureOf(fresh.trace));
            EXPECT_EQ(structureOf(third.trace), structureOf(fresh.trace));
            countersAtOneThread = fresh.counters;
        } else {
            // Workers may interleave begin order and swap tracks, but
            // the set of spans and their parents is deterministic.
            EXPECT_EQ(shapeOf(second.trace), shapeOf(fresh.trace));
            EXPECT_EQ(shapeOf(third.trace), shapeOf(fresh.trace));
            // Determinism contract: counters thread-count-invariant.
            expectSnapshotsEqual(fresh.counters, countersAtOneThread);
        }
    }
}

TEST(SessionFlow, ScopedRunLeavesTheDefaultSessionUntouched) {
    // An unbound caller with detail on: the run still records into its
    // own session, never into the process-global default one.
    const testutil::DetailGuard guard;
    obs::setDetailEnabled(true);
    const Design d = smallDesign();
    obs::Session& global = obs::defaultSession();
    const obs::Snapshot before = global.snapshotMetrics();
    const size_t spansBefore = global.tracer().snapshot().size();
    const StreakResult r = runStreak(d, postOptions(2)).value();
    EXPECT_TRUE(r.counters.counters.contains("solve/pd.iterations"));
    expectSnapshotsEqual(global.snapshotMetrics(), before);
    EXPECT_EQ(global.tracer().snapshot().size(), spansBefore);
}

TEST(SessionFlow, ConcurrentRunsMatchALoneRun) {
    // Two runs at once from two unbound threads: neither may see the
    // other's counters or spans.
    const testutil::DetailGuard guard;
    obs::setDetailEnabled(true);
    const Design d = smallDesign();
    const StreakOptions opts = postOptions(2);
    const StreakResult lone = runStreak(d, opts).value();
    ASSERT_TRUE(lone.counters.counters.contains("solve/pd.iterations"));
    for (int trial = 0; trial < 20; ++trial) {
        std::atomic<int> arrived{0};
        // runStreak never throws, so nothing escapes a thread.
        std::vector<std::optional<FlowResult>> runs(2);
        std::vector<std::thread> threads;
        for (size_t t = 0; t < runs.size(); ++t) {
            threads.emplace_back([&, t] {
                // Both threads are up before either starts routing.
                arrived.fetch_add(1);
                while (arrived.load() < 2) std::this_thread::yield();
                runs[t].emplace(runStreak(d, opts));
            });
        }
        for (std::thread& th : threads) th.join();
        for (const std::optional<FlowResult>& run : runs) {
            ASSERT_TRUE(run->ok()) << run->error().describe();
            expectSnapshotsEqual(run->value().counters, lone.counters);
            EXPECT_EQ(shapeOf(run->value().trace), shapeOf(lone.trace));
        }
        if (::testing::Test::HasFailure()) {
            FAIL() << "trial " << trial << " differs from the lone run";
        }
    }
}

TEST(SessionFlow, HistogramsFollowTheRunSessionNotTheFirstCaller) {
    // Regression: the edge-utilization histogram handle was cached in a
    // function-local static, pinning the session of whichever run came
    // first — later runs under other sessions silently recorded there,
    // so their own snapshot missed the histogram and the stale session's
    // deltas bled across runs.
    const Design d = smallDesign();
    const SessionRun first = runInFreshSession(d, 1);
    const SessionRun second = runInFreshSession(d, 1);
    ASSERT_TRUE(
        first.counters.histograms.contains("route/edge.utilization_pct"));
    ASSERT_TRUE(
        second.counters.histograms.contains("route/edge.utilization_pct"));
    expectSnapshotsEqual(second.counters, first.counters);
}

}  // namespace
}  // namespace streak
