// Observability layer suite (DESIGN.md "Observability"): span nesting
// and worker-thread attachment, counter / histogram semantics, the
// determinism contract (run counters byte-identical across thread
// counts), the caller's detail gate, the JSON run report round-tripped
// through the bundled parser and the chrome://tracing export's
// structural validity.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "flow/report.hpp"
#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "test_util.hpp"

namespace streak {
namespace {

using testutil::DetailGuard;

const obs::Span* spanNamed(const obs::Trace& trace, std::string_view name) {
    return obs::findSpan(trace, name);
}

TEST(Tracer, NestsSpansAndRestoresCurrent) {
    obs::Tracer& tracer = obs::defaultSession().tracer();
    tracer.reset();
    EXPECT_EQ(tracer.currentSpan(), -1);
    {
        obs::SpanScope outer("test/outer");
        EXPECT_EQ(tracer.currentSpan(), outer.id());
        {
            obs::SpanScope inner("test/inner");
            EXPECT_EQ(tracer.currentSpan(), inner.id());
        }
        EXPECT_EQ(tracer.currentSpan(), outer.id());
        obs::SpanScope sibling("test/sibling");
    }
    EXPECT_EQ(tracer.currentSpan(), -1);

    const obs::Trace trace = tracer.snapshot();
    ASSERT_EQ(trace.size(), 3u);
    const obs::Span* outer = spanNamed(trace, "test/outer");
    const obs::Span* inner = spanNamed(trace, "test/inner");
    const obs::Span* sibling = spanNamed(trace, "test/sibling");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(sibling, nullptr);
    EXPECT_EQ(outer->parent, -1);
    EXPECT_EQ(inner->parent, 0);    // outer was recorded first
    EXPECT_EQ(sibling->parent, 0);  // sibling of inner, child of outer
    EXPECT_GE(inner->startSeconds, outer->startSeconds);
    EXPECT_GE(inner->seconds(), 0.0);
    EXPECT_LE(inner->endSeconds, outer->endSeconds);
}

TEST(Tracer, SpanArgsAndQueries) {
    obs::Tracer& tracer = obs::defaultSession().tracer();
    tracer.reset();
    {
        obs::SpanScope span("test/annotated");
        span.addArg("tasks", 42.0);
    }
    const obs::Trace trace = tracer.snapshot();
    EXPECT_EQ(obs::spanArg(trace, "test/annotated", "tasks", -1.0), 42.0);
    EXPECT_EQ(obs::spanArg(trace, "test/annotated", "absent", -1.0), -1.0);
    EXPECT_EQ(obs::spanArg(trace, "test/missing", "tasks", -1.0), -1.0);
    EXPECT_GE(obs::spanSeconds(trace, "test/annotated"), 0.0);
    EXPECT_EQ(obs::spanSeconds(trace, "test/missing"), 0.0);
}

TEST(Tracer, GatedSpanScopeIsNotRecorded) {
    obs::Tracer& tracer = obs::defaultSession().tracer();
    tracer.reset();
    {
        const obs::SpanScope gated("test/skipped", /*record=*/false);
        EXPECT_EQ(gated.id(), -1);
        EXPECT_EQ(tracer.currentSpan(), -1);
    }
    EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Tracer, WorkerSpansAttachUnderRegionSpan) {
    DetailGuard guard;
    obs::setDetailEnabled(true);
    obs::Tracer& tracer = obs::defaultSession().tracer();
    tracer.reset();
    {
        obs::SpanScope owner("test/owner");
        parallel::ThreadPool pool(4);
        pool.parallelFor(16, [](int) {
            STREAK_SPAN("test/task");
            // A little work so multiple workers participate.
            volatile double x = 0.0;
            for (int k = 0; k < 1000; ++k) x = x + k;
        });
    }
    const obs::Trace trace = tracer.snapshot();

    const obs::Span* region = spanNamed(trace, "parallel/region");
    ASSERT_NE(region, nullptr);
    const obs::Span* owner = spanNamed(trace, "test/owner");
    ASSERT_NE(owner, nullptr);
    EXPECT_EQ(owner->parent, -1);
    EXPECT_EQ(region->parent, 0);  // the owner span was recorded first

    int taskSpans = 0;
    for (const obs::Span& span : trace) {
        if (span.name != "test/task") continue;
        ++taskSpans;
        // Every task span nests under the region span, whichever thread
        // (track 0 = owner, 1.. = workers) ran the task.
        ASSERT_GE(span.parent, 0);
        EXPECT_EQ(trace[static_cast<size_t>(span.parent)].name,
                  "parallel/region");
        EXPECT_GE(span.thread, 0);
        EXPECT_LE(span.thread, 3);
    }
    EXPECT_EQ(taskSpans, 16);
}

TEST(Counters, RegistryAccumulatesAndSnapshotsDelta) {
    obs::Session session;
    obs::Counter& c = session.counter("test/obs.counter_a");
    const obs::Snapshot before = session.snapshotMetrics();
    c.add(5);
    c.add(2);
    const obs::Snapshot delta = session.snapshotMetrics().minus(before);
    EXPECT_EQ(delta.counters.at("test/obs.counter_a"), 7);
    // A second handle for the same name hits the same counter.
    session.counter("test/obs.counter_a").add(1);
    EXPECT_EQ(c.value() - before.counters.at("test/obs.counter_a"), 8);
    // minus({}) keeps only the nonzero entries, as runStreak reports them.
    (void)session.counter("test/obs.never_bumped");
    const obs::Snapshot nonzero = session.snapshotMetrics().minus({});
    EXPECT_EQ(nonzero.counters.size(), 1u);
    EXPECT_EQ(nonzero.counters.at("test/obs.counter_a"), 8);
}

TEST(Counters, HistogramBucketsAndOverflow) {
    obs::Session session;
    obs::Histogram& h = session.histogram("test/obs.hist", {10, 20, 30});
    const obs::Snapshot before = session.snapshotMetrics();
    for (const long long v : {5, 10, 11, 25, 31, 1000}) h.record(v);
    const obs::Snapshot delta = session.snapshotMetrics().minus(before);
    const auto& hv = delta.histograms.at("test/obs.hist");
    ASSERT_EQ(hv.upperBounds, (std::vector<long long>{10, 20, 30}));
    // <=10: {5, 10}; <=20: {11}; <=30: {25}; overflow: {31, 1000}.
    ASSERT_EQ(hv.counts.size(), 4u);
    EXPECT_EQ(hv.counts[0], 2);
    EXPECT_EQ(hv.counts[1], 1);
    EXPECT_EQ(hv.counts[2], 1);
    EXPECT_EQ(hv.counts[3], 2);
    EXPECT_EQ(hv.total, 6);
    EXPECT_EQ(hv.sum, 5 + 10 + 11 + 25 + 31 + 1000);
}

/// Small two-pin design shared by the flow-level tests.
Design smallDesign() {
    gen::SuiteSpec spec = gen::synthSpec(1);
    spec.numGroups = 6;
    spec.gridWidth = 48;
    spec.gridHeight = 48;
    return gen::generate(spec);
}

/// runStreak with the calling thread's detail gate on, so the run
/// records its hot-path spans and counters.
StreakResult detailedRun(const Design& d, const StreakOptions& opts) {
    DetailGuard guard;
    obs::setDetailEnabled(true);
    return runStreak(d, opts).value();
}

StreakResult detailedRun(const Design& d, int threads) {
    StreakOptions opts;
    opts.postOptimize = true;
    opts.threads = threads;
    return detailedRun(d, opts);
}

TEST(FlowObservability, CountersAreThreadCountInvariant) {
    const Design d = smallDesign();
    const StreakResult base = detailedRun(d, 1);
    EXPECT_FALSE(base.counters.counters.empty());
    EXPECT_GT(base.counters.counters.at("solve/pd.iterations"), 0);
    ASSERT_TRUE(base.counters.histograms.contains("route/edge.utilization_pct"));

    for (const int threads : {2, 8}) {
        const StreakResult r = detailedRun(d, threads);
        EXPECT_EQ(r.counters.counters, base.counters.counters)
            << threads << " threads changed a counter value";
        for (const auto& [name, hv] : base.counters.histograms) {
            const auto& got = r.counters.histograms.at(name);
            EXPECT_EQ(got.counts, hv.counts) << name;
            EXPECT_EQ(got.total, hv.total) << name;
            EXPECT_EQ(got.sum, hv.sum) << name;
        }
    }
}

TEST(FlowObservability, ClusteringCountersAreThreadCountInvariant) {
    const Design d = gen::generate(testutil::congestedMultipinSpec());
    const auto clusterCounters = [](const StreakResult& r) {
        std::map<std::string, long long> out;
        for (const auto& [name, value] : r.counters.counters) {
            if (name.starts_with("post/cluster.")) out.emplace(name, value);
        }
        return out;
    };
    const std::map<std::string, long long> base =
        clusterCounters(detailedRun(d, 1));
    ASSERT_TRUE(base.contains("post/cluster.rounds"));
    EXPECT_GT(base.at("post/cluster.rounds"), 0);
    EXPECT_GT(base.at("post/cluster.bits_routed"), 0);
    for (const int threads : {2, 8}) {
        EXPECT_EQ(clusterCounters(detailedRun(d, threads)), base)
            << threads << " threads changed a clustering counter";
    }
}

TEST(FlowObservability, BuildCountersAreThreadCountInvariant) {
    // Groups split into two routing styles give pair blocks.
    const Design d = gen::generate(gen::shrunkSynthSpec(1));
    const auto buildCounters = [](const StreakResult& r) {
        std::map<std::string, long long> out;
        for (const auto& [name, value] : r.counters.counters) {
            if (name.starts_with("build/")) out.emplace(name, value);
        }
        return out;
    };
    const StreakResult first = detailedRun(d, 1);
    const std::map<std::string, long long> base = buildCounters(first);
    for (const char* name :
         {"build/candidates.objects", "build/candidates.backbones",
          "build/candidates.candidates", "build/pairs.blocks",
          "build/pairs.ratio_evals"}) {
        ASSERT_TRUE(base.contains(name)) << name;
    }
    EXPECT_EQ(base.at("build/candidates.objects"), first.problem.numObjects());
    EXPECT_GT(base.at("build/pairs.ratio_evals"), 0);
    // Both parallel regions of the build stage have their own span.
    const obs::Span* buildSpan = obs::findSpan(first.trace, stage::kBuild);
    ASSERT_NE(buildSpan, nullptr);
    for (const char* name : {"build/candidates", "build/pairs"}) {
        const obs::Span* span = obs::findSpan(first.trace, name);
        ASSERT_NE(span, nullptr) << name;
        EXPECT_EQ(first.trace[static_cast<size_t>(span->parent)].name,
                  stage::kBuild);
    }
    for (const int threads : {2, 8}) {
        EXPECT_EQ(buildCounters(detailedRun(d, threads)), base)
            << threads << " threads changed a build counter";
    }
}

TEST(FlowObservability, PdWorkCountersAreThreadCountInvariant) {
    // One track per edge makes candidates compete, so commits prune.
    gen::SuiteSpec spec = testutil::congestedMultipinSpec();
    spec.capacity = 1;
    const Design d = gen::generate(spec);
    const auto pdCounters = [](const StreakResult& r) {
        std::map<std::string, long long> out;
        for (const auto& [name, value] : r.counters.counters) {
            if (name.starts_with("solve/pd.")) out.emplace(name, value);
        }
        return out;
    };
    const std::map<std::string, long long> base =
        pdCounters(detailedRun(d, 1));
    for (const char* name : {"solve/pd.recosts", "solve/pd.prune_checks"}) {
        ASSERT_TRUE(base.contains(name)) << name;
        EXPECT_GT(base.at(name), 0) << name;
    }
    for (const int threads : {2, 8}) {
        EXPECT_EQ(pdCounters(detailedRun(d, threads)), base)
            << threads << " threads changed a primal-dual counter";
    }
}

TEST(FlowObservability, DistanceAnalysisHasItsOwnSpanAndCounter) {
    const Design d = smallDesign();
    const StreakResult first = detailedRun(d, 1);
    // Three analyses per run: the distance stage's, then refinement's
    // before and after its detour pass.
    std::vector<std::string> parents;
    for (const obs::Span& span : first.trace) {
        if (span.name != "distance/analyze") continue;
        ASSERT_GE(span.parent, 0);
        parents.push_back(first.trace[static_cast<size_t>(span.parent)].name);
    }
    EXPECT_EQ(parents, (std::vector<std::string>{stage::kDistance, "post/refine",
                                                 "post/refine"}));
    ASSERT_TRUE(first.counters.counters.contains("distance/analyze.bits"));
    const long long bits = first.counters.counters.at("distance/analyze.bits");
    EXPECT_GT(bits, 0);
    for (const int threads : {2, 8}) {
        EXPECT_EQ(detailedRun(d, threads)
                      .counters.counters.at("distance/analyze.bits"),
                  bits)
            << threads << " threads changed the analyzed bit count";
    }
}

TEST(FlowObservability, RunTraceBacksTheStageAccessors) {
    const Design d = smallDesign();
    const StreakResult r = detailedRun(d, 1);
    const obs::Span* run = obs::findSpan(r.trace, stage::kRun);
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->parent, -1);
    EXPECT_FALSE(r.counters.counters.empty());

    // The derived accessors read the run's own span tree.
    EXPECT_GT(r.totalSeconds(), 0.0);
    EXPECT_GT(r.buildSeconds(), 0.0);
    EXPECT_GE(r.totalSeconds(), r.buildSeconds() + r.solveSeconds() +
                                    r.distanceSeconds() + r.postSeconds());
    EXPECT_EQ(r.buildParallel().threads, 1);
    EXPECT_GT(r.buildParallel().regions, 0);
}

TEST(FlowObservability, DetailFollowsTheCallersGate) {
    DetailGuard guard;
    const Design d = smallDesign();
    StreakOptions opts;
    opts.postOptimize = true;
    opts.threads = 1;
    obs::setDetailEnabled(false);
    const StreakResult quiet = runStreak(d, opts).value();
    // Stage spans always record; hot-path counters stay silent.
    EXPECT_GT(quiet.totalSeconds(), 0.0);
    EXPECT_FALSE(quiet.counters.counters.contains("solve/pd.iterations"));
    EXPECT_EQ(obs::findSpan(quiet.trace, "solve/pd"), nullptr);
    EXPECT_FALSE(obs::detailEnabled());

    obs::setDetailEnabled(true);
    const StreakResult detailed = runStreak(d, opts).value();
    EXPECT_TRUE(detailed.counters.counters.contains("solve/pd.iterations"));
    EXPECT_NE(obs::findSpan(detailed.trace, "solve/pd"), nullptr);
    // The run reads the caller's gate and leaves it as it was.
    EXPECT_TRUE(obs::detailEnabled());
}

TEST(Report, RoundTripsThroughParser) {
    const Design d = smallDesign();
    StreakOptions opts;
    opts.postOptimize = true;
    opts.threads = 2;
    const StreakResult r = detailedRun(d, opts);

    std::ostringstream os;
    flow::writeRunReport(d, opts, r, os);
    std::string error;
    const obs::json::Value doc = obs::json::parse(os.str(), &error);
    ASSERT_TRUE(error.empty()) << error;

    EXPECT_EQ(doc.find("schema")->asString(), flow::kReportSchema);
    EXPECT_EQ(static_cast<int>(doc.find("schemaVersion")->asNumber()),
              flow::kReportSchemaVersion);
    EXPECT_EQ(doc.find("design")->find("name")->asString(), d.name);
    EXPECT_EQ(static_cast<int>(doc.find("threadsUsed")->asNumber()), 2);
    EXPECT_EQ(doc.find("metrics")->find("wirelength")->asNumber(),
              static_cast<double>(r.metrics.wirelength));

    // Counters round-trip exactly (they are integers).
    const obs::json::Value* counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    for (const auto& [name, value] : r.counters.counters) {
        const obs::json::Value* v = counters->find(name);
        ASSERT_NE(v, nullptr) << name;
        EXPECT_EQ(static_cast<long long>(v->asNumber()), value) << name;
    }

    // The span tree starts at flow/run and its children carry the stage
    // RegionStats args the accessors derive from.
    const obs::json::Value* spans = doc.find("spans");
    ASSERT_NE(spans, nullptr);
    ASSERT_FALSE(spans->asArray().empty());
    const obs::json::Value& run = spans->asArray().front();
    EXPECT_EQ(run.find("name")->asString(), stage::kRun);
    bool sawBuild = false;
    for (const obs::json::Value& child : run.find("children")->asArray()) {
        if (child.find("name")->asString() == stage::kBuild) {
            sawBuild = true;
            const obs::json::Value* args = child.find("args");
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(static_cast<int>(args->find("threads")->asNumber()), 2);
        }
    }
    EXPECT_TRUE(sawBuild);
}

TEST(ChromeTrace, EmitsBalancedDurationEvents) {
    const Design d = smallDesign();
    const StreakResult r = detailedRun(d, 4);

    std::ostringstream os;
    obs::writeChromeTrace(r.trace, os);
    std::string error;
    const obs::json::Value doc = obs::json::parse(os.str(), &error);
    ASSERT_TRUE(error.empty()) << error;

    const obs::json::Value* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    // Bracket check per (pid, tid): B pushes, E must match the top name.
    std::map<std::pair<int, int>, std::vector<std::string>> open;
    int durations = 0;
    for (const obs::json::Value& ev : events->asArray()) {
        const std::string ph = ev.find("ph")->asString();
        if (ph == "M") continue;
        ASSERT_TRUE(ph == "B" || ph == "E") << ph;
        ++durations;
        const std::pair<int, int> track{
            static_cast<int>(ev.find("pid")->asNumber()),
            static_cast<int>(ev.find("tid")->asNumber())};
        const std::string name = ev.find("name")->asString();
        if (ph == "B") {
            open[track].push_back(name);
        } else {
            ASSERT_FALSE(open[track].empty());
            EXPECT_EQ(open[track].back(), name);
            open[track].pop_back();
        }
    }
    EXPECT_GT(durations, 0);
    for (const auto& [track, stack] : open) EXPECT_TRUE(stack.empty());
}

TEST(Json, ParsesAndRejects) {
    std::string error;
    const obs::json::Value ok = obs::json::parse(
        R"({"a": [1, 2.5, -3e2], "b": {"c": "x\n\"y\""}, "d": true, "e": null})",
        &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(ok.find("a")->asArray()[2].asNumber(), -300.0);
    EXPECT_EQ(ok.find("b")->find("c")->asString(), "x\n\"y\"");
    EXPECT_TRUE(ok.find("d")->asBool());
    EXPECT_TRUE(ok.find("e")->isNull());

    for (const char* bad : {"{", "[1,]", "{\"a\" 1}", "tru", "1 2", ""}) {
        error.clear();
        const obs::json::Value v = obs::json::parse(bad, &error);
        EXPECT_FALSE(error.empty()) << "accepted: " << bad;
    }

    // Round-trip stability: dump -> parse -> dump is a fixed point.
    const std::string once = ok.dump(2);
    const obs::json::Value again = obs::json::parse(once, &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(again.dump(2), once);
}

}  // namespace
}  // namespace streak
