// Chaos suite (DESIGN.md "Robustness", check.sh stage 7): sweep every
// cataloged fault site across the shrunk synth suites with a seeded
// fault schedule and assert the flow's fault-tolerance contract — every
// run either returns an audited-clean solution (possibly degraded) or a
// structured StreakError. Never a crash, never a raw foreign exception.
// Each armed fault must fire: the seeded hit is drawn below the number
// of times the site executes on that suite.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "check/audit.hpp"
#include "eco/checkpoint.hpp"
#include "eco/delta.hpp"
#include "flow/report.hpp"
#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "io/design_io.hpp"
#include "obs/json.hpp"
#include "robust/error.hpp"
#include "robust/fault.hpp"
#include "route/sequential.hpp"

namespace streak {
namespace {

/// Shrunk synth suites (the golden_flow_test shrink, reduced further):
/// small enough that the full sites x suites sweep runs in seconds.
gen::SuiteSpec chaosSpec(int suite) {
    gen::SuiteSpec spec = gen::synthSpec(suite);
    spec.numGroups = 3;
    spec.gridWidth = 32;
    spec.gridHeight = 32;
    spec.numBlockages = spec.numBlockages < 2 ? spec.numBlockages : 2;
    return spec;
}

/// Sites that only execute under the ILP solver; every other flow site
/// is reachable from the default primal-dual configuration.
bool needsIlpSolver(const std::string& site) {
    return site == "ilp/solve" || site == "lp/solve" || site == "bnb/node";
}

/// Run `call`, a reader or router outside the flow, where nothing
/// absorbs a fault: it must end in the injected fault exactly when it
/// executes `site`'s armed `hit`, and succeed otherwise.
template <typename Fn>
void expectInjectedAtHit(const std::string& site, long hit, Fn&& call) {
    const long before = robust::faultHits(site);
    bool injected = false;
    try {
        call();
    } catch (const robust::StreakException& e) {
        EXPECT_EQ(e.error().kind, robust::ErrorKind::FaultInjected)
            << e.error().describe();
        injected = true;
    }
    EXPECT_EQ(injected, before <= hit && hit < robust::faultHits(site));
}

/// One pass over the code that executes `site` on design `d`, with the
/// fault armed at `hit`, asserting the fault-tolerance contract on the
/// outcome. `checkpoint` is a clean flow run's checkpoint of `d`, for
/// the ECO reader.
void exerciseSite(const std::string& site, long hit, const Design& d,
                  const std::string& checkpoint) {
    // The readers fire on the file-format paths, not inside the flow.
    if (site == "io/read") {
        std::stringstream ss;
        io::writeDesign(d, ss);
        expectInjectedAtHit(site, hit, [&] {
            EXPECT_EQ(io::readDesign(ss).numNets(), d.numNets());
        });
        return;
    }
    if (site == "eco/read") {
        expectInjectedAtHit(site, hit, [&] {
            (void)eco::readCheckpointBuffer(checkpoint);
        });
        std::istringstream script("ADDBLOCKAGE 0 0 3 3 0 1\n");
        expectInjectedAtHit(site, hit, [&] {
            EXPECT_EQ(eco::parseDeltaScript(script).size(), 1u);
        });
        return;
    }
    // The maze router runs in the sequential baseline, never in the flow.
    if (site == "maze/search") {
        expectInjectedAtHit(site, hit, [&] {
            (void)route::routeSequential(d, {}, /*mazeOnly=*/true);
        });
        return;
    }

    StreakOptions opts;
    opts.postOptimize = true;
    if (needsIlpSolver(site)) {
        opts.solver = SolverKind::Ilp;
        opts.ilpTimeLimitSeconds = 2.0;
    }
    const FlowResult res = runStreak(d, opts);
    if (res.ok()) {
        // Clean or degraded: the output must audit clean.
        const StreakResult& r = res.value();
        const check::AuditResult audit =
            check::auditRoutedDesign(r.problem, r.routed);
        EXPECT_TRUE(audit.ok()) << audit.summary();
        for (const robust::Degradation& deg : r.degradations) {
            EXPECT_FALSE(deg.rung.empty());
            EXPECT_FALSE(deg.stage.empty());
        }
    } else {
        // The only acceptable failure from an injected fault is the
        // structured fault-injected error itself.
        EXPECT_EQ(res.error().kind, robust::ErrorKind::FaultInjected)
            << res.error().describe();
        EXPECT_FALSE(res.error().stage.empty());
    }
}

class ChaosSweep : public ::testing::Test {
protected:
    void SetUp() override { robust::disarmFaults(); }
    void TearDown() override { robust::disarmFaults(); }
};

TEST_F(ChaosSweep, EveryFaultSiteOnEverySuiteEndsInAuditedStateOrError) {
    for (int suite = 1; suite <= 7; ++suite) {
        const Design d = gen::generate(chaosSpec(suite));
        StreakOptions cleanOpts;
        cleanOpts.postOptimize = true;
        std::ostringstream checkpoint;
        eco::writeCheckpoint(
            eco::makeCheckpoint(d, cleanOpts, runStreak(d, cleanOpts).value()),
            checkpoint);
        for (const std::string& site : robust::faultSiteCatalog()) {
            SCOPED_TRACE(site + " on synth" + std::to_string(suite));
            // Count the site's executions: armed at a hit that never
            // comes, the registry counts without firing.
            constexpr long kNever = std::numeric_limits<long>::max();
            robust::armFault(site, kNever);
            exerciseSite(site, kNever, d, checkpoint.str());
            const long executions = robust::faultHits(site);
            ASSERT_GT(executions, 0) << "the site never executed";

            // Seeded, deterministic schedule: the hit index depends only
            // on (site, suite), so a failure here reproduces exactly.
            const long hit = robust::armFaultFromSeed(
                site, static_cast<unsigned long>(suite) * 131 + 7,
                executions);
            exerciseSite(site, hit, d, checkpoint.str());
            EXPECT_GT(robust::faultHits(site), hit)
                << "the fault armed at hit " << hit << " never fired";
            robust::disarmFaults();
        }
    }
}

TEST_F(ChaosSweep, SolveStageFaultDegradesToThePdResult) {
    // Deterministic ladder check: an ILP-stage fault with a PD warm
    // start must fall back to the warm solution, not fail the run.
    robust::armFault("ilp/solve", /*hitIndex=*/0);
    const Design d = gen::generate(chaosSpec(1));
    StreakOptions opts;
    opts.solver = SolverKind::Ilp;
    opts.ilpTimeLimitSeconds = 2.0;
    const FlowResult res = runStreak(d, opts);
    ASSERT_TRUE(res.ok()) << res.error().describe();
    const StreakResult& r = res.value();
    ASSERT_TRUE(r.degraded());
    std::set<std::string> rungs;
    for (const robust::Degradation& deg : r.degradations) {
        rungs.insert(deg.rung);
    }
    EXPECT_TRUE(rungs.contains("solve.ilp_to_pd"));
    EXPECT_TRUE(r.hitTimeLimit);  // degraded solve reports its limit
    const check::AuditResult audit =
        check::auditRoutedDesign(r.problem, r.routed);
    EXPECT_TRUE(audit.ok()) << audit.summary();
    EXPECT_GT(r.metrics.routedBits, 0);
}

/// The rung strings the run report's "robust" section lists for a run.
std::set<std::string> reportedRungs(const Design& d,
                                    const StreakOptions& opts,
                                    const StreakResult& r) {
    const obs::json::Value report = flow::buildRunReport(d, opts, r);
    const obs::json::Value* robustSec = report.find("robust");
    EXPECT_NE(robustSec, nullptr);
    std::set<std::string> rungs;
    if (robustSec == nullptr) return rungs;
    EXPECT_TRUE(robustSec->find("degraded")->asBool());
    for (const obs::json::Value& deg :
         robustSec->find("degradations")->asArray()) {
        EXPECT_FALSE(deg.find("stage")->asString().empty());
        EXPECT_FALSE(deg.find("message")->asString().empty());
        rungs.insert(deg.find("rung")->asString());
    }
    return rungs;
}

TEST_F(ChaosSweep, PostRefineFaultTakesTheRollbackRung) {
    // Force the ladder's last rung: a fault inside the refinement wave
    // loop must restore the pre-post routing, record post.rolled_back,
    // surface it in the report's robust section — and still audit clean.
    bool rungSeen = false;
    for (int suite = 1; suite <= 7 && !rungSeen; ++suite) {
        robust::armFault("post/refine", /*hitIndex=*/0);
        const Design d = gen::generate(chaosSpec(suite));
        StreakOptions opts;
        opts.postOptimize = true;
        const FlowResult res = runStreak(d, opts);
        ASSERT_TRUE(res.ok()) << res.error().describe();
        const StreakResult& r = res.value();
        for (const robust::Degradation& deg : r.degradations) {
            if (deg.rung != "post.rolled_back") continue;
            rungSeen = true;
            EXPECT_EQ(deg.stage, stage::kPost);
            EXPECT_TRUE(reportedRungs(d, opts, r).contains(
                "post.rolled_back"));
            const check::AuditResult audit =
                check::auditRoutedDesign(r.problem, r.routed);
            EXPECT_TRUE(audit.ok()) << audit.summary();
            // Rolled-back output is the pre-post routing, so the distance
            // flags must be internally consistent with the counters.
            int flagged = 0;
            for (const char f : r.groupDistanceAfter) flagged += f != 0;
            EXPECT_EQ(flagged, r.distanceViolationsAfter);
        }
        robust::disarmFaults();
    }
    // The refinement loop only runs when some suite has violations to
    // refine; the shrunk suites are built so at least one does.
    EXPECT_TRUE(rungSeen) << "no suite reached the refinement wave loop";
}

TEST_F(ChaosSweep, DistanceFaultTakesTheSkipRung) {
    robust::armFault("distance/analyze", /*hitIndex=*/0);
    const Design d = gen::generate(chaosSpec(2));
    StreakOptions opts;
    opts.postOptimize = true;
    const FlowResult res = runStreak(d, opts);
    ASSERT_TRUE(res.ok()) << res.error().describe();
    const StreakResult& r = res.value();
    ASSERT_TRUE(r.degraded());
    EXPECT_TRUE(reportedRungs(d, opts, r).contains("distance.skipped"));
    // The skipped stage reports zero violations and all-clean flags
    // sized to the design, not empty vectors.
    EXPECT_EQ(r.distanceViolationsBefore, 0);
    EXPECT_EQ(r.distanceViolationsAfter, 0);
    EXPECT_EQ(r.groupDistanceAfter.size(),
              static_cast<size_t>(d.numGroups()));
}

TEST_F(ChaosSweep, DistanceFaultWithoutRefinementTakesTheSkipRung) {
    // Without refinement the post stage re-analyzes distances itself.
    // After the skip rung there are no initial thresholds to reuse, so
    // they derive from the routed design, with clustering on and off.
    for (const bool clustering : {true, false}) {
        SCOPED_TRACE(clustering ? "clustering on" : "clustering off");
        robust::armFault("distance/analyze", /*hitIndex=*/0);
        const Design d = gen::generate(chaosSpec(2));
        StreakOptions opts;
        opts.postOptimize = true;
        opts.refinementEnabled = false;
        opts.clusteringEnabled = clustering;
        const FlowResult res = runStreak(d, opts);
        robust::disarmFaults();
        ASSERT_TRUE(res.ok()) << res.error().describe();
        const StreakResult& r = res.value();
        EXPECT_TRUE(reportedRungs(d, opts, r).contains("distance.skipped"));
        const check::AuditResult audit =
            check::auditRoutedDesign(r.problem, r.routed);
        EXPECT_TRUE(audit.ok()) << audit.summary();
        EXPECT_EQ(r.groupDistanceAfter.size(),
                  static_cast<size_t>(d.numGroups()));
    }
}

TEST(ChaosDeadline, ImmediateDeadlineFailsStructurally) {
    // A deadline that expires before the first checkpoint: no partial
    // solution exists yet, so the run must fail with deadline-expired —
    // not crash, not return an unaudited result.
    const Design d = gen::generate(chaosSpec(5));
    StreakOptions opts;
    opts.deadlineSeconds = 1e-9;
    opts.postOptimize = true;
    const FlowResult res = runStreak(d, opts);
    if (res.ok()) {
        // Conceivable only if the whole run fit under the clock tick.
        EXPECT_GE(res.value().metrics.routedBits, 0);
    } else {
        EXPECT_EQ(res.error().kind, robust::ErrorKind::DeadlineExpired);
    }
}

TEST(ChaosDeadline, GenerousDeadlineChangesNothing) {
    const Design d = gen::generate(chaosSpec(3));
    StreakOptions opts;
    opts.postOptimize = true;
    const StreakResult plain = runStreak(d, opts).value();
    opts.deadlineSeconds = 3600.0;
    const StreakResult timed = runStreak(d, opts).value();
    EXPECT_EQ(plain.metrics.wirelength, timed.metrics.wirelength);
    EXPECT_EQ(plain.metrics.routedBits, timed.metrics.routedBits);
    EXPECT_FALSE(timed.degraded());
}

}  // namespace
}  // namespace streak
