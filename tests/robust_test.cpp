// Unit tests for the fault-tolerance layer (src/robust): structured
// errors, the run deadline and the tick points that poll it, and the
// deterministic fault-injection registry.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/pd_solver.hpp"
#include "core/validate.hpp"
#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "ilp/branch_and_bound.hpp"
#include "ilp/lp.hpp"
#include "io/design_io.hpp"
#include "parallel/thread_pool.hpp"
#include "post/clustering.hpp"
#include "post/refine.hpp"
#include "robust/deadline.hpp"
#include "robust/error.hpp"
#include "robust/fault.hpp"
#include "test_util.hpp"

namespace streak::robust {
namespace {

// ----------------------------------------------------------- errors

TEST(StreakError, DescribeComposesKindStageSiteAndMessage) {
    StreakError err;
    err.kind = ErrorKind::DeadlineExpired;
    err.stage = "flow/solve";
    err.site = "lp/pivot";
    err.message = "wall-clock deadline exceeded";
    EXPECT_EQ(err.describe(),
              "deadline-expired at flow/solve (lp/pivot): "
              "wall-clock deadline exceeded");
    StreakError bare;
    bare.kind = ErrorKind::Internal;
    EXPECT_EQ(bare.describe(), "internal");
}

TEST(StreakError, KindNamesAndExitCodesAreDistinct) {
    const ErrorKind kinds[] = {ErrorKind::InvalidInput,
                               ErrorKind::DeadlineExpired,
                               ErrorKind::FaultInjected, ErrorKind::Internal};
    std::set<std::string> names;
    std::set<int> codes;
    for (const ErrorKind k : kinds) {
        names.insert(errorKindName(k));
        const int code = exitCodeFor(k);
        codes.insert(code);
        // 0/1/2 keep their historical CLI meanings.
        EXPECT_GE(code, 3);
    }
    EXPECT_EQ(names.size(), 4u);
    EXPECT_EQ(codes.size(), 4u);
}

TEST(StreakException, NoteStageKeepsTheInnermostStage) {
    StreakError err;
    err.kind = ErrorKind::FaultInjected;
    err.message = "boom";
    StreakException e(err);
    e.noteStage("flow/solve");
    EXPECT_EQ(e.error().stage, "flow/solve");
    e.noteStage("flow/run");  // outer wrapper must not overwrite
    EXPECT_EQ(e.error().stage, "flow/solve");
    EXPECT_NE(std::string(e.what()).find("flow/solve"), std::string::npos);
}

TEST(StreakException, IsARuntimeErrorForLegacyCatchSites) {
    StreakError err;
    err.kind = ErrorKind::InvalidInput;
    err.message = "bad input";
    try {
        raise(std::move(err));
        FAIL() << "raise must throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("bad input"), std::string::npos);
    }
}

// ------------------------------------------------------ the deadline

/// A deadline that has already expired: every poll of it trips.
Deadline expiredDeadline() {
    const Deadline d(1e-9);
    while (!d.expired()) {
    }  // terminates as soon as the stopwatch advances past 1ns
    return d;
}

/// Runs `body`, which must poll an expired deadline at tick point `site`
/// and unwind with the structured, recoverable deadline-expired error.
template <typename Fn>
void expectDeadlineTrip(const char* site, Fn&& body) {
    SCOPED_TRACE(site);
    try {
        body();
        FAIL() << site << " ignored an expired deadline";
    } catch (const StreakException& e) {
        EXPECT_EQ(e.error().kind, ErrorKind::DeadlineExpired);
        EXPECT_EQ(e.error().site, site);
        EXPECT_TRUE(e.error().recoverable);
    }
}

TEST(Deadline, NonPositiveBudgetNeverExpires) {
    for (const Deadline never : {Deadline(), Deadline(0.0), Deadline(-1.0)}) {
        EXPECT_FALSE(never.armed());
        EXPECT_FALSE(never.expired());
        EXPECT_NO_THROW(never.checkpoint("test/site"));
    }
}

TEST(Deadline, TinyBudgetExpires) {
    const Deadline d = expiredDeadline();
    ASSERT_TRUE(d.armed());
    EXPECT_TRUE(d.expired());
    // A copy shares the start, so it has expired too.
    const Deadline copy = d;
    EXPECT_TRUE(copy.expired());
    expectDeadlineTrip("test/site", [&] { copy.checkpoint("test/site"); });
}

// ------------------------------------------------- fault injection

class FaultRegistry : public ::testing::Test {
protected:
    void SetUp() override { disarmFaults(); }
    void TearDown() override { disarmFaults(); }
};

TEST_F(FaultRegistry, ArmedSiteFiresOnTheExactHit) {
    // io/read executes once per readDesign call; arm hit index 1 so the
    // first call survives and the second throws.
    armFault("io/read", /*hitIndex=*/1);
    const std::string text = "STREAK 1\nGRID 8 8 2 4\n";
    {
        std::stringstream ss(text);
        EXPECT_NO_THROW((void)io::readDesign(ss));
    }
    {
        std::stringstream ss(text);
        try {
            (void)io::readDesign(ss);
            FAIL() << "expected the armed fault to fire";
        } catch (const StreakException& e) {
            EXPECT_EQ(e.error().kind, ErrorKind::FaultInjected);
            EXPECT_EQ(e.error().site, "io/read");
            EXPECT_TRUE(e.error().recoverable);
        }
    }
    // Fired faults disarm-by-exhaustion is NOT the contract: the same
    // hit index never matches again, so later calls succeed.
    {
        std::stringstream ss(text);
        EXPECT_NO_THROW((void)io::readDesign(ss));
    }
    EXPECT_EQ(faultHits("io/read"), 3);
}

TEST_F(FaultRegistry, DisarmedSitesCountNothing) {
    std::stringstream ss("STREAK 1\nGRID 8 8 2 4\n");
    (void)io::readDesign(ss);
    EXPECT_EQ(faultHits("io/read"), 0);
    EXPECT_TRUE(faultSitesSeen().empty());
}

TEST_F(FaultRegistry, SeededScheduleIsDeterministicAndBounded) {
    const long a = armFaultFromSeed("ilp/solve", 12345, /*maxHit=*/3);
    const long b = armFaultFromSeed("ilp/solve", 12345, /*maxHit=*/3);
    EXPECT_EQ(a, b);
    for (unsigned long seed = 0; seed < 64; ++seed) {
        const long idx = armFaultFromSeed("ilp/solve", seed, /*maxHit=*/3);
        EXPECT_GE(idx, 0);
        EXPECT_LT(idx, 3);
    }
    // Different sites with the same seed need not collide on one index.
    std::set<long> spread;
    for (const char* site : {"ilp/solve", "maze/search", "pd/iteration",
                             "post/refine", "io/read"}) {
        spread.insert(armFaultFromSeed(site, 7, /*maxHit=*/3));
    }
    EXPECT_GE(spread.size(), 2u);
}

TEST_F(FaultRegistry, CatalogIsSortedAndUnique) {
    const std::vector<std::string>& catalog = faultSiteCatalog();
    ASSERT_FALSE(catalog.empty());
    for (size_t i = 1; i < catalog.size(); ++i) {
        EXPECT_LT(catalog[i - 1], catalog[i]);
    }
}

TEST_F(FaultRegistry, EverySiteSeenInAFullRunIsCataloged) {
    // Arm an unreachable hit index on a site that never fires so hit
    // counting is active, then run the widest flow configuration plus a
    // design-file roundtrip. Any executed site missing from the catalog
    // is catalog rot.
    armFault("io/read", /*hitIndex=*/1000000);
    const Design d = gen::generate([] {
        gen::SuiteSpec spec = gen::synthSpec(6);
        spec.numGroups = 4;
        spec.gridWidth = 32;
        spec.gridHeight = 32;
        return spec;
    }());
    std::stringstream ss;
    io::writeDesign(d, ss);
    const Design loaded = io::readDesign(ss);
    StreakOptions opts;
    opts.solver = SolverKind::Ilp;
    opts.ilpTimeLimitSeconds = 5.0;
    opts.postOptimize = true;
    (void)runStreak(loaded, opts).value();

    const std::vector<std::string>& catalog = faultSiteCatalog();
    const std::set<std::string> known(catalog.begin(), catalog.end());
    const std::vector<std::string> seen = faultSitesSeen();
    EXPECT_FALSE(seen.empty());
    for (const std::string& site : seen) {
        EXPECT_TRUE(known.contains(site))
            << "site \"" << site << "\" executed but is not in the catalog";
    }
    // The flow above must reach at least these cataloged sites.
    const std::set<std::string> observed(seen.begin(), seen.end());
    for (const char* expected :
         {"io/read", "build/candidates", "ilp/solve", "lp/solve",
          "pd/iteration", "distance/analyze"}) {
        EXPECT_TRUE(observed.contains(expected))
            << "expected site \"" << expected << "\" was never executed";
    }
}

// -------------------------------------------------- flow integration

TEST(FlowRobustness, GenerousDeadlineRunMatchesPlainRun) {
    // Determinism contract: a deadline that never expires must not
    // change a single byte of the outcome.
    const Design d = gen::generate([] {
        gen::SuiteSpec spec = gen::synthSpec(2);
        spec.numGroups = 4;
        spec.gridWidth = 32;
        spec.gridHeight = 32;
        return spec;
    }());
    StreakOptions plain;
    plain.postOptimize = true;
    const StreakResult a = runStreak(d, plain).value();
    StreakOptions guarded = plain;
    guarded.deadlineSeconds = 3600.0;
    const StreakResult b = runStreak(d, guarded).value();
    EXPECT_EQ(a.metrics.routedBits, b.metrics.routedBits);
    EXPECT_EQ(a.metrics.wirelength, b.metrics.wirelength);
    EXPECT_EQ(a.metrics.totalOverflow, b.metrics.totalOverflow);
    EXPECT_EQ(a.distanceViolationsAfter, b.distanceViolationsAfter);
    EXPECT_FALSE(b.degraded());
}

// Each tick point polls on its first iteration, so an already-expired
// deadline trips it before any work is done.

TEST(FlowRobustness, ClusteringPollsTheTicketEveryRound) {
    const Design d = gen::generate(testutil::congestedMultipinSpec());
    RoutingProblem prob = buildProblem(d, StreakOptions{});
    RoutedDesign routed = materialize(prob, solvePrimalDual(prob).solution);
    ASSERT_GE(routed.unroutedMembers.size(), 2u);

    prob.opts.control = expiredDeadline();
    expectDeadlineTrip("cluster/round",
                       [&] { (void)post::clusterAndRoute(prob, &routed); });
}

TEST(FlowRobustness, RefinementPollsTheDeadlineEveryWave) {
    const Design d = gen::generate(testutil::congestedMultipinSpec());
    RoutingProblem prob = buildProblem(d, StreakOptions{});
    RoutedDesign routed = materialize(prob, solvePrimalDual(prob).solution);
    const std::vector<GroupDistanceReport> baseline = analyzeDistances(
        prob, routed, prob.opts.distanceThresholdFraction);
    ASSERT_GT(countViolatingGroups(baseline), 0);

    // Refinement re-analyzes only the changed groups, none here, so its
    // first poll is the wave loop's.
    prob.opts.control = expiredDeadline();
    const std::vector<char> unchanged(baseline.size(), 0);
    expectDeadlineTrip("refine/wave", [&] {
        (void)post::refineDistances(prob, &routed, &baseline, &unchanged);
    });
}

TEST(FlowRobustness, PoolAndPrimalDualPollTheDeadline) {
    for (const int threads : {1, 3}) {
        parallel::ThreadPool pool(threads);
        pool.setControl(expiredDeadline());
        int ran = 0;
        expectDeadlineTrip("parallel/task", [&] {
            pool.parallelFor(4, [&](int) { ++ran; });
        });
        EXPECT_EQ(ran, 0) << threads << " threads";
    }
    // The flow's first stage fails the same way: building the problem
    // dispatches its per-object tasks through a pool.
    const Design d = gen::generate(gen::shrunkSynthSpec(1));
    StreakOptions expired;
    expired.control = expiredDeadline();
    expectDeadlineTrip("parallel/task",
                       [&] { (void)buildProblem(d, expired); });

    RoutingProblem prob = buildProblem(d, StreakOptions{});
    prob.opts.control = expiredDeadline();
    expectDeadlineTrip("pd/iteration",
                       [&] { (void)solvePrimalDual(prob); });
}

TEST(FlowRobustness, BranchAndBoundAndSimplexPollTheDeadline) {
    // max x + y  s.t.  x + y <= 1.5, x and y binary.
    ilp::Model model;
    const int x = model.addVariable(-1.0, true, 0.0, 1.0);
    const int y = model.addVariable(-1.0, true, 0.0, 1.0);
    model.addRow({{x, 1.0}, {y, 1.0}}, ilp::Sense::LessEqual, 1.5);
    ASSERT_EQ(ilp::solveIlp(model).status, ilp::SolveStatus::Optimal);

    ilp::BnbOptions bopts;
    bopts.control = expiredDeadline();
    expectDeadlineTrip("bnb/node", [&] { (void)ilp::solveIlp(model, bopts); });
    expectDeadlineTrip("lp/pivot", [&] {
        (void)ilp::solveLp(model, expiredDeadline());
    });
}

TEST(FlowRobustness, OutOfRangeOptionsAreInvalidInput) {
    const Design d = gen::generate(gen::shrunkSynthSpec(1));
    const auto expectInvalid = [&](const StreakOptions& opts,
                                   const std::string& option) {
        ASSERT_NE(validateOptions(opts).find(option), std::string::npos);
        const FlowResult res = runStreak(d, opts);
        ASSERT_FALSE(res.ok()) << option;
        EXPECT_EQ(res.error().kind, ErrorKind::InvalidInput) << option;
        EXPECT_NE(res.error().message.find(option), std::string::npos);
        EXPECT_EQ(exitCodeFor(res.error().kind), 3);
    };
    for (const int backbones : {0, -1}) {
        StreakOptions opts;
        opts.backbone.maxBackbones = backbones;
        expectInvalid(opts, "maxBackbones");
    }
    StreakOptions noPairs;
    noPairs.maxLayerPairs = 0;
    expectInvalid(noPairs, "maxLayerPairs");
    StreakOptions nanWeight;
    nanWeight.viaWeight = std::numeric_limits<double>::quiet_NaN();
    expectInvalid(nanWeight, "viaWeight");
    // A non-finite budget is not "no deadline": only <= 0 means that.
    for (const double budget : {std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity()}) {
        StreakOptions opts;
        opts.deadlineSeconds = budget;
        expectInvalid(opts, "deadlineSeconds");
    }
    // A negative pair weight can make a pair cost negative, which the
    // ILP's pair linearization does not model.
    StreakOptions negativeIrregularity;
    negativeIrregularity.irregularityWeight = -1.0;
    expectInvalid(negativeIrregularity, "irregularityWeight");
    StreakOptions negativeLayer;
    negativeLayer.pairLayerWeight = -0.5;
    expectInvalid(negativeLayer, "pairLayerWeight");

    EXPECT_EQ(validateOptions(StreakOptions{}), "");
    EXPECT_TRUE(runStreak(d, StreakOptions{}).ok());
}

// None of these may reach the stages: an off-grid pin's wire records no
// usage, a pinless bit has no driver pin to read, and a bad driver index
// fails inside the Topology constructor as an internal error.
TEST(FlowRobustness, BadPinsAreInvalidInput) {
    const auto expectInvalid = [](const Design& d, const std::string& what) {
        const FlowResult res = runStreak(d, StreakOptions{});
        ASSERT_FALSE(res.ok()) << what;
        EXPECT_EQ(res.error().kind, ErrorKind::InvalidInput) << what;
        EXPECT_NE(res.error().message.find("bit 'bad'"), std::string::npos)
            << res.error().message;
        EXPECT_NE(res.error().message.find(what), std::string::npos)
            << res.error().message;
        EXPECT_EQ(exitCodeFor(res.error().kind), 3);
    };
    const auto withBad = [](const Bit& bad) {
        SignalGroup g;
        g.name = "g";
        g.bits.push_back(testutil::makeBit({{1, 1}, {5, 1}}, "ok"));
        g.bits.push_back(bad);
        g.bits.back().name = "bad";
        return testutil::makeDesign({g}, 8, 8);
    };
    expectInvalid(withBad(testutil::makeBit({{1, 2}, {20, 2}})),
                  "pin (20,2) lies outside the 8x8 grid");
    expectInvalid(withBad(testutil::makeBit({{-3, 1}, {1, 1}})),
                  "pin (-3,1) lies outside");
    expectInvalid(withBad(testutil::makeBit({})), "has no pins");
    Bit badDriver = testutil::makeBit({{1, 3}, {5, 3}});
    badDriver.driver = 2;
    expectInvalid(withBad(badDriver), "driver index 2 is out of range");

    // Single-pin bits and empty groups stay routable.
    SignalGroup lone;
    lone.name = "lone";
    lone.bits.push_back(testutil::makeBit({{2, 2}}, "single"));
    SignalGroup empty;
    empty.name = "empty";
    EXPECT_TRUE(runStreak(testutil::makeDesign({lone, empty}, 8, 8),
                          StreakOptions{})
                    .ok());
}

TEST(FlowRobustness, FlowResultContractIsEnforced) {
    StreakError err;
    err.kind = ErrorKind::Internal;
    err.message = "synthetic";
    const FlowResult failed{err};
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(failed.error().kind, ErrorKind::Internal);
}

}  // namespace
}  // namespace streak::robust
