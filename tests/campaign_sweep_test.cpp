// End-to-end campaign runs (slow tier): a mini sweep over a shrunk
// suite persists well-formed, provenance-stamped records; the records
// round-trip through the JSONL store; a self-diff is clean; the
// counter-scaling drill knob makes the diff flag a maze-pop regression,
// and a refinement-counter regression that the verdict puts in the post
// stage; and the full shrunk sweep reproduces the committed reference store
// (BENCH_campaign.jsonl, path injected as STREAK_CAMPAIGN_BASELINE).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "obs/json.hpp"

namespace streak {
namespace {

namespace json = obs::json;

campaign::CampaignSpec miniSpec() {
    campaign::CampaignSpec spec;
    spec.suites = {1};
    spec.configs = {campaign::configByName("pd-nopost"),
                    campaign::configByName("ilp"),
                    campaign::configByName("manual")};
    spec.threads = {1, 2};
    return spec;
}

class CampaignSweep : public ::testing::Test {
protected:
    // One real sweep shared by every test in the suite. Order is
    // config-major, threads-minor: pd-nopost t1/t2, ilp t1/t2,
    // manual t1/t2.
    static void SetUpTestSuite() {
        records_ = new std::vector<campaign::RunRecord>(
            campaign::runCampaign(miniSpec()));
    }
    static void TearDownTestSuite() {
        delete records_;
        records_ = nullptr;
    }
    static const std::vector<campaign::RunRecord>& records() {
        return *records_;
    }
    static campaign::Store store() {
        campaign::Store s;
        s.records = records();
        return s;
    }

private:
    static std::vector<campaign::RunRecord>* records_;
};

std::vector<campaign::RunRecord>* CampaignSweep::records_ = nullptr;

TEST_F(CampaignSweep, PersistsOneProvenancedRecordPerSweepPoint) {
    ASSERT_EQ(records().size(), 6u);  // 1 suite x 3 configs x 2 threads
    for (const campaign::RunRecord& r : records()) {
        EXPECT_EQ(r.instance, "synth1-shrunk");
        EXPECT_EQ(r.problemHash.size(), 16u) << r.config;
        EXPECT_EQ(r.configHash.size(), 16u) << r.config;
        EXPECT_FALSE(r.hostname.empty());
        EXPECT_GE(r.hardwareThreads, 1);
        EXPECT_GT(r.wallSeconds, 0.0);
        EXPECT_GT(r.wirelength, 0) << r.config;
        EXPECT_FALSE(r.degraded) << r.config;
        EXPECT_FALSE(r.counters.empty()) << r.config;
    }
    // Detail instrumentation is on, so each config's hot-path counter —
    // the one the diff watches — is present.
    EXPECT_TRUE(records()[0].counters.contains("solve/pd.iterations"));
    EXPECT_TRUE(records()[2].counters.contains("ilp/lp.pivots"));
    EXPECT_TRUE(records()[4].counters.contains("route/maze.pops"));
    EXPECT_GT(records()[4].counters.at("route/maze.pops"), 0);
    // Same problem, so the problem hash is shared; distinct configs hash
    // apart.
    EXPECT_EQ(records()[0].problemHash, records()[2].problemHash);
    EXPECT_NE(records()[0].configHash, records()[2].configHash);
    EXPECT_NE(records()[2].configHash, records()[4].configHash);
}

TEST_F(CampaignSweep, CountersAreThreadCountInvariant) {
    for (const size_t at : {0u, 2u, 4u}) {
        EXPECT_EQ(records()[at].counters, records()[at + 1].counters)
            << records()[at].config;
        EXPECT_EQ(records()[at].wirelength, records()[at + 1].wirelength)
            << records()[at].config;
    }
}

TEST_F(CampaignSweep, RecordsRoundTripThroughTheStore) {
    std::ostringstream os;
    campaign::appendStore(records(), os);
    std::istringstream is(os.str());
    const campaign::Store back = campaign::readStore(is, "store");
    EXPECT_TRUE(back.problems.empty());
    ASSERT_EQ(back.records.size(), records().size());
    for (size_t i = 0; i < records().size(); ++i) {
        EXPECT_EQ(back.records[i].config, records()[i].config);
        EXPECT_EQ(back.records[i].threads, records()[i].threads);
        EXPECT_EQ(back.records[i].counters, records()[i].counters);
        EXPECT_EQ(back.records[i].wirelength, records()[i].wirelength);
    }
}

TEST_F(CampaignSweep, SelfDiffIsClean) {
    const campaign::DiffReport report =
        campaign::diffAgainstStore(store(), store());
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.comparedRuns, 6);
    EXPECT_TRUE(report.notes.empty());
}

TEST_F(CampaignSweep, ScaledCounterDrillFlagsAMazePopRegression) {
    // The drill knob: re-run the manual sweep point with maze pops
    // scaled 2x and diff it against the clean baseline.
    campaign::CampaignSpec drill;
    drill.suites = {1};
    drill.configs = {campaign::configByName("manual")};
    drill.threads = {1};
    drill.scaleCounters = {{"route/maze.pops", 2.0}};
    campaign::Store current;
    current.records = campaign::runCampaign(drill);
    ASSERT_EQ(current.records.size(), 1u);

    const campaign::DiffReport report =
        campaign::diffAgainstStore(store(), current);
    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.regressions.size(), 1u);
    const campaign::Regression& r = report.regressions.front();
    EXPECT_EQ(r.kind, "counter");
    EXPECT_EQ(r.metric, "route/maze.pops");
    EXPECT_NEAR(r.growthPercent, 100.0, 1e-6);

    // The verdict the CLI writes for this diff says not-ok.
    const json::Value verdict = campaign::verdictJson({report});
    EXPECT_FALSE(verdict.find("ok")->asBool());
    EXPECT_EQ(static_cast<int>(verdict.find("regressionCount")->asNumber()),
              1);
}

TEST(CampaignStageDrill, ScaledRefineCounterNamesThePostStage) {
    // A shrunk pd record with refinement's pins-considered counter scaled
    // 2x, diffed against the committed store: the diff exits 8, and the
    // verdict puts the one regression in the post stage.
    campaign::CampaignSpec drill;
    drill.suites = {6};
    drill.configs = {campaign::configByName("pd")};
    drill.threads = {1};
    drill.scaleCounters = {{"post/refine.pins_considered", 2.0}};
    campaign::Store current;
    current.records = campaign::runCampaign(drill);
    ASSERT_EQ(current.records.size(), 1u);

    const campaign::DiffReport report = campaign::diffAgainstStore(
        campaign::readStoreFile(STREAK_CAMPAIGN_BASELINE), current);
    EXPECT_EQ(campaign::diffExitCode(report), 8);
    ASSERT_EQ(report.regressions.size(), 1u);
    EXPECT_EQ(report.regressions.front().metric,
              "post/refine.pins_considered");
    EXPECT_EQ(report.regressions.front().stage(), "post");
    const json::Value verdict = campaign::verdictJson({report});
    const json::Value& reg = verdict.find("comparisons")
                                 ->asArray()
                                 .front()
                                 .find("regressions")
                                 ->asArray()
                                 .front();
    EXPECT_EQ(reg.find("stage")->asString(), "post");
    const json::Value* byStage = verdict.find("regressionsByStage");
    ASSERT_NE(byStage, nullptr);
    ASSERT_NE(byStage->find("post"), nullptr);
    EXPECT_EQ(static_cast<int>(byStage->find("post")->asNumber()), 1);
}

TEST_F(CampaignSweep, ShrunkSweepMatchesTheCommittedStore) {
    // The same sweep as `streak campaign run --threads=1`: shrunk
    // synth1-7 x the four builtin configs.
    campaign::CampaignSpec spec;
    spec.threads = {1};
    campaign::Store current;
    current.records = campaign::runCampaign(spec);

    const campaign::Store reference =
        campaign::readStoreFile(STREAK_CAMPAIGN_BASELINE);
    EXPECT_TRUE(reference.problems.empty()) << reference.problems.front();
    const campaign::DiffReport report =
        campaign::diffAgainstStore(reference, current);
    EXPECT_EQ(report.comparedRuns, 28);
    EXPECT_TRUE(report.notes.empty()) << report.notes.front();
    for (const campaign::Regression& r : report.regressions) {
        ADD_FAILURE() << r.config << '/' << r.instance << ' ' << r.metric
                      << ": " << r.baseline << " -> " << r.current;
    }
}

}  // namespace
}  // namespace streak
