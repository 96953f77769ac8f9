// Campaign store and diff logic (src/campaign), on hand-built records —
// no flow runs, so this suite stays in the fast tier. The slow
// campaign_sweep_test drives the real runner over shrunk suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "obs/json.hpp"

namespace streak {
namespace {

namespace json = obs::json;

campaign::RunRecord sampleRecord() {
    campaign::RunRecord r;
    r.config = "pd";
    r.instance = "synth1-shrunk";
    r.threads = 0;
    r.threadsUsed = 2;
    r.problemHash = "0123456789abcdef";
    r.configHash = "fedcba9876543210";
    r.hostname = "host";
    r.hardwareThreads = 2;
    r.wallSeconds = 0.25;
    r.routability = 1.0;
    r.wirelength = 425;
    r.vias = 5;
    r.totalOverflow = 0;
    r.degraded = false;
    r.counters = {{"route/maze.pops", 1455}, {"ilp/lp.pivots", 16}};
    return r;
}

campaign::Store storeOf(const std::vector<campaign::RunRecord>& records) {
    campaign::Store store;
    store.records = records;
    return store;
}

TEST(CampaignStore, RecordsRoundTripThroughJsonl) {
    campaign::RunRecord a = sampleRecord();
    campaign::RunRecord b = sampleRecord();
    b.config = "ilp";
    b.wallSeconds = 1.5;
    b.degraded = true;
    std::ostringstream os;
    campaign::appendStore({a, b}, os);
    // JSONL: exactly one compact object per line.
    const std::string text = os.str();
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);

    std::istringstream is(text);
    const campaign::Store store = campaign::readStore(is, "store");
    EXPECT_TRUE(store.problems.empty());
    ASSERT_EQ(store.records.size(), 2u);
    const campaign::RunRecord& back = store.records[0];
    EXPECT_EQ(back.config, a.config);
    EXPECT_EQ(back.instance, a.instance);
    EXPECT_EQ(back.threads, a.threads);
    EXPECT_EQ(back.threadsUsed, a.threadsUsed);
    EXPECT_EQ(back.problemHash, a.problemHash);
    EXPECT_EQ(back.configHash, a.configHash);
    EXPECT_EQ(back.hostname, a.hostname);
    EXPECT_EQ(back.hardwareThreads, a.hardwareThreads);
    EXPECT_DOUBLE_EQ(back.wallSeconds, a.wallSeconds);
    EXPECT_DOUBLE_EQ(back.routability, a.routability);
    EXPECT_EQ(back.wirelength, a.wirelength);
    EXPECT_EQ(back.vias, a.vias);
    EXPECT_EQ(back.totalOverflow, a.totalOverflow);
    EXPECT_EQ(back.degraded, a.degraded);
    EXPECT_EQ(back.counters, a.counters);
    EXPECT_TRUE(store.records[1].degraded);
}

TEST(CampaignStore, MalformedLinesBecomeStructuredProblems) {
    std::ostringstream os;
    campaign::appendStore({sampleRecord()}, os);
    const std::string good = os.str();
    const std::string text =
        "# comment line\n" + good +  // 2: valid
        "{\"truncated\": \n" +       // 3: JSON syntax error
        "[1, 2, 3]\n" +              // 4: not an object
        "{\"schema\": \"other\", \"schemaVersion\": 1}\n" +  // 5: schema
        "{\"schema\": \"streak-campaign-run\", \"schemaVersion\": 99}\n" +
        "{\"schema\": \"streak-campaign-run\", \"schemaVersion\": 1}\n";
    std::istringstream is(text);
    const campaign::Store store = campaign::readStore(is, "store");
    ASSERT_EQ(store.records.size(), 1u);
    ASSERT_EQ(store.problems.size(), 5u);
    EXPECT_NE(store.problems[0].find("store:3"), std::string::npos);
    EXPECT_NE(store.problems[1].find("not a JSON object"), std::string::npos);
    EXPECT_NE(store.problems[2].find("schema mismatch"), std::string::npos);
    EXPECT_NE(store.problems[3].find("schemaVersion mismatch"),
              std::string::npos);
    EXPECT_NE(store.problems[4].find("missing field"), std::string::npos);
}

TEST(CampaignDiff, IdenticalStoresAreClean) {
    const campaign::Store store = storeOf({sampleRecord()});
    const campaign::DiffReport report =
        campaign::diffAgainstStore(store, store);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.comparedRuns, 1);
    EXPECT_TRUE(report.notes.empty());
}

TEST(CampaignDiff, FlagsInjectedCounterRegression) {
    const campaign::Store baseline = storeOf({sampleRecord()});
    campaign::RunRecord cur = sampleRecord();
    cur.counters["route/maze.pops"] *= 2;  // the drill: 2x maze pops
    const campaign::DiffReport report =
        campaign::diffAgainstStore(baseline, storeOf({cur}));
    ASSERT_EQ(report.regressions.size(), 1u);
    const campaign::Regression& r = report.regressions.front();
    EXPECT_EQ(r.kind, "counter");
    EXPECT_EQ(r.metric, "route/maze.pops");
    EXPECT_DOUBLE_EQ(r.baseline, 1455.0);
    EXPECT_DOUBLE_EQ(r.current, 2910.0);
    EXPECT_NEAR(r.growthPercent, 100.0, 1e-9);
}

TEST(CampaignDiff, CounterGrowthBelowThresholdIsTolerated) {
    const campaign::Store baseline = storeOf({sampleRecord()});
    campaign::RunRecord cur = sampleRecord();
    cur.counters["route/maze.pops"] += 100;  // ~6.9% < 10%
    EXPECT_TRUE(
        campaign::diffAgainstStore(baseline, storeOf({cur})).ok());
}

TEST(CampaignDiff, FlagsQualityLossAtZeroTolerance) {
    const campaign::Store baseline = storeOf({sampleRecord()});
    campaign::RunRecord cur = sampleRecord();
    cur.wirelength += 1;
    cur.totalOverflow = 2;
    cur.routability = 0.9;
    cur.degraded = true;
    const campaign::DiffReport report =
        campaign::diffAgainstStore(baseline, storeOf({cur}));
    EXPECT_EQ(report.regressions.size(), 4u);
    for (const campaign::Regression& r : report.regressions) {
        EXPECT_EQ(r.kind, "quality") << r.metric;
    }
}

TEST(CampaignDiff, ProvenanceMismatchIsSkippedWithANote) {
    const campaign::Store baseline = storeOf({sampleRecord()});
    campaign::RunRecord cur = sampleRecord();
    cur.problemHash = "ffffffffffffffff";
    cur.counters["route/maze.pops"] *= 10;  // would flag if compared
    const campaign::DiffReport report =
        campaign::diffAgainstStore(baseline, storeOf({cur}));
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.comparedRuns, 0);
    ASSERT_EQ(report.notes.size(), 1u);
    EXPECT_NE(report.notes.front().find("problem hash changed"),
              std::string::npos);
}

TEST(CampaignDiff, MissingBaselineIsANoteNotARegression) {
    campaign::RunRecord other = sampleRecord();
    other.instance = "synth2-shrunk";
    const campaign::DiffReport report = campaign::diffAgainstStore(
        storeOf({sampleRecord()}), storeOf({other}));
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.comparedRuns, 0);
    ASSERT_EQ(report.notes.size(), 1u);
    EXPECT_NE(report.notes.front().find("no baseline"), std::string::npos);
}

TEST(CampaignDiff, LastBaselineRecordWinsInAppendOnlyStores) {
    campaign::RunRecord old = sampleRecord();
    old.counters["route/maze.pops"] = 100;  // stale measurement
    const campaign::Store baseline = storeOf({old, sampleRecord()});
    EXPECT_TRUE(
        campaign::diffAgainstStore(baseline, storeOf({sampleRecord()})).ok());
}

TEST(CampaignDiff, ExitCodeRefusesAVerdictWhenNothingWasCompared) {
    // A baseline that shares no sweep point, or whose every record
    // measured another problem or config, compares nothing: invalid
    // input (3), never a clean pass.
    const campaign::Store current = storeOf({sampleRecord()});
    campaign::RunRecord otherSuite = sampleRecord();
    otherSuite.instance = "synth2-shrunk";
    campaign::RunRecord otherConfig = sampleRecord();
    otherConfig.configHash = "ffffffffffffffff";
    EXPECT_EQ(campaign::diffExitCode(
                  campaign::diffAgainstStore(storeOf({otherSuite}), current)),
              3);
    EXPECT_EQ(campaign::diffExitCode(campaign::diffAgainstStore(
                  storeOf({otherConfig}), current)),
              3);
    // One comparable record is enough for a verdict: 0 clean, 8 on a
    // regression.
    EXPECT_EQ(campaign::diffExitCode(campaign::diffAgainstStore(
                  storeOf({otherSuite, sampleRecord()}), current)),
              0);
    campaign::RunRecord slower = sampleRecord();
    slower.counters["route/maze.pops"] *= 2;
    EXPECT_EQ(campaign::diffExitCode(
                  campaign::diffAgainstStore(current, storeOf({slower}))),
              8);
}

TEST(CampaignVerdict, CarriesSchemaAndRegressionCount) {
    campaign::DiffReport clean;
    clean.comparedRuns = 3;
    campaign::DiffReport failed;
    failed.comparedRuns = 1;
    failed.regressions.push_back({"counter", "ilp", "synth1-shrunk",
                                  "ilp/lp.pivots", 16.0, 32.0, 100.0});
    failed.notes.push_back("note text");

    const json::Value verdict = campaign::verdictJson({clean, failed});
    EXPECT_EQ(verdict.find("schema")->asString(), campaign::kVerdictSchema);
    EXPECT_EQ(static_cast<int>(verdict.find("schemaVersion")->asNumber()),
              campaign::kVerdictSchemaVersion);
    EXPECT_FALSE(verdict.find("ok")->asBool());
    EXPECT_EQ(static_cast<int>(verdict.find("regressionCount")->asNumber()),
              1);
    const json::Array& comparisons = verdict.find("comparisons")->asArray();
    ASSERT_EQ(comparisons.size(), 2u);
    EXPECT_TRUE(comparisons[0].find("ok")->asBool());
    EXPECT_FALSE(comparisons[1].find("ok")->asBool());
    const json::Value& reg =
        comparisons[1].find("regressions")->asArray().front();
    EXPECT_EQ(reg.find("metric")->asString(), "ilp/lp.pivots");
    EXPECT_DOUBLE_EQ(reg.find("growthPercent")->asNumber(), 100.0);

    // A fully clean verdict parses back as ok.
    const json::Value cleanVerdict = campaign::verdictJson({clean});
    EXPECT_TRUE(cleanVerdict.find("ok")->asBool());
    EXPECT_EQ(
        static_cast<int>(cleanVerdict.find("regressionCount")->asNumber()),
        0);
}

TEST(CampaignConfigs, BuiltinsAreNamedAndDistinct) {
    const std::vector<campaign::SweepConfig> configs =
        campaign::builtinConfigs();
    ASSERT_EQ(configs.size(), 4u);
    EXPECT_EQ(configs[0].name, "pd");
    EXPECT_EQ(configs[1].name, "pd-nopost");
    EXPECT_EQ(configs[2].name, "ilp");
    EXPECT_EQ(configs[3].name, "manual");
    EXPECT_TRUE(configs[3].manualBaseline);
    EXPECT_FALSE(configs[2].manualBaseline);
    // Distinct options hash distinctly (the provenance the diff trusts).
    EXPECT_NE(campaign::configHash(configs[0].options),
              campaign::configHash(configs[2].options));
    EXPECT_EQ(campaign::configByName("ilp").options.solver, SolverKind::Ilp);
    EXPECT_THROW((void)campaign::configByName("nope"), std::invalid_argument);
}

TEST(CampaignHash, Fnv1aMatchesKnownVectors) {
    EXPECT_EQ(campaign::fnv1aHex(""), "cbf29ce484222325");
    EXPECT_EQ(campaign::fnv1aHex("a"), "af63dc4c8601ec8c");
    EXPECT_NE(campaign::fnv1aHex("ab"), campaign::fnv1aHex("ba"));
}

}  // namespace
}  // namespace streak
