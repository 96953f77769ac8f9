// The report validator library (src/flow/report_check): a genuine run
// report passes, and every class of malformed input — truncated JSON,
// wrong schema or version, missing or mistyped sections — comes back as
// structured problem strings, never a crash. tools/report_check is a
// thin CLI over these functions; check.sh drives it on fresh exports.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "flow/report.hpp"
#include "flow/report_check.hpp"
#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

namespace streak {
namespace {

namespace json = obs::json;

/// A genuine run report (text form) for the mutation tests.
std::string freshReport() {
    gen::SuiteSpec spec = gen::synthSpec(1);
    spec.numGroups = 4;
    spec.gridWidth = 40;
    spec.gridHeight = 40;
    const Design d = gen::generate(spec);
    StreakOptions opts;
    opts.postOptimize = true;
    opts.threads = 1;
    const testutil::DetailGuard guard;
    obs::setDetailEnabled(true);
    const StreakResult r = runStreak(d, opts).value();
    std::ostringstream os;
    flow::writeRunReport(d, opts, r, os);
    return os.str();
}

json::Value parseDoc(const std::string& text) {
    std::string error;
    json::Value doc = json::parse(text, &error);
    EXPECT_TRUE(error.empty()) << error;
    return doc;
}

/// Copy of the document without one top-level key.
std::string withoutKey(const json::Value& doc, const std::string& key) {
    json::Object out;
    for (const auto& [k, v] : doc.asObject().items()) {
        if (k != key) out.set(k, v);
    }
    return json::Value(std::move(out)).dump(2);
}

/// Copy of the document with one top-level key replaced.
std::string withKey(const json::Value& doc, const std::string& key,
                    json::Value value) {
    json::Object out;
    for (const auto& [k, v] : doc.asObject().items()) out.set(k, v);
    out.set(key, std::move(value));
    return json::Value(std::move(out)).dump(2);
}

bool anyProblemMentions(const flow::CheckResult& result,
                        const std::string& needle) {
    for (const std::string& problem : result.problems) {
        if (problem.find(needle) != std::string::npos) return true;
    }
    return false;
}

class ReportCheck : public ::testing::Test {
protected:
    static void SetUpTestSuite() { text_ = new std::string(freshReport()); }
    static void TearDownTestSuite() {
        delete text_;
        text_ = nullptr;
    }
    static const std::string& text() { return *text_; }

private:
    static std::string* text_;
};

std::string* ReportCheck::text_ = nullptr;

TEST_F(ReportCheck, AcceptsAGenuineReport) {
    const flow::CheckResult result = flow::checkRunReport(text(), "report");
    EXPECT_TRUE(result.ok()) << result.problems.front();
}

TEST_F(ReportCheck, TruncatedJsonIsAStructuredProblem) {
    for (const size_t keep : {0u, 1u, 40u}) {
        const std::string truncated = text().substr(0, text().size() / 2 + keep);
        const flow::CheckResult result =
            flow::checkRunReport(truncated, "report");
        EXPECT_FALSE(result.ok()) << "accepted a truncated report";
        ASSERT_FALSE(result.problems.empty());
        EXPECT_EQ(result.problems.front().rfind("report:", 0), 0u)
            << result.problems.front();
    }
}

TEST_F(ReportCheck, MissingRobustSectionIsAProblem) {
    const flow::CheckResult result =
        flow::checkRunReport(withoutKey(parseDoc(text()), "robust"), "report");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "\"robust\""));
}

TEST_F(ReportCheck, MissingProcessSectionIsAProblem) {
    const flow::CheckResult result = flow::checkRunReport(
        withoutKey(parseDoc(text()), "process"), "report");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "\"process\""));
}

TEST_F(ReportCheck, WrongSchemaVersionNamesExpectedAndActual) {
    const flow::CheckResult result = flow::checkRunReport(
        withKey(parseDoc(text()), "schemaVersion", json::Value(99)), "report");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "schemaVersion 99"));
    EXPECT_TRUE(anyProblemMentions(
        result,
        "expected " + std::to_string(flow::kReportSchemaVersion)));
}

TEST_F(ReportCheck, WrongSchemaStringIsAProblem) {
    const flow::CheckResult result = flow::checkRunReport(
        withKey(parseDoc(text()), "schema", json::Value("other-schema")),
        "report");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "other-schema"));
}

TEST_F(ReportCheck, MistypedSectionIsAProblem) {
    const flow::CheckResult result = flow::checkRunReport(
        withKey(parseDoc(text()), "counters", json::Value(3)), "report");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "\"counters\""));
    EXPECT_TRUE(anyProblemMentions(result, "wrong type"));
}

TEST_F(ReportCheck, RouteReportFailsWhenEcoIsRequired) {
    // `streak eco --report` appends the eco section; a plain route report
    // must fail under --eco semantics and pass without them.
    const flow::CheckResult strict =
        flow::checkRunReport(text(), "report", /*requireEco=*/true);
    EXPECT_FALSE(strict.ok());
    EXPECT_TRUE(anyProblemMentions(strict, "\"eco\""));
    EXPECT_TRUE(flow::checkRunReport(text(), "report").ok());
}

TEST_F(ReportCheck, InconsistentEcoSectionIsAProblem) {
    json::Object eco;
    eco.set("totalGroups", 10);
    eco.set("resolvedGroups", 4);
    eco.set("carriedGroups", 5);  // 4 + 5 != 10
    eco.set("resolved", json::Array{json::Value("g0"), json::Value("g1")});
    eco.set("incrementalSeconds", 0.5);
    const flow::CheckResult result = flow::checkRunReport(
        withKey(parseDoc(text()), "eco", json::Value(std::move(eco))),
        "report");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(
        result, "resolvedGroups + carriedGroups != totalGroups"));
    EXPECT_TRUE(
        anyProblemMentions(result, "resolved list length disagrees"));
}

TEST_F(ReportCheck, MissingSpanTreeIsAProblem) {
    const flow::CheckResult result = flow::checkRunReport(
        withKey(parseDoc(text()), "spans", json::Value(json::Array{})),
        "report");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "span tree is empty"));
}

TEST(TraceCheck, RejectsTruncatedAndUnbalanced) {
    EXPECT_FALSE(flow::checkChromeTrace("{\"traceEvents\": [", "trace").ok());

    // E with no matching B on its track.
    const char* unbalanced = R"({"traceEvents": [
        {"ph": "E", "name": "x", "pid": 0, "tid": 0, "ts": 1}]})";
    const flow::CheckResult result =
        flow::checkChromeTrace(unbalanced, "trace");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "no open B"));
}

}  // namespace
}  // namespace streak
