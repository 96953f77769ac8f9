// Tests for the static-analysis subsystem (tools/analyze): the rule pack
// over on-disk fixtures (fire / waive / stale-waiver per rule), the
// module layering pass, and the SARIF export round-tripped through the
// in-tree JSON parser.
//
// Fixture sources live under tests/analyze_fixtures/ (path injected as
// STREAK_ANALYZE_FIXTURES); the repo's real layering declaration comes
// in as STREAK_REPO_LAYERS so the spec that gates src/ is also the spec
// the tests exercise.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/sarif.hpp"
#include "obs/json.hpp"

namespace streak::analyze {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "missing fixture: " << p;
    std::ostringstream ss;
    ss << in.rdbuf();
    return std::move(ss).str();
}

/// Load one fixture relative to tests/analyze_fixtures/.
SourceFile fixture(const std::string& rel) {
    const fs::path p = fs::path(STREAK_ANALYZE_FIXTURES) / rel;
    return {p.generic_string(), lex(slurp(p))};
}

/// Lex an in-memory snippet under a synthetic path (for path-dependent
/// exemptions and ad-hoc cases).
SourceFile snippet(std::string path, std::string_view text) {
    return {std::move(path), lex(text)};
}

std::vector<Finding> run(const std::vector<SourceFile>& files,
                         const LayerSpec* layers = nullptr) {
    AnalyzerOptions opts;
    opts.layering = layers != nullptr;
    return analyze(files, layers, opts);
}

/// Expected findings as (line, rule), order-insensitive.
using Expected = std::vector<std::pair<int, std::string>>;

void expectFindings(const std::vector<Finding>& got, Expected want,
                    const std::string& context) {
    Expected gotPairs;
    for (const Finding& f : got) gotPairs.emplace_back(f.line, f.rule);
    std::sort(gotPairs.begin(), gotPairs.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(gotPairs, want) << context;
}

LayerSpec parseSpec(const std::string& text) {
    LayerSpec spec;
    std::string error;
    EXPECT_TRUE(parseLayerSpec(text, "fixture-layers.txt", &spec, &error))
        << error;
    return spec;
}

// ---------------------------------------------------------------------
// Per-rule fixtures: each file carries a firing line, a waived line, and
// a stale waiver that must surface as unused-suppression.

TEST(AnalyzeRules, FixturesFireWaiveAndRot) {
    const std::vector<std::pair<std::string, Expected>> cases = {
        {"rules/banned_function.cpp",
         {{4, "banned-function"}, {6, "unused-suppression"}}},
        {"rules/raw_new_delete.cpp",
         {{5, "raw-new-delete"},
          {6, "raw-new-delete"},
          {8, "unused-suppression"}}},
        {"rules/pragma_once.hpp", {{1, "pragma-once"}}},
        {"rules/pragma_once_waived.hpp", {}},
        {"rules/relative_include.cpp",
         {{2, "relative-include"}, {4, "unused-suppression"}}},
        {"rules/float_equality.cpp",
         {{2, "float-equality"}, {4, "unused-suppression"}}},
        {"rules/bare_assert.cpp",
         {{2, "bare-assert"}, {3, "bare-assert"}, {5, "unused-suppression"}}},
        {"rules/raw_timing.cpp",
         {{4, "raw-timing"}, {9, "unused-suppression"}}},
        {"rules/unordered_iteration.cpp",
         {{7, "unordered-iteration"}, {16, "unused-suppression"}}},
        {"rules/pointer_keyed.cpp",
         {{5, "pointer-keyed"},
          {6, "pointer-keyed"},
          {9, "unused-suppression"}}},
        {"rules/thread_state.cpp",
         {{3, "thread-state"},
          {4, "thread-state"},
          {6, "unused-suppression"}}},
        {"rules/nondet_random.cpp",
         {{3, "nondet-random"},
          {4, "nondet-random"},
          {7, "unused-suppression"}}},
    };
    for (const auto& [file, want] : cases) {
        expectFindings(run({fixture(file)}), want, file);
    }
}

TEST(AnalyzeRules, CompanionHeaderSuppliesUnorderedVars) {
    // Alone, the .cpp knows nothing about stuff_.
    expectFindings(run({fixture("rules/unordered_header.cpp")}), {},
                   "cpp alone");
    // With its companion header the member is known unordered.
    const std::vector<Finding> got = run({fixture("rules/unordered_header.hpp"),
                                          fixture("rules/unordered_header.cpp")});
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].rule, "unordered-iteration");
    EXPECT_EQ(got[0].line, 5);
    EXPECT_NE(got[0].file.find("unordered_header.cpp"), std::string::npos);
}

TEST(AnalyzeRules, UnorderedReturningFunctionsAreVisibleRepoWide) {
    const std::vector<Finding> got = run({fixture("rules/unordered_fn.hpp"),
                                          fixture("rules/unordered_fn_use.cpp")});
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].rule, "unordered-iteration");
    EXPECT_EQ(got[0].line, 5);
    EXPECT_NE(got[0].file.find("unordered_fn_use.cpp"), std::string::npos);
}

TEST(AnalyzeRules, MarkerNamingUnknownRuleIsReported) {
    const std::vector<Finding> got =
        run({snippet("x.cpp", "int x = 0;  // analyze-ok: no-such-rule\n")});
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].rule, "unused-suppression");
    EXPECT_NE(got[0].message.find("unknown rule"), std::string::npos);
}

TEST(AnalyzeRules, StringsAndCommentsNeverFire) {
    // The false-positive class the token lexer exists to kill: banned
    // constructs mentioned in literals, comments and raw strings.
    const std::vector<Finding> got = run({snippet(
        "quiet.cpp",
        "// std::rand() and new int and assert(x) in a comment\n"
        "const char* a = \"printf(\\\"%d\\\", std::rand())\";\n"
        "const char* b = R\"(delete p; thread_local int t;)\";\n"
        "/* for (int v : bag) with std::unordered_set<int> bag */\n")});
    expectFindings(got, {}, "strings and comments");
}

TEST(AnalyzeRules, PathExemptionsForInfrastructureModules) {
    const std::string timing =
        "#include <chrono>\n"
        "long t() { return std::chrono::steady_clock::now()\n"
        "                      .time_since_epoch().count(); }\n";
    EXPECT_TRUE(run({snippet("src/obs/stopwatch.cpp", timing)}).empty());
    EXPECT_TRUE(run({snippet("src/parallel/pool.cpp", timing)}).empty());
    EXPECT_EQ(run({snippet("src/route/maze.cpp", timing)}).size(), 1u);

    const std::string seeding = "#include <random>\nstd::mt19937 rng;\n";
    EXPECT_TRUE(run({snippet("src/gen/generator.cpp", seeding)}).empty());
    EXPECT_EQ(run({snippet("src/core/solver.cpp", seeding)}).size(), 1u);
}

TEST(AnalyzeRules, CatchAllOnlyInInfrastructureModules) {
    // src/parallel (task isolation) and src/robust (error plumbing) are
    // the only modules allowed to swallow everything; anywhere else a
    // catch-all would eat deadline and fault trips.
    const std::string handler =
        "void f() {\n"
        "  try { g(); } catch (...) {\n"
        "  }\n"
        "}\n";
    EXPECT_TRUE(run({snippet("src/parallel/pool.cpp", handler)}).empty());
    EXPECT_TRUE(run({snippet("src/robust/deadline.cpp", handler)}).empty());
    const std::vector<Finding> got =
        run({snippet("src/flow/streak.cpp", handler)});
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].rule, "catch-all");
    EXPECT_EQ(got[0].line, 2);

    const std::vector<Finding> waived = run({snippet(
        "src/flow/streak.cpp",
        "void f() {\n"
        "  try { g(); } catch (...) {  // analyze-ok: catch-all\n"
        "  }\n"
        "}\n")});
    expectFindings(waived, {}, "waived catch-all");
}

TEST(AnalyzeRules, FlowThrowMustBeStructured) {
    const std::vector<Finding> bad = run({snippet(
        "src/flow/streak.cpp",
        "#include <stdexcept>\n"
        "void f() { throw std::runtime_error(\"x\"); }\n")});
    ASSERT_EQ(bad.size(), 1u);
    EXPECT_EQ(bad[0].rule, "flow-throw");
    EXPECT_EQ(bad[0].line, 2);

    // Rethrow, structured throws, and non-flow modules are all fine.
    EXPECT_TRUE(
        run({snippet("src/flow/report.cpp",
                     "void f() { try { g(); } catch (const E& e) { throw; } "
                     "}\n")})
            .empty());
    EXPECT_TRUE(
        run({snippet("src/flow/streak.cpp",
                     "void f(robust::StreakError err) { throw "
                     "robust::StreakException(std::move(err)); }\n")})
            .empty());
    EXPECT_TRUE(
        run({snippet("src/core/solver.cpp",
                     "void f() { throw std::runtime_error(\"x\"); }\n")})
            .empty());
}

// ---------------------------------------------------------------------
// Layering

std::vector<SourceFile> layeringFixtures() {
    return {fixture("layering/src/geom/ok.hpp"),
            fixture("layering/src/geom/bad.cpp"),
            fixture("layering/src/flow/streak.hpp")};
}

TEST(AnalyzeLayering, UndeclaredUpwardEdgeIsRejected) {
    const LayerSpec spec = parseSpec("geom:\nflow: geom\n");
    const std::vector<Finding> got = run(layeringFixtures(), &spec);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].rule, "layering");
    EXPECT_EQ(got[0].line, 2);
    EXPECT_NE(got[0].file.find("geom/bad.cpp"), std::string::npos);
    EXPECT_NE(got[0].message.find("geom -> flow"), std::string::npos);
}

TEST(AnalyzeLayering, ExceptionWaivesOneFileAndRotsWhenUnused) {
    const LayerSpec waived =
        parseSpec("geom:\nflow: geom\nexcept geom/bad.cpp flow\n");
    EXPECT_TRUE(run(layeringFixtures(), &waived).empty());

    const LayerSpec stale =
        parseSpec("geom:\nflow: geom\nexcept geom/gone.cpp flow\n");
    const std::vector<Finding> got =
        run({fixture("layering/src/geom/ok.hpp")}, &stale);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].rule, "layering");
    EXPECT_NE(got[0].message.find("unused layering exception"),
              std::string::npos);
}

TEST(AnalyzeLayering, UndeclaredModuleIsReported) {
    const LayerSpec spec = parseSpec("geom:\n");
    const std::vector<Finding> got =
        run({snippet("src/mystery/x.cpp", "int x;\n")}, &spec);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].rule, "layering");
    EXPECT_NE(got[0].message.find("module 'mystery'"), std::string::npos);
}

TEST(AnalyzeLayering, CyclicSpecShortCircuitsEdgeChecks) {
    const LayerSpec spec = parseSpec("a: b\nb: a\n");
    const std::vector<Finding> got = run(layeringFixtures(), &spec);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].rule, "layering");
    EXPECT_NE(got[0].message.find("cycle"), std::string::npos);
}

TEST(AnalyzeLayering, SpecParseErrors) {
    LayerSpec spec;
    std::string error;
    EXPECT_FALSE(parseLayerSpec("geom\n", "bad.txt", &spec, &error));
    EXPECT_NE(error.find("bad.txt:1"), std::string::npos);
    LayerSpec dup;
    EXPECT_FALSE(
        parseLayerSpec("geom: check\ngeom:\n", "bad.txt", &dup, &error));
    EXPECT_NE(error.find("duplicate"), std::string::npos);
}

TEST(AnalyzeLayering, RepoSpecRejectsTheSyntheticEdge) {
    // The checked-in layers.txt that gates src/ must parse, and must
    // reject the fixture's geom -> flow include. (Its deep-audit `except`
    // entries go unused against the fixture tree; filter by file.)
    LayerSpec spec;
    std::string error;
    ASSERT_TRUE(
        parseLayerSpec(slurp(STREAK_REPO_LAYERS), "layers.txt", &spec, &error))
        << error;
    std::vector<Finding> onFixture;
    for (const Finding& f : run(layeringFixtures(), &spec)) {
        if (f.file.find("analyze_fixtures") != std::string::npos) {
            onFixture.push_back(f);
        }
    }
    ASSERT_EQ(onFixture.size(), 1u);
    EXPECT_EQ(onFixture[0].rule, "layering");
    EXPECT_EQ(onFixture[0].line, 2);
    EXPECT_NE(onFixture[0].message.find("geom -> flow"), std::string::npos);
}

// ---------------------------------------------------------------------
// SARIF

TEST(AnalyzeSarif, RoundTripsThroughInTreeJsonParser) {
    const std::vector<Finding> findings = run(
        {fixture("rules/bare_assert.cpp"), fixture("rules/pragma_once.hpp")});
    ASSERT_FALSE(findings.empty());

    std::string error;
    const obs::json::Value doc =
        obs::json::parse(sarifDocument(findings).dump(2), &error);
    ASSERT_TRUE(error.empty()) << error;

    EXPECT_EQ(doc.find("version")->asString(), "2.1.0");
    const obs::json::Array& runs = doc.find("runs")->asArray();
    ASSERT_EQ(runs.size(), 1u);
    const obs::json::Value& driver =
        *runs[0].find("tool")->find("driver");
    EXPECT_EQ(driver.find("name")->asString(), "streak_analyze");

    // Every catalog rule is declared, in catalog order.
    const obs::json::Array& rules = driver.find("rules")->asArray();
    ASSERT_EQ(rules.size(), ruleCatalog().size());
    for (size_t i = 0; i < rules.size(); ++i) {
        EXPECT_EQ(rules[i].find("id")->asString(), ruleCatalog()[i].id);
    }

    const obs::json::Array& results = runs[0].find("results")->asArray();
    ASSERT_EQ(results.size(), findings.size());
    for (size_t i = 0; i < results.size(); ++i) {
        const obs::json::Value& r = results[i];
        EXPECT_EQ(r.find("ruleId")->asString(), findings[i].rule);
        EXPECT_EQ(r.find("level")->asString(), "error");
        EXPECT_EQ(r.find("message")->find("text")->asString(),
                  findings[i].message);
        const size_t ruleIndex =
            static_cast<size_t>(r.find("ruleIndex")->asNumber());
        ASSERT_LT(ruleIndex, rules.size());
        EXPECT_EQ(rules[ruleIndex].find("id")->asString(), findings[i].rule);
        const obs::json::Value& phys =
            *r.find("locations")->asArray()[0].find("physicalLocation");
        EXPECT_EQ(phys.find("artifactLocation")->find("uri")->asString(),
                  findings[i].file);
        EXPECT_EQ(static_cast<int>(
                      phys.find("region")->find("startLine")->asNumber()),
                  findings[i].line);
    }
}

TEST(AnalyzeSarif, CleanRunStillDeclaresTheCatalog) {
    std::string error;
    const obs::json::Value doc =
        obs::json::parse(sarifDocument({}).dump(), &error);
    ASSERT_TRUE(error.empty()) << error;
    const obs::json::Array& runs = doc.find("runs")->asArray();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_TRUE(runs[0].find("results")->asArray().empty());
    EXPECT_EQ(runs[0]
                  .find("tool")
                  ->find("driver")
                  ->find("rules")
                  ->asArray()
                  .size(),
              ruleCatalog().size());
}

}  // namespace
}  // namespace streak::analyze
