#include "core/validate.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "gen/generator.hpp"
#include "test_util.hpp"

namespace streak {
namespace {

using geom::Point;
using Severity = ValidationIssue::Severity;

int countErrors(const std::vector<ValidationIssue>& issues) {
    int n = 0;
    for (const auto& i : issues) n += i.severity == Severity::Error ? 1 : 0;
    return n;
}

TEST(Validate, CleanDesignHasNoIssues) {
    const Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {14, 4}}, 4, 0, 1)});
    const auto issues = validateDesign(d);
    EXPECT_TRUE(issues.empty());
    EXPECT_TRUE(isRoutable(issues));
}

TEST(Validate, GeneratedSuitesAreRoutable) {
    for (int i = 1; i <= 7; ++i) {
        const auto issues = validateDesign(gen::makeSynth(i));
        EXPECT_TRUE(isRoutable(issues)) << "synth" << i;
    }
}

TEST(Validate, PinOutsideGridIsError) {
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {14, 4}}, 2, 0, 1)}, 16, 16);
    d.groups[0].bits[0].pins[1] = {40, 4};
    const auto issues = validateDesign(d);
    EXPECT_EQ(countErrors(issues), 1);
    EXPECT_FALSE(isRoutable(issues));
}

TEST(Validate, BadDriverIndexIsError) {
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {14, 4}}, 2, 0, 1)});
    d.groups[0].bits[1].driver = 7;
    EXPECT_FALSE(isRoutable(validateDesign(d)));
}

int countWarnings(const std::vector<ValidationIssue>& issues) {
    return static_cast<int>(issues.size()) - countErrors(issues);
}

TEST(Validate, SinglePinBitIsWarning) {
    // A run routes a single-pin bit with no wire, so it is no error.
    SignalGroup g;
    Bit b;
    b.name = "lonely";
    b.pins = {{3, 3}};
    b.driver = 0;
    g.name = "g";
    g.bits.push_back(std::move(b));
    const auto issues = validateDesign(testutil::makeDesign({g}));
    EXPECT_EQ(countWarnings(issues), 1);
    EXPECT_EQ(countErrors(issues), 0);
    EXPECT_TRUE(isRoutable(issues));
}

TEST(Validate, EmptyGroupIsWarning) {
    SignalGroup g;
    g.name = "empty";
    const auto issues = validateDesign(testutil::makeDesign({g}));
    EXPECT_EQ(countWarnings(issues), 1);
    EXPECT_EQ(countErrors(issues), 0);
    EXPECT_TRUE(isRoutable(issues));
}

TEST(Validate, ErrorsAreExactlyWhatRunsReject) {
    // `streak info` and `streak route` agree: a design validateDesign
    // finds an error in is one validatePins rejects, and no other.
    const auto bus = [] {
        return testutil::makeDesign(
            {testutil::makeBusGroup({{2, 4}, {14, 4}}, 2, 0, 1)}, 16, 16);
    };
    std::vector<std::pair<std::string, Design>> cases;
    cases.emplace_back("clean", bus());
    cases.emplace_back("single pin", bus());
    cases.back().second.groups[0].bits[1].pins.resize(1);
    cases.emplace_back("empty group", bus());
    cases.back().second.groups.push_back(SignalGroup{"empty", {}});
    cases.emplace_back("duplicate pin", bus());
    cases.back().second.groups[0].bits[0].pins[1] =
        cases.back().second.groups[0].bits[0].pins[0];
    cases.emplace_back("no pins", bus());
    cases.back().second.groups[0].bits[0].pins.clear();
    cases.emplace_back("bad driver", bus());
    cases.back().second.groups[0].bits[1].driver = 2;
    cases.emplace_back("pin off the grid", bus());
    cases.back().second.groups[0].bits[0].pins[1] = {16, 4};
    for (const auto& [name, design] : cases) {
        EXPECT_EQ(isRoutable(validateDesign(design)),
                  validatePins(design).empty())
            << name;
    }
}

TEST(Validate, DuplicatePinIsWarningOnly) {
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {14, 4}, {14, 4}}, 2, 0, 1)});
    const auto issues = validateDesign(d);
    EXPECT_FALSE(issues.empty());
    EXPECT_TRUE(isRoutable(issues));  // warnings don't block routing
}

TEST(Validate, NegativeDriverIndexIsError) {
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {14, 4}}, 2, 0, 1)});
    d.groups[0].bits[0].driver = -1;
    const auto issues = validateDesign(d);
    EXPECT_EQ(countErrors(issues), 1);
    EXPECT_FALSE(isRoutable(issues));
}

TEST(Validate, DuplicatePinAcrossGroupsIsWarning) {
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {14, 4}}, 2, 0, 1, "bus_a"),
         testutil::makeBusGroup({{2, 4}, {20, 8}}, 2, 0, 1, "bus_b")});
    const auto issues = validateDesign(d);
    ASSERT_FALSE(issues.empty());
    EXPECT_EQ(countErrors(issues), 0);
    EXPECT_TRUE(isRoutable(issues));  // suspicious, not fatal
    bool mentionsOwner = false;
    for (const auto& i : issues) {
        mentionsOwner |= i.message.find("also used by group 'bus_a'") !=
                         std::string::npos;
    }
    EXPECT_TRUE(mentionsOwner);
}

TEST(Validate, DistinctGroupsShareNoPinWarning) {
    const Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {14, 4}}, 2, 0, 1, "bus_a"),
         testutil::makeBusGroup({{2, 10}, {14, 10}}, 2, 0, 1, "bus_b")});
    EXPECT_TRUE(validateDesign(d).empty());
}

TEST(Validate, GroupWiderThanEveryLayerIsWarning) {
    // Capacity 3 everywhere, group of 8 bits: no single edge can carry the
    // whole bus, which the validator flags before any routing is attempted.
    const Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {14, 4}}, 8, 0, 1)}, 32, 32, 4, 3);
    const auto issues = validateDesign(d);
    ASSERT_FALSE(issues.empty());
    EXPECT_EQ(issues[0].severity, Severity::Warning);
    EXPECT_NE(issues[0].message.find("wider"), std::string::npos);
    EXPECT_TRUE(isRoutable(issues));
}

TEST(Validate, OverWideGroupIsWarning) {
    const Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {14, 4}}, 12, 0, 1)}, 32, 32, 4, 4);
    const auto issues = validateDesign(d);
    ASSERT_FALSE(issues.empty());
    EXPECT_EQ(issues[0].severity, Severity::Warning);
    EXPECT_TRUE(isRoutable(issues));
}

}  // namespace
}  // namespace streak
