#include "io/svg.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/pd_solver.hpp"
#include "test_util.hpp"

namespace streak::io {
namespace {

RoutedDesign routedFixture(const Design&, const RoutingProblem& prob) {
    return materialize(prob, solvePrimalDual(prob).solution);
}

TEST(Svg, WellFormedDocument) {
    const Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {14, 4}}, 3, 0, 1)});
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const RoutedDesign routed = routedFixture(d, prob);
    std::stringstream ss;
    writeSvg(routed, ss);
    const std::string svg = ss.str();
    EXPECT_EQ(svg.rfind("<svg", 0), 0u);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Svg, OneLinePerUnitEdgePlusPins) {
    const Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {10, 4}}, 2, 0, 1)});
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const RoutedDesign routed = routedFixture(d, prob);
    std::stringstream ss;
    writeSvg(routed, ss);
    const std::string svg = ss.str();
    size_t lines = 0;
    for (size_t pos = 0; (pos = svg.find("<line", pos)) != std::string::npos;
         ++pos) {
        ++lines;
    }
    size_t circles = 0;
    for (size_t pos = 0;
         (pos = svg.find("<circle", pos)) != std::string::npos; ++pos) {
        ++circles;
    }
    long wl = 0;
    size_t pins = 0;
    for (const RoutedBit& b : routed.bits) {
        wl += b.topo.wirelength();
        pins += b.topo.pins().size();
    }
    EXPECT_EQ(lines, static_cast<size_t>(wl));
    EXPECT_EQ(circles, pins);
}

TEST(Svg, BlockagesShaded) {
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {10, 4}}, 2, 0, 1)});
    d.grid.addBlockage({{5, 8}, {8, 11}}, 0, 0);
    const RoutingProblem prob = buildProblem(d, StreakOptions{});
    const RoutedDesign routed = routedFixture(d, prob);
    std::stringstream ss;
    writeSvg(routed, ss);
    EXPECT_NE(ss.str().find("#eeeeee"), std::string::npos);
}

TEST(Svg, EmptyRoutedDesign) {
    const Design d = testutil::makeDesign({});
    RoutedDesign empty(d.grid);
    std::stringstream ss;
    writeSvg(empty, ss);
    EXPECT_NE(ss.str().find("</svg>"), std::string::npos);
}

}  // namespace
}  // namespace streak::io
