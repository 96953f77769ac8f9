#include "core/regularity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace streak {
namespace {

using geom::Point;
using steiner::Topology;

Topology lTopo(Point driver, Point sink, bool horizontalFirst) {
    Topology t({driver, sink}, 0);
    const Point corner = horizontalFirst ? Point{sink.x, driver.y}
                                         : Point{driver.x, sink.y};
    t.addLShape(driver, sink, corner);
    return t;
}

TEST(RegularityRatio, IdenticalShapesScoreOne) {
    const Topology a = lTopo({0, 0}, {6, 4}, true);
    const Topology b = lTopo({0, 10}, {6, 14}, true);
    EXPECT_DOUBLE_EQ(regularityRatio(a, b), 1.0);
}

TEST(RegularityRatio, SymmetricInArguments) {
    const Topology a = lTopo({0, 0}, {6, 4}, true);
    const Topology b = lTopo({0, 10}, {9, 12}, false);
    EXPECT_DOUBLE_EQ(regularityRatio(a, b), regularityRatio(b, a));
}

TEST(RegularityRatio, BoundedByOne) {
    const Topology a = lTopo({0, 0}, {6, 4}, true);
    const Topology b = lTopo({2, 0}, {9, 9}, false);
    const double r = regularityRatio(a, b);
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
}

TEST(RegularityRatio, StraightVsLShareTrunk) {
    // Fig. 3(a): a straight +x route and an L route; the bend maps to the
    // sink, the shared horizontal trunk matches -> ratio 1.
    Topology straight({{0, 0}, {8, 0}}, 0);
    straight.addSegment({{0, 0}, {8, 0}});
    const Topology l = lTopo({0, 4}, {8, 9}, true);
    EXPECT_DOUBLE_EQ(regularityRatio(straight, l), 1.0);
}

TEST(RegularityRatio, OppositeDirectionsShareNothing) {
    Topology right({{0, 0}, {8, 0}}, 0);
    right.addSegment({{0, 0}, {8, 0}});
    Topology up({{0, 0}, {0, 8}}, 0);
    up.addSegment({{0, 0}, {0, 8}});
    EXPECT_LT(regularityRatio(right, up), 1.0);
}

TEST(RegularityRatio, SelfRatioIsOne) {
    const Topology a = lTopo({3, 3}, {9, 8}, false);
    EXPECT_DOUBLE_EQ(regularityRatio(a, a), 1.0);
}

TEST(RegularityRatio, NoRCsIsTriviallyRegular) {
    const Topology a({{2, 2}}, 0);
    const Topology b = lTopo({0, 0}, {4, 4}, true);
    EXPECT_DOUBLE_EQ(regularityRatio(a, b), 1.0);
}

TEST(GroupRegularity, SingleObjectIsOne) {
    const Topology a = lTopo({0, 0}, {5, 5}, true);
    EXPECT_DOUBLE_EQ(groupRegularity({&a}), 1.0);
    EXPECT_DOUBLE_EQ(groupRegularity({}), 1.0);
}

TEST(GroupRegularity, AveragesPairs) {
    const Topology a = lTopo({0, 0}, {6, 4}, true);
    const Topology b = lTopo({0, 10}, {6, 14}, true);   // same shape as a
    Topology c({{0, 20}, {0, 28}}, 0);                  // vertical straight
    c.addSegment({{0, 20}, {0, 28}});
    const double rAB = regularityRatio(a, b);
    const double rAC = regularityRatio(a, c);
    const double rBC = regularityRatio(b, c);
    const double expected = (rAB + rAC + rBC) / 3.0;
    EXPECT_NEAR(groupRegularity({&a, &b, &c}), expected, 1e-12);
    EXPECT_DOUBLE_EQ(rAB, 1.0);
}

// ----------------------------------------------------- regularity views

/// The ratio as computed before views existed: structure and similarity
/// vectors rebuilt per call, RCs looked up in a std::set.
double ratioFromScratch(const Topology& t1, const Topology& t2) {
    struct Match {
        std::vector<Point> points;
        std::vector<SimilarityVector> svs;
        steiner::TopoStructure st;
    };
    const auto make = [](const Topology& t) {
        Match m;
        m.st = t.structure();
        int driverNode = -1;
        for (size_t i = 0; i < m.st.nodes.size(); ++i) {
            m.points.push_back(m.st.nodes[i].pt);
            if (m.st.nodes[i].pinIndex == t.driverIndex()) {
                driverNode = static_cast<int>(i);
            }
        }
        const int weight = static_cast<int>(m.points.size()) + 1;
        for (size_t i = 0; i < m.points.size(); ++i) {
            m.svs.push_back(weightedSimilarity(
                m.points, static_cast<int>(i), driverNode, weight));
        }
        return m;
    };
    const Match a = make(t1);
    const Match b = make(t2);
    const int nrc = std::min(a.st.numRCs(), b.st.numRCs());
    if (nrc == 0) return 1.0;
    std::vector<int> match(a.points.size(), -1);
    for (size_t i = 0; i < a.points.size(); ++i) {
        long bestKey = std::numeric_limits<long>::max();
        for (size_t j = 0; j < b.points.size(); ++j) {
            const long key =
                static_cast<long>(svDistance(a.svs[i], b.svs[j])) * 1000000 +
                manhattan(a.points[i], b.points[j]);
            if (key < bestKey) {
                bestKey = key;
                match[i] = static_cast<int>(j);
            }
        }
    }
    std::set<std::pair<int, int>> rcSet;
    for (const auto& [u, v] : b.st.rcs) {
        rcSet.insert({std::min(u, v), std::max(u, v)});
    }
    int matched = 0;
    for (const auto& [u, v] : a.st.rcs) {
        const int mu = match[static_cast<size_t>(u)];
        const int mv = match[static_cast<size_t>(v)];
        if (mu != mv && rcSet.contains({std::min(mu, mv), std::max(mu, mv)})) {
            ++matched;
        }
    }
    return std::min(1.0, static_cast<double>(matched) / nrc);
}

/// A random rectilinear topology: 1-5 pins in a 12x12 box, each sink
/// joined to an earlier pin by an L-shape. Repeated pins and single-point
/// topologies (no RC at all) come up naturally.
Topology randomTopology(std::mt19937* rng) {
    std::uniform_int_distribution<int> coord(0, 12);
    std::uniform_int_distribution<int> pinCount(1, 5);
    std::uniform_int_distribution<int> coin(0, 1);
    std::vector<Point> pins(static_cast<size_t>(pinCount(*rng)));
    for (Point& p : pins) p = {coord(*rng), coord(*rng)};
    Topology t(pins, 0);
    for (size_t k = 1; k < pins.size(); ++k) {
        std::uniform_int_distribution<size_t> earlier(0, k - 1);
        const Point from = pins[earlier(*rng)];
        const Point to = pins[k];
        t.addLShape(from, to,
                    coin(*rng) != 0 ? Point{to.x, from.y} : Point{from.x, to.y});
    }
    return t;
}

/// Views give exactly the topology ratio, and both match the ratio
/// computed from scratch.
void expectViewsAgree(const Topology& a, const Topology& b) {
    const RegularityView va = regularityView(a);
    const RegularityView vb = regularityView(b);
    const double fromTopologies = regularityRatio(a, b);
    EXPECT_EQ(regularityRatio(va, vb), fromTopologies);
    EXPECT_EQ(regularityRatio(vb, va), regularityRatio(b, a));
    EXPECT_EQ(fromTopologies, ratioFromScratch(a, b));
}

TEST(RegularityView, MatchesTopologyRatioOnFixtures) {
    Topology straight({{0, 0}, {8, 0}}, 0);
    straight.addSegment({{0, 0}, {8, 0}});
    Topology up({{0, 0}, {0, 8}}, 0);
    up.addSegment({{0, 0}, {0, 8}});
    const Topology point({{2, 2}}, 0);
    const std::vector<Topology> fixtures = {
        lTopo({0, 0}, {6, 4}, true),  lTopo({0, 10}, {6, 14}, true),
        lTopo({0, 10}, {9, 12}, false), lTopo({2, 0}, {9, 9}, false),
        lTopo({0, 4}, {8, 9}, true),  lTopo({3, 3}, {9, 8}, false),
        straight, up, point};
    for (const Topology& a : fixtures) {
        for (const Topology& b : fixtures) expectViewsAgree(a, b);
    }
}

TEST(RegularityView, MatchesTopologyRatioOnRandomPairs) {
    std::mt19937 rng(20170618);
    int withoutRc = 0;
    for (int k = 0; k < 500; ++k) {
        const Topology a = randomTopology(&rng);
        const Topology b = randomTopology(&rng);
        if (a.structure().numRCs() == 0 || b.structure().numRCs() == 0) {
            ++withoutRc;
        }
        expectViewsAgree(a, b);
    }
    EXPECT_GT(withoutRc, 0);  // the sweep covers the trivial branch
}

TEST(GroupRegularity, EqualsPairwiseTopologyMeanExactly) {
    // One view per topology, summed in the same (i, p) order, gives the
    // same double as the mean of fresh topology ratios.
    std::mt19937 rng(99);
    for (int n = 2; n <= 7; ++n) {
        for (int round = 0; round < 20; ++round) {
            std::vector<Topology> topos;
            for (int k = 0; k < n; ++k) topos.push_back(randomTopology(&rng));
            std::vector<const Topology*> reps;
            for (const Topology& t : topos) reps.push_back(&t);
            double sum = 0.0;
            for (int i = 0; i < n; ++i) {
                for (int p = i + 1; p < n; ++p) {
                    sum += regularityRatio(topos[static_cast<size_t>(i)],
                                           topos[static_cast<size_t>(p)]);
                }
            }
            EXPECT_EQ(groupRegularity(reps),
                      2.0 * sum / (static_cast<double>(n) * (n - 1)));
        }
    }
}

TEST(RegularityView, ViewIsReusable) {
    // One view compared against many others gives the same ratios as
    // fresh views each time.
    std::mt19937 rng(7);
    const Topology a = randomTopology(&rng);
    const RegularityView va = regularityView(a);
    for (int k = 0; k < 50; ++k) {
        const Topology b = randomTopology(&rng);
        EXPECT_EQ(regularityRatio(va, regularityView(b)),
                  regularityRatio(a, b));
    }
}

}  // namespace
}  // namespace streak
