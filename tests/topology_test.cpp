#include "steiner/topology.hpp"

#include <gtest/gtest.h>

namespace streak::steiner {
namespace {

using geom::Point;

Topology lShape() {
    // Driver at (0,0), sink at (3,2), corner at (3,0).
    Topology t({{0, 0}, {3, 2}}, 0);
    t.addLShape({0, 0}, {3, 2}, {3, 0});
    return t;
}

TEST(Topology, WirelengthCountsUnitEdges) {
    const Topology t = lShape();
    EXPECT_EQ(t.wirelength(), 5);
}

TEST(Topology, AddSegmentIsUnion) {
    Topology t({{0, 0}, {4, 0}}, 0);
    t.addSegment({{0, 0}, {3, 0}});
    t.addSegment({{1, 0}, {4, 0}});  // overlaps [1,3]
    EXPECT_EQ(t.wirelength(), 4);
}

TEST(Topology, ConnectedAndTree) {
    const Topology t = lShape();
    EXPECT_TRUE(t.connected());
    EXPECT_TRUE(t.isTree());
}

TEST(Topology, DisconnectedPinDetected) {
    Topology t({{0, 0}, {5, 5}}, 0);
    t.addSegment({{0, 0}, {3, 0}});
    EXPECT_FALSE(t.connected());
    EXPECT_FALSE(t.isTree());
}

TEST(Topology, FloatingWireDetected) {
    Topology t({{0, 0}, {2, 0}}, 0);
    t.addSegment({{0, 0}, {2, 0}});
    t.addSegment({{5, 5}, {6, 5}});  // floating metal
    EXPECT_FALSE(t.connected());
}

TEST(Topology, CycleIsNotATree) {
    Topology t({{0, 0}, {2, 2}}, 0);
    t.addSegment({{0, 0}, {2, 0}});
    t.addSegment({{2, 0}, {2, 2}});
    t.addSegment({{2, 2}, {0, 2}});
    t.addSegment({{0, 2}, {0, 0}});
    EXPECT_TRUE(t.connected());
    EXPECT_FALSE(t.isTree());
}

TEST(Topology, BendCount) {
    EXPECT_EQ(lShape().bendCount(), 1);
    Topology straight({{0, 0}, {5, 0}}, 0);
    straight.addSegment({{0, 0}, {5, 0}});
    EXPECT_EQ(straight.bendCount(), 0);
}

TEST(Topology, SourceToSinkDistances) {
    const Topology t = lShape();
    const auto d = t.sourceToSinkDistances();
    ASSERT_EQ(d.size(), 2u);
    EXPECT_EQ(d[0], 0);
    EXPECT_EQ(d[1], 5);
}

TEST(Topology, UnreachablePinGetsMinusOne) {
    Topology t({{0, 0}, {9, 9}}, 0);
    t.addSegment({{0, 0}, {4, 0}});
    const auto d = t.sourceToSinkDistances();
    EXPECT_EQ(d[1], -1);
}

TEST(Topology, StructureFindsBend) {
    const Topology t = lShape();
    const TopoStructure st = t.structure();
    ASSERT_EQ(st.nodes.size(), 3u);
    EXPECT_EQ(st.numRCs(), 2);
    int bends = 0;
    for (const auto& n : st.nodes) bends += n.isBend ? 1 : 0;
    EXPECT_EQ(bends, 1);
}

TEST(Topology, StructureFindsJunction) {
    // T shape: trunk (0,0)-(4,0), branch up at (2,0) to (2,3).
    Topology t({{0, 0}, {4, 0}, {2, 3}}, 0);
    t.addSegment({{0, 0}, {4, 0}});
    t.addSegment({{2, 0}, {2, 3}});
    const TopoStructure st = t.structure();
    EXPECT_EQ(st.numRCs(), 3);
    int deg3 = 0;
    for (const auto& n : st.nodes) deg3 += n.degree == 3 ? 1 : 0;
    EXPECT_EQ(deg3, 1);
}

TEST(Topology, StructureRCsAreStraight) {
    const Topology t = lShape();
    for (const auto& [u, v] : t.structure().rcs) {
        const auto& st = t.structure();
        const geom::Point a = st.nodes[static_cast<size_t>(u)].pt;
        const geom::Point b = st.nodes[static_cast<size_t>(v)].pt;
        EXPECT_TRUE(a.x == b.x || a.y == b.y);
    }
}

TEST(Topology, RemoveSegment) {
    Topology t = lShape();
    t.removeSegment({{3, 0}, {3, 2}});
    EXPECT_EQ(t.wirelength(), 3);
    EXPECT_FALSE(t.connected());
}

TEST(Topology, TranslatePreservesShape) {
    const Topology t = lShape();
    const Topology moved = t.translate(2, -1);
    EXPECT_EQ(moved.wirelength(), t.wirelength());
    EXPECT_EQ(moved.bendCount(), t.bendCount());
    EXPECT_TRUE(moved.isTree());
    EXPECT_EQ(moved.pins()[0], (Point{2, -1}));
    EXPECT_EQ(moved.pins()[1], (Point{5, 1}));
}

TEST(Topology, WireHashIdenticalForEqualShapes) {
    const Topology a = lShape();
    Topology b({{0, 0}, {3, 2}}, 0);
    b.addSegment({{0, 0}, {3, 0}});
    b.addSegment({{3, 0}, {3, 2}});
    EXPECT_EQ(a.wireHash(), b.wireHash());
    const Topology c = a.translate(1, 0);
    EXPECT_NE(a.wireHash(), c.wireHash());
}

TEST(Topology, SinglePinTopologyIsTrivialTree) {
    const Topology t({{5, 5}}, 0);
    EXPECT_TRUE(t.connected());
    EXPECT_TRUE(t.isTree());
    EXPECT_EQ(t.wirelength(), 0);
}

TEST(Topology, RejectsBadDriver) {
    EXPECT_THROW(Topology({{0, 0}}, 1), std::invalid_argument);
    EXPECT_THROW(Topology({}, 0), std::invalid_argument);
}

}  // namespace
}  // namespace streak::steiner
