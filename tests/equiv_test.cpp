#include "core/equiv.hpp"

#include <gtest/gtest.h>

#include "core/backbone.hpp"
#include "core/candidate.hpp"
#include "core/identify.hpp"
#include "equiv_reference.hpp"
#include "test_util.hpp"

namespace streak {
namespace {

using geom::Point;

struct Case {
    SignalGroup group;
    RoutingObject object;
};

Case makeCase(const std::vector<Point>& pattern, int width, int dx, int dy) {
    Case c;
    c.group = testutil::makeBusGroup(pattern, width, dx, dy);
    auto objects = identifyObjects(c.group, 0);
    EXPECT_EQ(objects.size(), 1u);
    c.object = objects[0];
    return c;
}

/// The object's backbone shapes as the candidate build makes them: one
/// per backbone, in enumeration order. Members are read through
/// BackboneShape::memberTopology, the production path.
std::vector<BackboneShape> shapesOf(const SignalGroup& group,
                                    const RoutingObject& object) {
    const Design design = testutil::makeDesign({group}, 32, 32);
    return generateCandidates(design, object, StreakOptions{}).shapes;
}

TEST(EquivalentTopology, TranslatedBitsGetTranslatedCopies) {
    Case c = makeCase({{0, 0}, {8, 0}, {8, 5}}, 4, 0, 1);
    const std::vector<BackboneShape> shapes = shapesOf(c.group, c.object);
    ASSERT_FALSE(shapes.empty());
    const BackboneShape& shape = shapes.front();
    const steiner::Topology& bb = shape.backbone;
    for (int k = 0; k < c.object.width(); ++k) {
        const steiner::Topology t = shape.memberTopology(c.group, c.object, k);
        EXPECT_TRUE(t.connected()) << "bit " << k;
        EXPECT_EQ(t.wirelength(), bb.wirelength());
        EXPECT_EQ(t.bendCount(), bb.bendCount());
        // Pins are the member bit's own pins.
        const Bit& bit = c.group.bits[static_cast<size_t>(
            c.object.bitIndices[static_cast<size_t>(k)])];
        EXPECT_EQ(t.pins(), bit.pins);
    }
}

TEST(EquivalentTopology, StretchedBitKeepsStructure) {
    // Two isomorphic bits with different sink distances.
    SignalGroup g;
    g.bits.push_back(testutil::makeBit({{0, 0}, {6, 0}, {6, 4}}));
    g.bits.push_back(testutil::makeBit({{0, 1}, {10, 1}, {10, 8}}));
    auto objects = identifyObjects(g, 0);
    ASSERT_EQ(objects.size(), 1u);
    const std::vector<BackboneShape> shapes = shapesOf(g, objects[0]);
    ASSERT_FALSE(shapes.empty());
    for (int k = 0; k < 2; ++k) {
        const steiner::Topology t =
            shapes[0].memberTopology(g, objects[0], k);
        EXPECT_TRUE(t.connected());
        // Same number of bends: equivalent structure despite stretching.
        EXPECT_EQ(t.bendCount(), shapes[0].backbone.bendCount());
        for (const int d : t.sourceToSinkDistances()) EXPECT_GE(d, 0);
    }
}

TEST(EquivalentTopology, RepresentativeGetsBackboneItself) {
    Case c = makeCase({{0, 0}, {7, 3}}, 5, 0, 1);
    const std::vector<BackboneShape> shapes = shapesOf(c.group, c.object);
    ASSERT_FALSE(shapes.empty());
    const steiner::Topology t = shapes[0].memberTopology(
        c.group, c.object, c.object.representativeBit);
    EXPECT_EQ(t.wireHash(), shapes[0].backbone.wireHash());
}

TEST(EquivalentTopologies, OneTopologyPerBit) {
    Case c = makeCase({{0, 0}, {9, 0}}, 6, 0, 1);
    const Design design = testutil::makeDesign({c.group}, 16, 16);
    const ObjectCandidates got =
        generateCandidates(design, c.object, StreakOptions{});
    ASSERT_FALSE(got.shapes.empty());
    const BackboneShape& shape = got.shapes.front();
    ASSERT_EQ(shape.shifts.size(), 6u);
    // Parallel tracks: every bit is a shift, so none is stored.
    EXPECT_TRUE(shape.remaps.empty());
    std::vector<steiner::Topology> topos;
    for (int k = 0; k < c.object.width(); ++k) {
        topos.push_back(shape.memberTopology(c.group, c.object, k));
        EXPECT_TRUE(topos.back() ==
                    reference::equivalentTopology(shape.backbone, c.group,
                                                  c.object, k))
            << "member " << k;
    }
    // Bit k is bit 0 translated by (0, k).
    for (size_t k = 1; k < topos.size(); ++k) {
        EXPECT_EQ(topos[k].wireHash(),
                  topos[0]
                      .translate({0, static_cast<int>(k)}, topos[0].pins(), 0)
                      .wireHash());
    }
}

TEST(EquivalentTopology, MultipinBackboneAllPinsReached) {
    Case c = makeCase({{0, 0}, {10, 0}, {10, 6}, {4, 6}, {0, 8}}, 3, 1, 0);
    const std::vector<BackboneShape> shapes = shapesOf(c.group, c.object);
    ASSERT_FALSE(shapes.empty());
    for (const BackboneShape& shape : shapes) {
        for (int k = 0; k < c.object.width(); ++k) {
            const steiner::Topology t =
                shape.memberTopology(c.group, c.object, k);
            EXPECT_TRUE(t.connected());
            for (const int d : t.sourceToSinkDistances()) EXPECT_GE(d, 0);
        }
    }
}

TEST(GenerateBackbones, AreTreesOverRepresentativePins) {
    Case c = makeCase({{0, 0}, {12, 0}, {12, 9}, {5, 9}}, 4, 0, 1);
    const auto backbones = generateBackbones(c.group, c.object);
    ASSERT_FALSE(backbones.empty());
    const int repBit = c.object.bitIndices[static_cast<size_t>(
        c.object.representativeBit)];
    for (const steiner::Topology& bb : backbones) {
        EXPECT_TRUE(bb.isTree());
        EXPECT_EQ(bb.pins(),
                  c.group.bits[static_cast<size_t>(repBit)].pins);
    }
}

TEST(GenerateBackbones, HonorsMaxBackbones) {
    Case c = makeCase({{0, 0}, {12, 3}, {6, 9}}, 3, 0, 1);
    BackboneOptions opts;
    opts.maxBackbones = 2;
    const auto backbones = generateBackbones(c.group, c.object, opts);
    EXPECT_LE(backbones.size(), 2u);
    EXPECT_GE(backbones.size(), 1u);
}

}  // namespace
}  // namespace streak
