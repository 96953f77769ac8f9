// Differential equivalence harness for incremental ECO re-routing
// (DESIGN.md "Incremental ECO", check.sh stage 10).
//
// The headline property: for every delta kind, over the shrunk synth
// suites, at thread counts 1/2/8, an incremental re-route of the
// affected-group closure is byte-identical — metrics, per-edge usage,
// topologies, cluster partitions, distance flags, the unrouted set — to
// a from-scratch re-route of the mutated design. Plus checkpoint
// round-trips, closure precision/transitivity units, delta-script
// parsing and the carried-groups speedup claim.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "eco/checkpoint.hpp"
#include "eco/delta.hpp"
#include "eco/eco.hpp"
#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "geom/rect.hpp"
#include "obs/json.hpp"
#include "robust/error.hpp"

namespace streak {
namespace {

using eco::Delta;
using eco::DeltaKind;

/// The chaos_test shrink: small enough that the suites x kinds x threads
/// product runs in seconds, structured enough to exercise clustering,
/// refinement and blockages.
gen::SuiteSpec shrunkSpec(int suite) {
    gen::SuiteSpec spec = gen::synthSpec(suite);
    spec.numGroups = 3;
    spec.gridWidth = 32;
    spec.gridHeight = 32;
    spec.numBlockages = spec.numBlockages < 2 ? spec.numBlockages : 2;
    return spec;
}

StreakOptions ecoOptions(int threads) {
    StreakOptions opts;
    opts.postOptimize = true;
    opts.maxDetourShift = 3;  // keep refinement windows tight
    opts.threads = threads;
    return opts;
}

Delta movePin(int group, int bit, int pin, geom::Point to) {
    Delta d;
    d.kind = DeltaKind::MovePin;
    d.group = group;
    d.bit = bit;
    d.pin = pin;
    d.to = to;
    return d;
}

Delta rectDelta(DeltaKind kind, geom::Rect area, int layer, int capacity) {
    Delta d;
    d.kind = kind;
    d.area = area;
    d.layer = layer;
    d.capacity = capacity;
    return d;
}

/// One representative delta per kind, derived from the design so every
/// suite gets valid coordinates. The rect deltas sit next to group 0's
/// first pin so they actually intersect a window.
std::vector<Delta> oneDeltaPerKind(const Design& d) {
    const geom::Point p = d.groups[0].bits[0].pins[0];
    const geom::Point q{p.x + 1 < d.grid.width() ? p.x + 1 : p.x - 1, p.y};
    const geom::Rect near{{p.x > 0 ? p.x - 1 : 0, p.y > 0 ? p.y - 1 : 0},
                          {q.x > p.x ? q.x : p.x, p.y}};
    const int cap = d.grid.defaultCapacity();
    return {
        movePin(0, 0, 0, q),
        rectDelta(DeltaKind::AddBlockage, near, 0, 1),
        rectDelta(DeltaKind::RemoveBlockage, near, 0, 0),
        rectDelta(DeltaKind::ResizeCapacity, near, 1, cap > 2 ? cap - 2 : 1),
    };
}

/// Four signal groups on a corridor: A-B-C chain-overlap through shared
/// window columns, D is spatially isolated. With post optimization off
/// the windows are exactly the pin bounding boxes.
Design laneDesign() {
    Design d{"lanes", grid::RoutingGrid(40, 8, 2, 8), {}};
    const auto lane = [](std::string name, int x0) {
        SignalGroup g;
        g.name = std::move(name);
        for (int b = 0; b < 2; ++b) {
            Bit bit;
            bit.name = g.name + "_b" + std::to_string(b);
            bit.pins = {{x0, 2 + b}, {x0 + 4, 2 + b}};
            bit.driver = 0;
            g.bits.push_back(std::move(bit));
        }
        return g;
    };
    d.groups = {lane("A", 2), lane("B", 6), lane("C", 10), lane("D", 20)};
    return d;
}

// ---------------------------------------------------------------- closure

TEST(EcoClosure, DeltaOutsideEveryWindowInvalidatesNothing) {
    const Design before = laneDesign();
    StreakOptions opts;  // post off: windows are the pin bboxes
    const Delta d =
        rectDelta(DeltaKind::AddBlockage, {{30, 2}, {33, 4}}, 0, 1);
    Design after = laneDesign();
    eco::applyDelta(&after, d);
    EXPECT_TRUE(eco::affectedGroups(before, after, opts, {d}).empty());
}

TEST(EcoClosure, OverlappingWindowsPropagateTransitively) {
    const Design before = laneDesign();
    StreakOptions opts;
    // Dirty rect inside A's window only; B overlaps A at x=6, C overlaps
    // B at x=10 but touches neither A nor the dirty rect. The closure
    // must still pull C in (capacity pressure can ripple A -> B -> C),
    // while the isolated D stays carried.
    const Delta d = rectDelta(DeltaKind::AddBlockage, {{3, 3}, {4, 3}}, 0, 1);
    Design after = laneDesign();
    eco::applyDelta(&after, d);
    EXPECT_EQ(eco::affectedGroups(before, after, opts, {d}),
              (std::vector<int>{0, 1, 2}));
}

TEST(EcoClosure, IsolatedGroupClosesAlone) {
    const Design before = laneDesign();
    StreakOptions opts;
    const Delta d = movePin(3, 0, 1, {23, 2});
    Design after = laneDesign();
    eco::applyDelta(&after, d);
    EXPECT_EQ(eco::affectedGroups(before, after, opts, {d}),
              (std::vector<int>{3}));
}

TEST(EcoClosure, RefinementMarginWidensTheWindow) {
    const Design d = laneDesign();
    StreakOptions off;  // post off: margin 0
    StreakOptions on = ecoOptions(1);
    const geom::Rect tight = eco::groupWindow(d, 0, off);
    const geom::Rect wide = eco::groupWindow(d, 0, on);
    EXPECT_LE(wide.lo.x, tight.lo.x);
    EXPECT_GE(wide.hi.x, tight.hi.x);
    EXPECT_LT(wide.lo.y, tight.lo.y);  // margin > 0 for 2-pin bits
}

// ----------------------------------------------------------- round trips

TEST(EcoCheckpoint, WriteReadWriteIsByteIdentical) {
    const Design d = gen::generate(shrunkSpec(1));
    const StreakOptions opts = ecoOptions(2);
    const FlowResult flow = runStreak(d, opts);
    ASSERT_TRUE(flow.ok()) << flow.error().describe();
    const eco::Checkpoint ckpt = eco::makeCheckpoint(d, opts, flow.value());
    std::ostringstream first;
    eco::writeCheckpoint(ckpt, first);
    const eco::Checkpoint back = eco::readCheckpointBuffer(first.str());
    std::ostringstream second;
    eco::writeCheckpoint(back, second);
    EXPECT_EQ(first.str(), second.str());
    EXPECT_EQ(back.bits.size(), ckpt.bits.size());
    EXPECT_EQ(back.usagePairs, ckpt.usagePairs);
    EXPECT_EQ(back.design->numNets(), d.numNets());
}

TEST(EcoDelta, ScriptParsesEveryDirective) {
    std::istringstream is(
        "# a comment\n"
        "MOVEPIN 0 1 0 12 7\n"
        "\n"
        "ADDBLOCKAGE 2 2 5 5 0 1\n"
        "REMOVEBLOCKAGE 2 2 5 5 0\n"
        "RESIZECAPACITY 1 1 3 3 1 9\n");
    const std::vector<Delta> deltas = eco::parseDeltaScript(is);
    ASSERT_EQ(deltas.size(), 4u);
    EXPECT_EQ(deltas[0].kind, DeltaKind::MovePin);
    EXPECT_EQ(deltas[0].to, (geom::Point{12, 7}));
    EXPECT_EQ(deltas[1].kind, DeltaKind::AddBlockage);
    EXPECT_EQ(deltas[2].kind, DeltaKind::RemoveBlockage);
    EXPECT_EQ(deltas[3].kind, DeltaKind::ResizeCapacity);
    EXPECT_EQ(deltas[3].capacity, 9);
}

TEST(EcoDelta, MalformedScriptLinesRaiseInvalidInput) {
    for (const char* text : {"MOVEPIN 0 0 0 12\n",       // missing arg
                             "MOVEPIN 0 0 0 12 7 9\n",   // trailing token
                             "TELEPORT 1 2 3\n",         // unknown verb
                             "ADDBLOCKAGE 2 2 5 5 0 x\n"}) {
        std::istringstream is(text);
        EXPECT_THROW((void)eco::parseDeltaScript(is),
                     robust::StreakException)
            << text;
    }
}

TEST(EcoDelta, OutOfRangeDeltaLeavesTheDesignUntouched) {
    Design d = laneDesign();
    const Delta bad = movePin(0, 0, 0, {99, 2});  // outside the grid
    EXPECT_THROW(eco::applyDelta(&d, bad), robust::StreakException);
    EXPECT_EQ(d.groups[0].bits[0].pins[0], (geom::Point{2, 2}));
}

// ------------------------------------------------- differential harness

class EcoEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EcoEquivalence, EveryDeltaKindMatchesColdAtEveryThreadCount) {
    const Design base = gen::generate(shrunkSpec(GetParam()));
    for (const int threads : {1, 2, 8}) {
        const StreakOptions opts = ecoOptions(threads);
        const FlowResult baseFlow = runStreak(base, opts);
        ASSERT_TRUE(baseFlow.ok()) << baseFlow.error().describe();
        const eco::Checkpoint ckpt =
            eco::makeCheckpoint(base, opts, baseFlow.value());
        for (const Delta& del : oneDeltaPerKind(base)) {
            SCOPED_TRACE(std::string(eco::deltaKindName(del.kind)) +
                         " at threads " + std::to_string(threads));
            const eco::EcoResult inc = eco::runEco(ckpt, {del});
            const FlowResult cold = runStreak(*inc.design, opts);
            ASSERT_TRUE(cold.ok()) << cold.error().describe();
            std::string diff;
            EXPECT_TRUE(eco::equivalent(inc, cold.value(), &diff)) << diff;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(ShrunkSuites, EcoEquivalence,
                         ::testing::Range(1, 8));

TEST(EcoIncrementality, IsolatedMoveResolvesStrictlyFewerGroups) {
    // The speedup claim behind the whole subsystem: a single pin move in
    // an isolated group re-solves only that group's closure; everything
    // else is carried verbatim — and the stitched result still matches a
    // cold re-route bit for bit.
    const Design base = laneDesign();
    StreakOptions opts;  // post off: exact pin-bbox windows
    const FlowResult baseFlow = runStreak(base, opts);
    ASSERT_TRUE(baseFlow.ok());
    const eco::Checkpoint ckpt =
        eco::makeCheckpoint(base, opts, baseFlow.value());
    const eco::EcoResult inc =
        eco::runEco(ckpt, {movePin(3, 0, 1, {23, 2})});
    EXPECT_EQ(inc.resolvedGroups, (std::vector<int>{3}));
    EXPECT_EQ(inc.carriedGroups(), 3);
    EXPECT_LT(static_cast<int>(inc.resolvedGroups.size()), inc.totalGroups);
    const FlowResult cold = runStreak(*inc.design, opts);
    ASSERT_TRUE(cold.ok());
    std::string diff;
    EXPECT_TRUE(eco::equivalent(inc, cold.value(), &diff)) << diff;
}

TEST(EcoIncrementality, EmptyClosureCarriesEverythingVerbatim) {
    const Design base = laneDesign();
    StreakOptions opts;
    const FlowResult baseFlow = runStreak(base, opts);
    ASSERT_TRUE(baseFlow.ok());
    const eco::Checkpoint ckpt =
        eco::makeCheckpoint(base, opts, baseFlow.value());
    // A blockage in empty space changes no group's feasible region.
    const eco::EcoResult inc = eco::runEco(
        ckpt, {rectDelta(DeltaKind::AddBlockage, {{30, 2}, {33, 4}}, 0, 1)});
    EXPECT_TRUE(inc.resolvedGroups.empty());
    EXPECT_EQ(inc.carriedGroups(), 4);
    const FlowResult cold = runStreak(*inc.design, opts);
    ASSERT_TRUE(cold.ok());
    std::string diff;
    EXPECT_TRUE(eco::equivalent(inc, cold.value(), &diff)) << diff;
}

// ------------------------------------------------ randomized sequences

Delta randomDelta(std::mt19937& rng, const Design& d) {
    const auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const int kind = pick(0, 3);
    if (kind == 0) {
        const int g = pick(0, d.numGroups() - 1);
        const int b = pick(0, d.groups[g].width() - 1);
        const Bit& bit = d.groups[g].bits[static_cast<size_t>(b)];
        const int p = pick(0, bit.numPins() - 1);
        const geom::Point old = bit.pins[static_cast<size_t>(p)];
        const auto clamp = [](int v, int hi) {
            return v < 0 ? 0 : (v > hi ? hi : v);
        };
        return movePin(g, b, p,
                       {clamp(old.x + pick(-2, 2), d.grid.width() - 1),
                        clamp(old.y + pick(-2, 2), d.grid.height() - 1)});
    }
    const int x = pick(0, d.grid.width() - 3);
    const int y = pick(0, d.grid.height() - 3);
    const geom::Rect area{{x, y}, {x + pick(0, 2), y + pick(0, 2)}};
    const int layer = pick(0, d.grid.numLayers() - 1);
    if (kind == 1) return rectDelta(DeltaKind::AddBlockage, area, layer, 1);
    if (kind == 2) return rectDelta(DeltaKind::RemoveBlockage, area, layer, 0);
    return rectDelta(DeltaKind::ResizeCapacity, area, layer,
                     pick(1, d.grid.defaultCapacity()));
}

TEST(EcoProperty, RandomDeltaSequencesChainAndMatchColdReroutes) {
    // Chained incrementality: checkpoint -> delta -> eco -> re-checkpoint
    // -> next delta, comparing against a cold re-route at every step.
    // Thread count rotates through the 1/2/8 ladder across steps.
    const int kThreads[] = {1, 2, 8};
    for (const unsigned seed : {11u, 23u}) {
        std::mt19937 rng(seed);
        const int suite = 1 + static_cast<int>(seed % 7u);
        SCOPED_TRACE("seed " + std::to_string(seed) + " suite " +
                     std::to_string(suite));
        const Design base = gen::generate(shrunkSpec(suite));
        const StreakOptions opts = ecoOptions(1);
        const FlowResult baseFlow = runStreak(base, opts);
        ASSERT_TRUE(baseFlow.ok());
        eco::Checkpoint ckpt =
            eco::makeCheckpoint(base, opts, baseFlow.value());
        for (int step = 0; step < 4; ++step) {
            SCOPED_TRACE("step " + std::to_string(step));
            const Delta del = randomDelta(rng, *ckpt.design);
            const int threads = kThreads[step % 3];
            const eco::EcoResult inc = eco::runEco(ckpt, {del}, threads);
            StreakOptions coldOpts = eco::semanticOptions(opts);
            coldOpts.threads = threads;
            const FlowResult cold = runStreak(*inc.design, coldOpts);
            ASSERT_TRUE(cold.ok()) << cold.error().describe();
            std::string diff;
            ASSERT_TRUE(eco::equivalent(inc, cold.value(), &diff)) << diff;
            ckpt = eco::makeCheckpoint(inc, coldOpts);
        }
    }
}

// -------------------------------------------------------------- reports

TEST(EcoReport, CarriesTheRunSchemaPlusAnEcoSection) {
    const Design base = laneDesign();
    StreakOptions opts;
    const FlowResult baseFlow = runStreak(base, opts);
    ASSERT_TRUE(baseFlow.ok());
    const eco::Checkpoint ckpt =
        eco::makeCheckpoint(base, opts, baseFlow.value());
    const eco::EcoResult inc =
        eco::runEco(ckpt, {movePin(3, 0, 1, {23, 2})});
    const obs::json::Value report =
        eco::buildEcoReport(inc, opts, 0.25, 0.75);
    ASSERT_NE(report.find("schema"), nullptr);
    EXPECT_EQ(report.find("schema")->asString(), "streak-run-report");
    const obs::json::Value* ecoSec = report.find("eco");
    ASSERT_NE(ecoSec, nullptr);
    EXPECT_EQ(ecoSec->find("totalGroups")->asNumber(), 4.0);
    EXPECT_EQ(ecoSec->find("resolvedGroups")->asNumber(), 1.0);
    EXPECT_EQ(ecoSec->find("carriedGroups")->asNumber(), 3.0);
    EXPECT_EQ(ecoSec->find("coldSeconds")->asNumber(), 0.75);
    const obs::json::Value* robustSec = report.find("robust");
    ASSERT_NE(robustSec, nullptr);
    EXPECT_NE(robustSec->find("degradations"), nullptr);
    // Round-trips through the JSON parser (the report_check contract).
    std::string error;
    EXPECT_FALSE(obs::json::parse(report.dump(2), &error).isNull()) << error;
}

}  // namespace
}  // namespace streak
