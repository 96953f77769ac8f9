// Differential test of the distance analysis (Sec. IV-C) against the
// per-bit analysis it replaced. The reference below walks every routed
// bit's wire on its own (Topology::sourceToSinkDistances); production
// runs one BFS per wire shape within a group and lets every bit whose
// wire and driver are that wire moved by one offset read it. Both must
// give the same report, field for field, on the primal-dual equivalence
// designs after materialize, after clustering and after refinement, and
// on hand-built bits: a shift with permuted pins and another driver
// index, a driver off the wire, a pin off the wire, a bit with no wire,
// and two translated wires whose drivers differ.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/distance.hpp"
#include "core/pd_solver.hpp"
#include "core/problem.hpp"
#include "core/solution.hpp"
#include "gen/generator.hpp"
#include "obs/session.hpp"
#include "post/clustering.hpp"
#include "post/refine.hpp"
#include "test_util.hpp"

namespace streak {
namespace {

using geom::Point;

// ------------------------------------------------------- the reference

namespace reference {

/// Every group's report, each routed bit's distances from its own walk.
std::vector<GroupDistanceReport> analyzeDistances(
    const RoutingProblem& prob, const RoutedDesign& routed,
    double thresholdFraction,
    const std::vector<int>* fixedThresholds = nullptr) {
    const std::vector<std::vector<FamilyMember>> families =
        buildSinkFamilies(prob, routed);
    std::vector<GroupDistanceReport> reports;
    for (int g = 0; g < prob.design->numGroups(); ++g) {
        std::map<int, std::vector<int>> distCache;
        const auto distancesOf = [&](int r) -> const std::vector<int>& {
            auto it = distCache.find(r);
            if (it == distCache.end()) {
                it = distCache
                         .emplace(r, routed.bits[static_cast<size_t>(r)]
                                         .topo.sourceToSinkDistances())
                         .first;
            }
            return it->second;
        };
        GroupDistanceReport rep;
        rep.groupIndex = g;
        struct Sample {
            int routedBit;
            int pin;
            int distance;
        };
        std::map<int, std::vector<Sample>> byFamily;
        int maxDst = 0;
        for (const FamilyMember& m : families[static_cast<size_t>(g)]) {
            const int dst =
                distancesOf(m.routedBitIndex)[static_cast<size_t>(m.pinIndex)];
            if (dst < 0) continue;
            byFamily[m.familyId].push_back({m.routedBitIndex, m.pinIndex, dst});
            maxDst = std::max(maxDst, dst);
        }
        rep.maxInitialDistance = maxDst;
        if (fixedThresholds != nullptr &&
            (*fixedThresholds)[static_cast<size_t>(g)] >= 0) {
            rep.threshold = (*fixedThresholds)[static_cast<size_t>(g)];
        } else {
            rep.threshold = static_cast<int>(thresholdFraction * maxDst);
        }
        for (const auto& [fam, samples] : byFamily) {
            if (samples.size() < 2) continue;
            int mx = 0;
            int mn = std::numeric_limits<int>::max();
            for (const Sample& s : samples) {
                mx = std::max(mx, s.distance);
                mn = std::min(mn, s.distance);
            }
            const int dev = mx - mn;
            rep.maxDeviation = std::max(rep.maxDeviation, dev);
            if (dev > rep.threshold) {
                ++rep.violatingFamilies;
                for (const Sample& s : samples) {
                    if (mx - s.distance > rep.threshold) {
                        rep.violations.push_back(
                            {s.routedBit, s.pin, s.distance, mx});
                    }
                }
            }
        }
        reports.push_back(std::move(rep));
    }
    return reports;
}

}  // namespace reference

// ------------------------------------------------------ the comparison

/// Every field of two report sets that differs, prefixed with `stage`.
std::vector<std::string> reportDifferences(
    const std::vector<GroupDistanceReport>& got,
    const std::vector<GroupDistanceReport>& want, const std::string& stage) {
    std::vector<std::string> out;
    if (got.size() != want.size()) {
        out.push_back(stage + ": report count differs");
        return out;
    }
    for (size_t g = 0; g < got.size(); ++g) {
        const GroupDistanceReport& a = got[g];
        const GroupDistanceReport& b = want[g];
        const std::string at = stage + ", group " + std::to_string(g) + ": ";
        if (a.groupIndex != b.groupIndex) out.push_back(at + "groupIndex");
        if (a.maxInitialDistance != b.maxInitialDistance) {
            out.push_back(at + "maxInitialDistance");
        }
        if (a.threshold != b.threshold) out.push_back(at + "threshold");
        if (a.violatingFamilies != b.violatingFamilies) {
            out.push_back(at + "violatingFamilies");
        }
        if (a.maxDeviation != b.maxDeviation) {
            out.push_back(at + "maxDeviation");
        }
        if (a.violations.size() != b.violations.size()) {
            out.push_back(at + "violation count");
            continue;
        }
        for (size_t k = 0; k < a.violations.size(); ++k) {
            const PinDeviation& x = a.violations[k];
            const PinDeviation& y = b.violations[k];
            if (x.routedBitIndex != y.routedBitIndex ||
                x.pinIndex != y.pinIndex || x.distance != y.distance ||
                x.familyMax != y.familyMax) {
                out.push_back(at + "violation " + std::to_string(k));
            }
        }
    }
    return out;
}

/// The production analysis with detail on, in a session of its own, with
/// its distance/analyze.bits and .walks counters.
struct Analysis {
    std::vector<GroupDistanceReport> reports;
    long long bits = 0;
    long long walks = 0;
};

Analysis analyze(const RoutingProblem& prob, const RoutedDesign& routed,
                 double fraction,
                 const std::vector<int>* fixedThresholds = nullptr) {
    obs::Session sess;
    sess.setDetailEnabled(true);
    const obs::SessionBind bind(sess);
    Analysis out;
    out.reports = analyzeDistances(prob, routed, fraction, fixedThresholds);
    const obs::Snapshot snap = sess.snapshotMetrics();
    const auto read = [&](const char* name) {
        const auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0 : it->second;
    };
    out.bits = read("distance/analyze.bits");
    out.walks = read("distance/analyze.walks");
    return out;
}

/// Totals over the sweep, so a set whose bits never share a walk fails
/// instead of passing vacuously.
struct Coverage {
    int designs = 0;
    int analyses = 0;
    long long bits = 0;
    long long walks = 0;
    long long violations = 0;
    int mismatches = 0;
};

/// One comparison: production against the reference on `routed`.
void compareAt(const RoutingProblem& prob, const RoutedDesign& routed,
               const std::vector<int>* fixedThresholds,
               const std::string& stage, Coverage* cov,
               std::vector<std::string>* diffs) {
    const double fraction = prob.opts.distanceThresholdFraction;
    const Analysis got = analyze(prob, routed, fraction, fixedThresholds);
    const std::vector<GroupDistanceReport> want =
        reference::analyzeDistances(prob, routed, fraction, fixedThresholds);
    ++cov->analyses;
    cov->bits += got.bits;
    cov->walks += got.walks;
    for (const GroupDistanceReport& r : want) {
        cov->violations += static_cast<long long>(r.violations.size());
    }
    std::vector<std::string> more = reportDifferences(got.reports, want, stage);
    diffs->insert(diffs->end(), more.begin(), more.end());
}

void compareOn(const Design& design, const StreakOptions& opts,
               Coverage* cov) {
    const RoutingProblem prob = buildProblem(design, opts);
    ++cov->designs;
    std::vector<std::string> diffs;
    RoutedDesign routed = materialize(prob, solvePrimalDual(prob).solution);
    compareAt(prob, routed, nullptr, "after materialize", cov, &diffs);
    post::clusterAndRoute(prob, &routed);
    compareAt(prob, routed, nullptr, "after clustering", cov, &diffs);
    const post::RefinementResult ref = post::refineDistances(prob, &routed);
    compareAt(prob, routed, nullptr, "after refinement", cov, &diffs);
    compareAt(prob, routed, &ref.thresholds,
              "after refinement, initial thresholds", cov, &diffs);
    if (!diffs.empty()) ++cov->mismatches;
    for (size_t k = 0; k < std::min<size_t>(diffs.size(), 5); ++k) {
        ADD_FAILURE() << design.name << ": " << diffs[k];
    }
}

/// The primal-dual equivalence set: four rounds of full-size and shrunk
/// synth1-7 at generator seeds advanced by 0-3, plus six congested
/// multipin variants per round; five layer pairs in the fourth round.
TEST(DistanceEquivalence, MatchesThePerBitAnalysis) {
    Coverage cov;
    for (std::uint32_t offset = 1; offset <= 4; ++offset) {
        StreakOptions opts;
        opts.threads = 1;
        if (offset == 4) opts.maxLayerPairs = 5;
        std::vector<gen::SuiteSpec> specs;
        for (int suite = 1; suite <= 7; ++suite) {
            for (gen::SuiteSpec spec :
                 {gen::synthSpec(suite), gen::shrunkSynthSpec(suite)}) {
                spec.seed += offset - 1;
                specs.push_back(spec);
            }
        }
        for (const auto& [capacity, viaCapacity] :
             {std::pair{0, -1}, std::pair{0, 3}, std::pair{2, -1},
              std::pair{2, 3}, std::pair{1, -1}, std::pair{1, 1}}) {
            gen::SuiteSpec spec = testutil::congestedMultipinSpec();
            spec.name = "congested-cap" + std::to_string(capacity) + "-via" +
                        std::to_string(viaCapacity);
            if (capacity > 0) spec.capacity = capacity;
            spec.viaCapacity = viaCapacity;
            spec.seed = offset;
            specs.push_back(spec);
        }
        for (gen::SuiteSpec& spec : specs) {
            spec.name += "-" + std::to_string(spec.seed);
            compareOn(gen::generate(spec), opts, &cov);
        }
    }
    std::cout << cov.designs << " designs, " << cov.analyses
              << " analyses, " << cov.bits << " bits in " << cov.walks
              << " walks, " << cov.violations << " violations, "
              << cov.mismatches << " mismatches\n";
    EXPECT_EQ(cov.designs, 80);
    EXPECT_EQ(cov.mismatches, 0);
    EXPECT_GT(cov.violations, 0);
    // Translated wires share walks: far fewer walks than bits.
    EXPECT_GT(cov.walks, 0);
    EXPECT_LT(cov.walks * 2, cov.bits);
}

// ------------------------------------------------------- hand cases

/// One bit of a hand-built group: its pins, driver and routed wire.
struct HandBit {
    std::vector<Point> pins;
    int driver = 0;
    std::vector<geom::Segment> wire;
};

/// Builds a one-group design of `bits`, routes every bit with its hand
/// wire, and compares the production analysis with the reference.
Analysis compareHand(const std::vector<HandBit>& bits) {
    SignalGroup group;
    group.name = "hand";
    for (size_t b = 0; b < bits.size(); ++b) {
        Bit bit;
        bit.name = "b" + std::to_string(b);
        bit.pins = bits[b].pins;
        bit.driver = bits[b].driver;
        group.bits.push_back(std::move(bit));
    }
    const Design design = testutil::makeDesign({group}, 40, 40);
    StreakOptions opts;
    opts.threads = 1;
    const RoutingProblem prob = buildProblem(design, opts);
    RoutedDesign routed(design.grid);
    for (int o = 0; o < prob.numObjects(); ++o) {
        const RoutingObject& obj = prob.objects[static_cast<size_t>(o)];
        for (int k = 0; k < obj.width(); ++k) {
            const int b = obj.bitIndices[static_cast<size_t>(k)];
            const HandBit& hand = bits[static_cast<size_t>(b)];
            RoutedBit rb;
            rb.groupIndex = 0;
            rb.bitIndex = b;
            rb.objectIndex = o;
            rb.memberIndex = k;
            rb.clusterKey = o;
            rb.topo = steiner::Topology(hand.pins, hand.driver);
            for (const geom::Segment& s : hand.wire) rb.topo.addSegment(s);
            routed.bits.push_back(std::move(rb));
        }
    }
    const Analysis got = analyze(prob, routed, 0.5);
    const std::vector<std::string> diffs = reportDifferences(
        got.reports, reference::analyzeDistances(prob, routed, 0.5), "hand");
    for (size_t k = 0; k < std::min<size_t>(diffs.size(), 5); ++k) {
        ADD_FAILURE() << diffs[k];
    }
    return got;
}

/// `b` moved by d, each of its wire's segments too.
HandBit moved(const HandBit& b, Point d) {
    HandBit out = b;
    for (Point& p : out.pins) p = {p.x + d.x, p.y + d.y};
    for (geom::Segment& s : out.wire) {
        s = {{s.a.x + d.x, s.a.y + d.y}, {s.b.x + d.x, s.b.y + d.y}};
    }
    return out;
}

/// Driver (2, 2), sinks at (12, 2) and (12, 9), one L-shaped wire.
HandBit lBit() {
    return {{{2, 2}, {12, 2}, {12, 9}}, 0, {{{2, 2}, {12, 2}}, {{12, 2}, {12, 9}}}};
}

TEST(DistanceEquivalence, ShiftWithPermutedPinsAndAnotherDriverSharesAWalk) {
    // The second bit is the first moved by (1, 20), its pins listed in
    // another order, so its driver has another index: one walk serves
    // both, each pin reading it at its own place moved back. A third,
    // longer bit makes both short near sinks violate, so each of the
    // two bits' distances shows in the report.
    const HandBit a = lBit();
    HandBit b = moved(a, {1, 20});
    b.pins = {b.pins[2], b.pins[0], b.pins[1]};
    b.driver = 1;
    const HandBit c{{{2, 35}, {32, 35}, {32, 38}},
                    0,
                    {{{2, 35}, {32, 35}}, {{32, 35}, {32, 38}}}};
    const Analysis got = compareHand({a, b, c});
    EXPECT_EQ(got.bits, 3);
    EXPECT_EQ(got.walks, 2);
    ASSERT_EQ(got.reports.size(), 1u);
    EXPECT_EQ(got.reports[0].maxInitialDistance, 33);
    std::vector<int> violating;
    for (const PinDeviation& v : got.reports[0].violations) {
        EXPECT_EQ(v.distance, 10);
        violating.push_back(v.routedBitIndex);
    }
    std::sort(violating.begin(), violating.end());
    violating.erase(std::unique(violating.begin(), violating.end()),
                    violating.end());
    EXPECT_EQ(violating.size(), 2u);
}

TEST(DistanceEquivalence, TranslatedWiresWithOtherDriversWalkApart) {
    // Equal wires up to (0, 20), but the second bit is driven from the
    // far sink: its walk starts elsewhere, so it runs its own.
    const HandBit a = lBit();
    HandBit b = moved(a, {0, 20});
    b.driver = 2;
    const Analysis got = compareHand({a, b});
    EXPECT_EQ(got.bits, 2);
    EXPECT_EQ(got.walks, 2);
    EXPECT_EQ(got.reports[0].maxInitialDistance, 17);
}

TEST(DistanceEquivalence, DriverOffTheWireRunsNoWalk) {
    // The second bit's wire stops one unit short of its driver: no pin
    // but those at the driver's place has a distance, and no walk runs.
    const HandBit a = lBit();
    HandBit b = moved(a, {0, 20});
    b.wire = {{{3, 22}, {12, 22}}, {{12, 22}, {12, 29}}};
    const Analysis got = compareHand({a, b});
    EXPECT_EQ(got.bits, 2);
    EXPECT_EQ(got.walks, 1);
}

TEST(DistanceEquivalence, PinOffTheWireHasNoDistance) {
    // The second bit's wire stops short of its far sink, which gets no
    // distance. Its wire is no move of the first bit's, so it walks on
    // its own.
    const HandBit a = lBit();
    HandBit b = moved(a, {0, 20});
    b.wire = {{{2, 22}, {12, 22}}, {{12, 22}, {12, 27}}};
    const Analysis got = compareHand({a, b});
    EXPECT_EQ(got.bits, 2);
    EXPECT_EQ(got.walks, 2);
    EXPECT_EQ(got.reports[0].maxInitialDistance, 17);
}

TEST(DistanceEquivalence, BitWithNoWireRunsNoWalk) {
    // The second bit has no wire at all and runs no walk; the third is
    // the first moved, and shares its walk.
    const HandBit a = lBit();
    HandBit bare = moved(a, {0, 20});
    bare.wire.clear();
    const HandBit c = moved(a, {0, 10});
    const Analysis got = compareHand({a, bare, c});
    EXPECT_EQ(got.bits, 3);
    EXPECT_EQ(got.walks, 1);
}

}  // namespace
}  // namespace streak
