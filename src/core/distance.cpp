#include "core/distance.hpp"

#include <algorithm>
#include <compare>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

#include "check/assert.hpp"
#include "core/similarity.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "robust/fault.hpp"

namespace streak {

namespace {

/// Representative-bit pins of an object.
const Bit& representativeBit(const Design& design, const RoutingObject& obj) {
    const SignalGroup& g = design.groups[static_cast<size_t>(obj.groupIndex)];
    return g.bits[static_cast<size_t>(
        obj.bitIndices[static_cast<size_t>(obj.representativeBit)])];
}

/// Match each pin of `from` to the closest-SV pin of `to` (driver-weighted
/// SVs; many-to-one allowed, as for regularity matching).
std::vector<int> matchPins(const Bit& from, const Bit& to) {
    const int wf = from.numPins() + 1;
    const int wt = to.numPins() + 1;
    std::vector<SimilarityVector> fromSv, toSv;
    for (int i = 0; i < from.numPins(); ++i) {
        fromSv.push_back(weightedSimilarity(from.pins, i, from.driver, wf));
    }
    for (int i = 0; i < to.numPins(); ++i) {
        toSv.push_back(weightedSimilarity(to.pins, i, to.driver, wt));
    }
    std::vector<int> match(static_cast<size_t>(from.numPins()), 0);
    for (int i = 0; i < from.numPins(); ++i) {
        long bestKey = std::numeric_limits<long>::max();
        for (int j = 0; j < to.numPins(); ++j) {
            const long key =
                static_cast<long>(svDistance(fromSv[static_cast<size_t>(i)],
                                             toSv[static_cast<size_t>(j)])) *
                    1000000 +
                manhattan(from.pins[static_cast<size_t>(i)],
                          to.pins[static_cast<size_t>(j)]);
            if (key < bestKey) {
                bestKey = key;
                match[static_cast<size_t>(i)] = j;
            }
        }
    }
    // Drivers always correspond.
    match[static_cast<size_t>(from.driver)] = to.driver;
    return match;
}

/// Family members of one group (the SV pin-matching is the expensive
/// part); pure function of immutable state, safe to run per group in
/// parallel.
std::vector<FamilyMember> buildGroupFamilies(
    const RoutingProblem& prob, const RoutedDesign& routed, int g,
    const std::vector<int>& groupBits) {
    const Design& design = *prob.design;
    std::vector<FamilyMember> family;
    if (groupBits.empty()) return family;

    // Canonical object: the group's first object.
    const std::vector<int>& objIds = prob.groupObjects[static_cast<size_t>(g)];
    const int canonObj = objIds.front();
    const Bit& canonRep =
        representativeBit(design, prob.objects[static_cast<size_t>(canonObj)]);

    // Per-object map: representative pin -> canonical pin.
    std::map<int, std::vector<int>> toCanon;
    for (const int o : objIds) {
        const RoutingObject& obj = prob.objects[static_cast<size_t>(o)];
        if (o == canonObj) {
            std::vector<int> id(static_cast<size_t>(canonRep.numPins()));
            for (size_t i = 0; i < id.size(); ++i) {
                id[i] = static_cast<int>(i);
            }
            toCanon.emplace(o, std::move(id));
        } else {
            toCanon.emplace(
                o, matchPins(representativeBit(design, obj), canonRep));
        }
    }

    for (const int r : groupBits) {
        const RoutedBit& rb = routed.bits[static_cast<size_t>(r)];
        const RoutingObject& obj =
            prob.objects[static_cast<size_t>(rb.objectIndex)];
        const Bit& bit = design.groups[static_cast<size_t>(g)]
                             .bits[static_cast<size_t>(rb.bitIndex)];
        const std::vector<int>& pinMap =
            obj.pinMaps[static_cast<size_t>(rb.memberIndex)];
        const std::vector<int>& canonMap = toCanon.at(rb.objectIndex);
        for (int i = 0; i < bit.numPins(); ++i) {
            if (i == bit.driver) continue;
            const int fam =
                canonMap[static_cast<size_t>(pinMap[static_cast<size_t>(i)])];
            family.push_back({r, i, fam});
        }
    }
    return family;
}

/// A wire's shape up to a move, with its driver: the wire's length, a
/// hash of its edges and the driver's place, both taken relative to the
/// wire's first edge. Wires equal up to one offset, with drivers that
/// offset apart, have equal keys.
struct WalkKey {
    size_t length = 0;
    std::uint64_t hash = 0;
    geom::Point driver;

    friend auto operator<=>(const WalkKey&, const WalkKey&) = default;
};

/// Needs a wire.
WalkKey walkKey(const steiner::Topology& t) {
    const geom::Point o = t.wire().front().at;
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const steiner::UnitEdge& e : t.wire()) {
        const std::uint64_t v =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.at.x - o.x))
             << 33) ^
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.at.y - o.y))
             << 1) ^
            (e.horizontal ? 1u : 0u);
        h = (h ^ v) * 0x100000001b3ull;
    }
    const geom::Point p = t.driverPin();
    return {t.wire().size(), h, {p.x - o.x, p.y - o.y}};
}

/// The offset that moves `a`'s first wire edge onto `b`'s. Both need a
/// wire.
geom::Point firstEdgeOffset(const steiner::Topology& a,
                            const steiner::Topology& b) {
    const geom::Point p = a.wire().front().at;
    const geom::Point q = b.wire().front().at;
    return {q.x - p.x, q.y - p.y};
}

/// True when `b`'s wire is `a`'s moved by `d`.
bool movedBy(const steiner::Topology& a, const steiner::Topology& b,
             geom::Point d) {
    return std::equal(a.wire().begin(), a.wire().end(), b.wire().begin(),
                      b.wire().end(),
                      [&](const steiner::UnitEdge& x,
                          const steiner::UnitEdge& y) {
                          return x.horizontal == y.horizontal &&
                                 x.at.x + d.x == y.at.x &&
                                 x.at.y + d.y == y.at.y;
                      });
}

/// True when a wire edge ends at `p`.
bool onWire(const steiner::Topology& t, geom::Point p) {
    return t.hasEdge({p, true}) || t.hasEdge({p, false}) ||
           t.hasEdge({{p.x - 1, p.y}, true}) ||
           t.hasEdge({{p.x, p.y - 1}, false});
}

/// Source-to-sink distances (Topology::sourceToSinkDistances) of one
/// group's bits, with one BFS per wire shape: bits whose wires are equal
/// up to one offset d, with their drivers d apart, read the walk of the
/// first of them, pin i at pins[i] - d.
class GroupWalks {
public:
    [[nodiscard]] std::vector<int> distances(const steiner::Topology& t) {
        const std::vector<geom::Point>& pins = t.pins();
        std::vector<int> dist(pins.size(), -1);
        if (!onWire(t, t.driverPin())) {
            // A driver off the wire, or no wire: only pins at the
            // driver's location have a distance (zero).
            for (size_t i = 0; i < pins.size(); ++i) {
                if (pins[i] == t.driverPin()) dist[i] = 0;
            }
            return dist;
        }
        const Walk& w = walkFor(t);
        const geom::Point d = firstEdgeOffset(*w.topo, t);
        for (size_t i = 0; i < pins.size(); ++i) {
            const int p = w.graph.indexOf({pins[i].x - d.x, pins[i].y - d.y});
            if (p >= 0) dist[i] = w.hops[static_cast<size_t>(p)];
        }
        return dist;
    }

    /// BFS walks run so far.
    [[nodiscard]] long long walks() const {
        return static_cast<long long>(walks_.size());
    }

private:
    struct Walk {
        const steiner::Topology* topo = nullptr;  // the bit that ran it
        steiner::WireGraph graph;
        std::vector<int> hops;  // from the driver, per graph point
    };

    /// The walk over `t`'s wire moved, run now if no earlier bit's fits.
    /// Needs the driver on the wire.
    const Walk& walkFor(const steiner::Topology& t) {
        std::vector<size_t>& same = byKey_[walkKey(t)];
        for (const size_t k : same) {
            const steiner::Topology& a = *walks_[k].topo;
            if (movedBy(a, t, firstEdgeOffset(a, t))) return walks_[k];
        }
        same.push_back(walks_.size());
        Walk& w = walks_.emplace_back();
        w.topo = &t;
        w.graph = t.graph();
        w.hops = w.graph.distancesFrom(w.graph.indexOf(t.driverPin()));
        return w;
    }

    std::map<WalkKey, std::vector<size_t>> byKey_;
    std::deque<Walk> walks_;
};

/// Routed bit indices of each group, in routed order.
std::vector<std::vector<int>> bitsByGroup(const RoutingProblem& prob,
                                          const RoutedDesign& routed) {
    std::vector<std::vector<int>> bits(
        static_cast<size_t>(prob.design->numGroups()));
    for (size_t r = 0; r < routed.bits.size(); ++r) {
        bits[static_cast<size_t>(routed.bits[r].groupIndex)].push_back(
            static_cast<int>(r));
    }
    return bits;
}

}  // namespace

std::vector<std::vector<FamilyMember>> buildSinkFamilies(
    const RoutingProblem& prob, const RoutedDesign& routed) {
    parallel::ThreadPool pool(parallel::resolveThreads(prob.opts.threads));
    const std::vector<std::vector<int>> bitsOfGroup = bitsByGroup(prob, routed);
    return pool.parallelMap<std::vector<FamilyMember>>(
        prob.design->numGroups(), [&](int g) {
            return buildGroupFamilies(prob, routed, g,
                                      bitsOfGroup[static_cast<size_t>(g)]);
        });
}

std::vector<GroupDistanceReport> analyzeDistances(
    const RoutingProblem& prob, const RoutedDesign& routed,
    double thresholdFraction, const std::vector<int>* fixedThresholds,
    parallel::RegionStats* parallelStats,
    const std::vector<GroupDistanceReport>* previous,
    const std::vector<char>* changed) {
    STREAK_SPAN("distance/analyze");
    STREAK_FAULT_POINT("distance/analyze");
    STREAK_REQUIRE((previous == nullptr) == (changed == nullptr),
                   "previous reports and the changed mask come together");
    const int numGroups = prob.design->numGroups();
    STREAK_REQUIRE(fixedThresholds == nullptr ||
                       static_cast<int>(fixedThresholds->size()) == numGroups,
                   "{} fixed thresholds for {} groups",
                   fixedThresholds == nullptr ? 0 : fixedThresholds->size(),
                   numGroups);
    std::vector<GroupDistanceReport> reports;
    std::vector<int> todo;  // the groups to analyze, ascending
    if (previous == nullptr) {
        reports.resize(static_cast<size_t>(numGroups));
        todo.resize(static_cast<size_t>(numGroups));
        std::iota(todo.begin(), todo.end(), 0);
    } else {
        STREAK_REQUIRE(static_cast<int>(previous->size()) == numGroups &&
                           static_cast<int>(changed->size()) == numGroups,
                       "{} previous reports and {} changed flags for {} "
                       "groups",
                       previous->size(), changed->size(), numGroups);
        reports = *previous;
        for (int g = 0; g < numGroups; ++g) {
            if ((*changed)[static_cast<size_t>(g)] != 0) todo.push_back(g);
        }
    }
    parallel::ThreadPool pool(parallel::resolveThreads(prob.opts.threads));
    pool.setControl(prob.opts.control);

    const std::vector<std::vector<int>> bitsOfGroup = bitsByGroup(prob, routed);
    // Routed bits whose distances each analyzed group computed (one slot
    // per task, so the tasks never share one).
    std::vector<long long> bitsAnalyzed(todo.size(), 0);
    // BFS walks each analyzed group ran (one slot per task).
    std::vector<long long> walksRun(todo.size(), 0);

    // Groups analyze independently: a routed bit belongs to exactly one
    // group, so the per-bit distance cache and the walks shared between
    // translated wires can live inside the task.
    const auto analyzeGroup = [&](int task) {
        const int g = todo[static_cast<size_t>(task)];
        GroupWalks walks;
        std::map<int, std::vector<int>> distCache;
        const auto distancesOf = [&](int routedBit) -> const std::vector<int>& {
            auto it = distCache.find(routedBit);
            if (it == distCache.end()) {
                it = distCache
                         .emplace(routedBit,
                                  walks.distances(
                                      routed.bits[static_cast<size_t>(routedBit)]
                                          .topo))
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
        for (const FamilyMember& m : buildGroupFamilies(
                 prob, routed, g, bitsOfGroup[static_cast<size_t>(g)])) {
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
        bitsAnalyzed[static_cast<size_t>(task)] =
            static_cast<long long>(distCache.size());
        walksRun[static_cast<size_t>(task)] = walks.walks();
        return rep;
    };

    std::vector<GroupDistanceReport> fresh =
        pool.parallelMap<GroupDistanceReport>(static_cast<int>(todo.size()),
                                              analyzeGroup);
    for (size_t k = 0; k < todo.size(); ++k) {
        reports[static_cast<size_t>(todo[k])] = std::move(fresh[k]);
    }
    if (parallelStats != nullptr) parallelStats->merge(pool.stats());
    if (obs::detailEnabled()) {
        long long bits = 0;
        for (const long long n : bitsAnalyzed) bits += n;
        long long walkCount = 0;
        for (const long long n : walksRun) walkCount += n;
        obs::session().counter("distance/analyze.bits").add(bits);
        obs::session().counter("distance/analyze.walks").add(walkCount);
    }
    return reports;
}

int countViolatingGroups(const std::vector<GroupDistanceReport>& reports) {
    int count = 0;
    for (const GroupDistanceReport& r : reports) {
        if (r.violating()) ++count;
    }
    return count;
}

}  // namespace streak
