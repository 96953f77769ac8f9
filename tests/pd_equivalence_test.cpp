// Differential test of the incremental primal-dual solver (Alg. 2) and of
// the distance analysis's report reuse against the literal versions.
//
// The reference solver below is the plain Alg. 2 loop: every iteration it
// re-costs every alive candidate of every undecided object from scratch
// and re-checks every alive candidate's whole edge and via lists against
// usage. The production solver indexes the tight edges and via cells,
// re-checks only the users of a commit's tight elements and re-costs only
// the objects whose c' inputs changed. Both must pick the same candidates
// in the same number of iterations, with the dual bound and the objective
// equal bit for bit and the same number of pruned candidates, also on
// grids squeezed after the build, where some candidates never fit.
//
// On the same designs, a re-analysis that copies the reports of unchanged
// groups must equal a full analysis field for field: after clustering
// (refinement's before pass and the no-refinement after pass) and after
// refinement (its after pass).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "check/assert.hpp"
#include "core/distance.hpp"
#include "core/pd_solver.hpp"
#include "core/problem.hpp"
#include "core/solution.hpp"
#include "gen/generator.hpp"
#include "grid/routing_grid.hpp"
#include "obs/session.hpp"
#include "post/clustering.hpp"
#include "post/refine.hpp"
#include "test_util.hpp"

namespace streak {
namespace {

// ------------------------------------------------------- the reference

namespace reference {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Result {
    PdResult pd;
    long prunedCandidates = 0;
};

class PdState {
public:
    explicit PdState(const RoutingProblem& prob)
        : prob_(prob), usage_(prob.design->grid),
          chosen_(static_cast<size_t>(prob.numObjects()), -1),
          decided_(static_cast<size_t>(prob.numObjects()), false) {
        alive_.reserve(static_cast<size_t>(prob.numObjects()));
        for (const auto& cands : prob.candidates) {
            alive_.emplace_back(cands.size(), true);
        }
    }

    Result run() {
        Result out;
        PdResult& result = out.pd;
        for (int i = 0; i < prob_.numObjects(); ++i) {
            if (prob_.candidates[static_cast<size_t>(i)].empty()) {
                decided_[static_cast<size_t>(i)] = true;
            }
        }
        for (;;) {
            int bestObj = -1;
            int bestCand = -1;
            double bestCost = kInf;
            for (int i = 0; i < prob_.numObjects(); ++i) {
                if (decided_[static_cast<size_t>(i)]) continue;
                const auto& cands = prob_.candidates[static_cast<size_t>(i)];
                for (size_t j = 0; j < cands.size(); ++j) {
                    if (!alive_[static_cast<size_t>(i)][j]) continue;
                    const double c = cands[j].cost +
                                     cPrime(i, static_cast<int>(j));
                    if (c < bestCost) {
                        bestCost = c;
                        bestObj = i;
                        bestCand = static_cast<int>(j);
                    }
                }
            }
            bool anyUndecided = false;
            for (int i = 0; i < prob_.numObjects(); ++i) {
                if (decided_[static_cast<size_t>(i)] || i == bestObj) continue;
                const auto& alive = alive_[static_cast<size_t>(i)];
                if (std::none_of(alive.begin(), alive.end(),
                                 [](bool a) { return a; })) {
                    decided_[static_cast<size_t>(i)] = true;
                } else {
                    anyUndecided = true;
                }
            }
            if (bestObj < 0) break;

            ++result.iterations;
            result.dualBound += minAliveBaseCost(bestObj);
            chosen_[static_cast<size_t>(bestObj)] = bestCand;
            decided_[static_cast<size_t>(bestObj)] = true;
            const RouteCandidate& cand =
                prob_.candidates[static_cast<size_t>(bestObj)]
                                [static_cast<size_t>(bestCand)];
            for (const auto& [edge, amount] : cand.edgeUse) {
                usage_.add(edge, amount);
            }
            for (const auto& [cell, amount] : cand.viaUse) {
                usage_.addVias(cell, amount);
            }
            pruneInfeasible();
            if (!anyUndecided) break;
        }
        result.solution.chosen = chosen_;
        result.solution.objective = solutionObjective(prob_, chosen_);
        out.prunedCandidates = prunedCandidates_;
        return out;
    }

private:
    [[nodiscard]] double cPrime(int i, int j) const {
        double total = 0.0;
        for (const int block : prob_.pairsOf[static_cast<size_t>(i)]) {
            const int p = prob_.pairOther(block, i);
            const int cp = chosen_[static_cast<size_t>(p)];
            if (cp >= 0) {
                total += prob_.pairCost(block, i, j, cp);
            } else if (!decided_[static_cast<size_t>(p)]) {
                double best = kInf;
                const auto& alive = alive_[static_cast<size_t>(p)];
                for (size_t q = 0; q < alive.size(); ++q) {
                    if (!alive[q]) continue;
                    best = std::min(best, prob_.pairCost(block, i, j,
                                                         static_cast<int>(q)));
                }
                if (best < kInf) total += best;
            }
        }
        return total;
    }

    [[nodiscard]] double minAliveBaseCost(int i) const {
        double best = kInf;
        const auto& cands = prob_.candidates[static_cast<size_t>(i)];
        for (size_t j = 0; j < cands.size(); ++j) {
            if (alive_[static_cast<size_t>(i)][j]) {
                best = std::min(best, cands[j].cost);
            }
        }
        return best < kInf ? best : 0.0;
    }

    void pruneInfeasible() {
        for (int i = 0; i < prob_.numObjects(); ++i) {
            if (decided_[static_cast<size_t>(i)]) continue;
            const auto& cands = prob_.candidates[static_cast<size_t>(i)];
            for (size_t j = 0; j < cands.size(); ++j) {
                if (!alive_[static_cast<size_t>(i)][j]) continue;
                for (const auto& [edge, amount] : cands[j].edgeUse) {
                    if (usage_.remaining(edge) < amount) {
                        alive_[static_cast<size_t>(i)][j] = false;
                        ++prunedCandidates_;
                        break;
                    }
                }
                if (!alive_[static_cast<size_t>(i)][j]) continue;
                for (const auto& [cell, amount] : cands[j].viaUse) {
                    if (usage_.viaRemaining(cell) < amount) {
                        alive_[static_cast<size_t>(i)][j] = false;
                        ++prunedCandidates_;
                        break;
                    }
                }
            }
        }
    }

    const RoutingProblem& prob_;
    grid::EdgeUsage usage_;
    std::vector<int> chosen_;
    std::vector<bool> decided_;
    std::vector<std::vector<bool>> alive_;
    long prunedCandidates_ = 0;
};

}  // namespace reference

// ------------------------------------------------------ the comparison

bool sameBits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Totals over the sweep, so a set that never prunes, clusters or refines
/// fails instead of passing vacuously.
struct Coverage {
    int designs = 0;
    long long iterations = 0;
    long long pruned = 0;
    long long squeezedPruned = 0;
    long long clusteredGroups = 0;
    long long refinedGroups = 0;
    long long reusedReports = 0;
    int pdMismatches = 0;
    int distanceMismatches = 0;
};

/// The production solver with detail on, in a session of its own, so its
/// pruned-candidate counter can be read back.
std::pair<PdResult, long long> solveWithCounters(const RoutingProblem& prob) {
    obs::Session sess;
    sess.setDetailEnabled(true);
    const obs::SessionBind bind(sess);
    PdResult pd = solvePrimalDual(prob);
    const obs::Snapshot snap = sess.snapshotMetrics();
    const auto it = snap.counters.find("solve/pd.pruned_candidates");
    return {std::move(pd), it == snap.counters.end() ? 0 : it->second};
}

std::vector<std::string> pdDifferences(const RoutingProblem& prob,
                                       long long* pruned, Coverage* cov) {
    const auto [got, gotPruned] = solveWithCounters(prob);
    const reference::Result want = reference::PdState(prob).run();
    cov->iterations += want.pd.iterations;
    *pruned += want.prunedCandidates;
    std::vector<std::string> out;
    if (got.solution.chosen != want.pd.solution.chosen) {
        out.push_back("chosen candidates differ");
    }
    if (got.iterations != want.pd.iterations) {
        out.push_back("iterations " + std::to_string(got.iterations) +
                      " vs " + std::to_string(want.pd.iterations));
    }
    if (!sameBits(got.dualBound, want.pd.dualBound)) {
        out.push_back("dual bound differs");
    }
    if (!sameBits(got.solution.objective, want.pd.solution.objective)) {
        out.push_back("objective differs");
    }
    if (gotPruned != want.prunedCandidates) {
        out.push_back("pruned " + std::to_string(gotPruned) + " vs " +
                      std::to_string(want.prunedCandidates));
    }
    return out;
}

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

std::vector<int> thresholdsOf(const std::vector<GroupDistanceReport>& reps) {
    std::vector<int> out(reps.size(), -1);
    for (const GroupDistanceReport& r : reps) {
        out[static_cast<size_t>(r.groupIndex)] = r.threshold;
    }
    return out;
}

bool sameRouting(const RoutedDesign& a, const RoutedDesign& b) {
    if (a.bits.size() != b.bits.size()) return false;
    for (size_t r = 0; r < a.bits.size(); ++r) {
        if (!(a.bits[r].topo == b.bits[r].topo) ||
            a.bits[r].groupIndex != b.bits[r].groupIndex ||
            a.bits[r].hLayer != b.bits[r].hLayer ||
            a.bits[r].vLayer != b.bits[r].vLayer) {
            return false;
        }
    }
    const grid::RoutingGrid& grid = a.usage.grid();
    for (int e = 0; e < grid.numEdges(); ++e) {
        if (a.usage.usage(e) != b.usage.usage(e)) return false;
    }
    for (int c = 0; c < grid.numCells(); ++c) {
        if (a.usage.viaUsage(c) != b.usage.viaUsage(c)) return false;
    }
    return true;
}

/// The flow's three distance analyses on one design, each reused one
/// against a full analysis.
std::vector<std::string> distanceDifferences(const RoutingProblem& prob,
                                             const RoutingSolution& solution,
                                             Coverage* cov) {
    std::vector<std::string> out;
    const auto append = [&](std::vector<std::string> more) {
        out.insert(out.end(), more.begin(), more.end());
    };
    const double fraction = prob.opts.distanceThresholdFraction;
    const int numGroups = prob.design->numGroups();
    RoutedDesign routed = materialize(prob, solution);
    const std::vector<GroupDistanceReport> initial =
        analyzeDistances(prob, routed, fraction);

    // Clustering appends bits; their groups are the changed ones.
    const size_t solverBits = routed.bits.size();
    post::clusterAndRoute(prob, &routed);
    std::vector<char> clustered(static_cast<size_t>(numGroups), 0);
    for (size_t r = solverBits; r < routed.bits.size(); ++r) {
        clustered[static_cast<size_t>(routed.bits[r].groupIndex)] = 1;
    }
    const auto count = [](const std::vector<char>& mask) {
        return std::count(mask.begin(), mask.end(), 1);
    };
    cov->clusteredGroups += count(clustered);
    cov->reusedReports += numGroups - count(clustered);

    // Refinement's before pass.
    const std::vector<GroupDistanceReport> before =
        analyzeDistances(prob, routed, fraction);
    append(reportDifferences(
        analyzeDistances(prob, routed, fraction, nullptr, nullptr, &initial,
                         &clustered),
        before, "after clustering"));
    // The no-refinement after pass, under the initial thresholds.
    const std::vector<int> initialThresholds = thresholdsOf(initial);
    append(reportDifferences(
        analyzeDistances(prob, routed, fraction, &initialThresholds, nullptr,
                         &initial, &clustered),
        analyzeDistances(prob, routed, fraction, &initialThresholds),
        "after clustering, initial thresholds"));

    // Refinement itself, with and without the baseline.
    RoutedDesign plain = routed;
    const post::RefinementResult ref =
        post::refineDistances(prob, &routed, &initial, &clustered);
    const post::RefinementResult refPlain = post::refineDistances(prob, &plain);
    if (!sameRouting(routed, plain)) {
        out.push_back("refinement with a baseline routed differently");
    }
    if (ref.thresholds != refPlain.thresholds ||
        ref.violatingGroupsBefore != refPlain.violatingGroupsBefore ||
        ref.violatingGroupsAfter != refPlain.violatingGroupsAfter ||
        ref.pinsConsidered != refPlain.pinsConsidered ||
        ref.pinsFixed != refPlain.pinsFixed ||
        ref.addedWirelength != refPlain.addedWirelength ||
        ref.groupViolatingAfter != refPlain.groupViolatingAfter) {
        out.push_back("refinement with a baseline reported differently");
    }
    // Refinement's after pass: only the groups that had violations.
    std::vector<char> refined(static_cast<size_t>(numGroups), 0);
    for (const GroupDistanceReport& r : before) {
        if (!r.violations.empty()) {
            refined[static_cast<size_t>(r.groupIndex)] = 1;
        }
    }
    cov->refinedGroups += count(refined);
    const std::vector<GroupDistanceReport> after =
        analyzeDistances(prob, routed, fraction, &ref.thresholds);
    append(reportDifferences(
        analyzeDistances(prob, routed, fraction, &ref.thresholds, nullptr,
                         &before, &refined),
        after, "after refinement"));
    std::vector<char> flags(static_cast<size_t>(numGroups), 0);
    for (const GroupDistanceReport& r : after) {
        flags[static_cast<size_t>(r.groupIndex)] = r.violating() ? 1 : 0;
    }
    if (ref.groupViolatingAfter != flags ||
        ref.violatingGroupsAfter != countViolatingGroups(after)) {
        out.push_back("refinement's after flags differ from a full analysis");
    }
    return out;
}

/// Lowers the runtime check level from deep to cheap for its scope.
class NoDeepAudits {
public:
    NoDeepAudits() : saved_(check::runtimeLevel()) {
        if (saved_ == check::Level::Deep) {
            check::setRuntimeLevel(check::Level::Cheap);
        }
    }
    ~NoDeepAudits() { check::setRuntimeLevel(saved_); }
    NoDeepAudits(const NoDeepAudits&) = delete;
    NoDeepAudits& operator=(const NoDeepAudits&) = delete;

private:
    check::Level saved_;
};

void compareOn(const Design& design, const StreakOptions& opts,
               Coverage* cov) {
    const RoutingProblem prob = buildProblem(design, opts);
    ++cov->designs;
    std::vector<std::string> pd = pdDifferences(prob, &cov->pruned, cov);
    {
        // The same problem on a grid that lost half of every edge's tracks
        // after the build: some candidates no longer fit even the empty
        // grid. Both loops may commit one of them first (an overflow the
        // deep solution audit would reject) and must then prune them all.
        Design squeezed = design;
        for (int e = 0; e < squeezed.grid.numEdges(); ++e) {
            squeezed.grid.setCapacity(e, squeezed.grid.capacity(e) / 2);
        }
        RoutingProblem squeezedProb = prob;
        squeezedProb.design = &squeezed;
        const NoDeepAudits cheap;
        for (const std::string& diff :
             pdDifferences(squeezedProb, &cov->squeezedPruned, cov)) {
            pd.push_back("squeezed grid: " + diff);
        }
    }
    if (!pd.empty()) ++cov->pdMismatches;
    for (size_t k = 0; k < std::min<size_t>(pd.size(), 5); ++k) {
        ADD_FAILURE() << design.name << ": " << pd[k];
    }
    const std::vector<std::string> dist =
        distanceDifferences(prob, solvePrimalDual(prob).solution, cov);
    if (!dist.empty()) ++cov->distanceMismatches;
    for (size_t k = 0; k < std::min<size_t>(dist.size(), 5); ++k) {
        ADD_FAILURE() << design.name << ": " << dist[k];
    }
}

/// The problem-build oracle's 72 designs (four rounds of full-size and
/// shrunk synth1-7 at generator seeds advanced by 0-3, plus four
/// congested multipin variants; five layer pairs in the fourth round),
/// with two more congested variants per round at one track per edge —
/// one of them with one via slot per G-Cell — where pruning is frequent.
TEST(PdEquivalence, MatchesTheLiteralLoop) {
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
    std::cout << cov.designs << " designs, " << cov.iterations
              << " iterations, " << cov.pruned << " pruned candidates ("
              << cov.squeezedPruned << " on squeezed grids), "
              << cov.clusteredGroups << " clustered groups, "
              << cov.refinedGroups << " refined groups, "
              << cov.reusedReports << " reused reports, " << cov.pdMismatches
              << " PD mismatches, " << cov.distanceMismatches
              << " distance mismatches\n";
    EXPECT_EQ(cov.designs, 80);
    EXPECT_EQ(cov.pdMismatches, 0);
    EXPECT_EQ(cov.distanceMismatches, 0);
    EXPECT_GT(cov.pruned, 0);
    EXPECT_GT(cov.squeezedPruned, 0);
    EXPECT_GT(cov.clusteredGroups, 0);
    EXPECT_GT(cov.refinedGroups, 0);
    EXPECT_GT(cov.reusedReports, 0);
}

}  // namespace
}  // namespace streak
