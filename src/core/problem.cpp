#include "core/problem.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/regularity.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "robust/fault.hpp"

namespace streak {

double RoutingProblem::costLowerBound() const {
    double lb = 0.0;
    for (const auto& cands : candidates) {
        if (cands.empty()) continue;  // forced non-route contributes M >= 0
        double best = cands.front().cost;
        for (const RouteCandidate& c : cands) best = std::min(best, c.cost);
        lb += best;
    }
    return lb;
}

namespace {

/// Pairwise regularity blocks of one group, in (a, b) member order. Pure
/// function of immutable problem state, so groups evaluate in parallel;
/// the caller splices the per-group results back in group index order.
std::vector<PairBlock> buildGroupPairBlocks(const RoutingProblem& prob,
                                            const std::vector<int>& members,
                                            const StreakOptions& opts) {
    // One match view per backbone of each member, built on first use and
    // shared by all of the member's pairs.
    std::vector<std::vector<std::optional<RegularityView>>> views;
    views.reserve(members.size());
    for (const int i : members) {
        views.emplace_back(prob.shapes[static_cast<size_t>(i)].size());
    }
    const auto view = [&](size_t a, int bb) -> const RegularityView& {
        std::optional<RegularityView>& v = views[a][static_cast<size_t>(bb)];
        if (!v) {
            v = regularityView(prob.shapes[static_cast<size_t>(members[a])]
                                          [static_cast<size_t>(bb)]
                                              .backbone);
        }
        return *v;
    };

    std::vector<PairBlock> blocks;
    std::vector<double> ratios;
    for (size_t a = 0; a < members.size(); ++a) {
        for (size_t b = a + 1; b < members.size(); ++b) {
            const int i = members[a];
            const int p = members[b];
            const auto& candsI = prob.candidates[static_cast<size_t>(i)];
            const auto& candsP = prob.candidates[static_cast<size_t>(p)];
            if (candsI.empty() || candsP.empty()) continue;

            // The Ratio() part depends only on the backbone pair; memoize
            // it (-1 = not yet computed) so layer-pair expansion does not
            // multiply the matching work.
            const size_t backbonesP = views[b].size();
            ratios.assign(views[a].size() * backbonesP, -1.0);
            PairBlock block;
            block.objA = i;
            block.objB = p;
            block.cost.assign(candsI.size(),
                              std::vector<double>(candsP.size(), 0.0));
            for (size_t j = 0; j < candsI.size(); ++j) {
                const int bbI = candsI[j].backboneId;
                for (size_t q = 0; q < candsP.size(); ++q) {
                    const int bbP = candsP[q].backboneId;
                    double& ratio = ratios[static_cast<size_t>(bbI) *
                                               backbonesP +
                                           static_cast<size_t>(bbP)];
                    if (ratio < 0.0) {
                        ratio = regularityRatio(view(a, bbI), view(b, bbP));
                    }
                    double c = 0.0;
                    if (ratio <= 0.0) {
                        c = kNoSharePenalty;
                    } else {
                        c = opts.irregularityWeight * (1.0 / ratio - 1.0);
                    }
                    c += opts.pairLayerWeight *
                         (std::abs(candsI[j].hLayer - candsP[q].hLayer) +
                          std::abs(candsI[j].vLayer - candsP[q].vLayer));
                    block.cost[j][q] = c;
                }
            }
            blocks.push_back(std::move(block));
        }
    }
    return blocks;
}

/// The build/candidates.* and build/pairs.* counters, read off the
/// finished problem so they cannot depend on the thread count. A pair
/// block evaluates one ratio per pair of backbones its candidates use.
void recordBuildCounters(const RoutingProblem& prob) {
    long long backbones = 0;
    long long candidates = 0;
    std::vector<long long> usedBackbones(prob.objects.size(), 0);
    for (size_t i = 0; i < prob.objects.size(); ++i) {
        backbones += static_cast<long long>(prob.shapes[i].size());
        candidates += static_cast<long long>(prob.candidates[i].size());
        std::vector<char> used(prob.shapes[i].size(), 0);
        for (const RouteCandidate& c : prob.candidates[i]) {
            used[static_cast<size_t>(c.backboneId)] = 1;
        }
        usedBackbones[i] = std::count(used.begin(), used.end(), 1);
    }
    long long ratioEvals = 0;
    for (const PairBlock& pb : prob.pairBlocks) {
        ratioEvals += usedBackbones[static_cast<size_t>(pb.objA)] *
                      usedBackbones[static_cast<size_t>(pb.objB)];
    }
    obs::Session& sess = obs::session();
    sess.counter("build/candidates.objects").add(prob.numObjects());
    sess.counter("build/candidates.backbones").add(backbones);
    sess.counter("build/candidates.candidates").add(candidates);
    sess.counter("build/pairs.blocks")
        .add(static_cast<long long>(prob.pairBlocks.size()));
    sess.counter("build/pairs.ratio_evals").add(ratioEvals);
}

}  // namespace

RoutingProblem buildProblem(const Design& design, const StreakOptions& opts,
                            parallel::RegionStats* parallelStats) {
    RoutingProblem prob;
    prob.design = &design;
    prob.opts = opts;
    prob.objects = identifyObjects(design);

    prob.groupObjects.assign(static_cast<size_t>(design.numGroups()), {});
    for (size_t i = 0; i < prob.objects.size(); ++i) {
        prob.groupObjects[static_cast<size_t>(prob.objects[i].groupIndex)]
            .push_back(static_cast<int>(i));
    }

    parallel::ThreadPool pool(parallel::resolveThreads(opts.threads));
    pool.setControl(opts.control);

    // Per-object shapes and 3-D candidates: independent across objects,
    // collected by object index.
    {
        STREAK_SPAN("build/candidates");
        std::vector<ObjectCandidates> built =
            pool.parallelMap<ObjectCandidates>(
                static_cast<int>(prob.objects.size()), [&](int i) {
                    STREAK_FAULT_POINT("build/candidates");
                    return generateCandidates(
                        design, prob.objects[static_cast<size_t>(i)], opts);
                });
        prob.shapes.reserve(built.size());
        prob.candidates.reserve(built.size());
        for (ObjectCandidates& oc : built) {
            prob.shapes.push_back(std::move(oc.shapes));
            prob.candidates.push_back(std::move(oc.candidates));
        }
    }

    // Pairwise regularity costs between objects of one group: evaluated
    // per group in parallel, then spliced in group index order so block
    // ids and pairsOf lists match the sequential path exactly.
    prob.pairsOf.assign(prob.objects.size(), {});
    {
        STREAK_SPAN("build/pairs");
        pool.orderedReduce<std::vector<PairBlock>>(
            static_cast<int>(prob.groupObjects.size()),
            [&](int g) {
                STREAK_FAULT_POINT("build/pairs");
                return buildGroupPairBlocks(
                    prob, prob.groupObjects[static_cast<size_t>(g)], opts);
            },
            [&](int /*g*/, std::vector<PairBlock>&& blocks) {
                for (PairBlock& block : blocks) {
                    const int blockId =
                        static_cast<int>(prob.pairBlocks.size());
                    prob.pairsOf[static_cast<size_t>(block.objA)].push_back(
                        blockId);
                    prob.pairsOf[static_cast<size_t>(block.objB)].push_back(
                        blockId);
                    prob.pairBlocks.push_back(std::move(block));
                }
            });
    }

    if (obs::detailEnabled()) recordBuildCounters(prob);
    if (parallelStats != nullptr) parallelStats->merge(pool.stats());
    return prob;
}

}  // namespace streak
