#include "core/solution.hpp"

#include <map>

namespace streak {

double solutionObjective(const RoutingProblem& prob,
                         const std::vector<int>& chosen) {
    double total = 0.0;
    for (int i = 0; i < prob.numObjects(); ++i) {
        const int j = chosen[static_cast<size_t>(i)];
        if (j < 0) {
            total += kNonRoutePenaltyM;
        } else {
            total += prob.candidates[static_cast<size_t>(i)]
                                    [static_cast<size_t>(j)].cost;
        }
    }
    for (const PairBlock& pb : prob.pairBlocks) {
        const int ja = chosen[static_cast<size_t>(pb.objA)];
        const int jb = chosen[static_cast<size_t>(pb.objB)];
        if (ja >= 0 && jb >= 0) {
            total += pb.cost[static_cast<size_t>(ja)][static_cast<size_t>(jb)];
        }
    }
    return total;
}

int makeCapacityFeasible(const RoutingProblem& prob, RoutingSolution* sol) {
    const grid::RoutingGrid& grid = prob.design->grid;
    std::vector<long> usage(static_cast<size_t>(grid.numEdges()), 0);
    // edge -> objects currently using it, with amounts. Ordered map: the
    // victim-dropping loop below walks it, and which objects survive an
    // over-capacity edge depends on the walk order.
    std::map<int, std::vector<std::pair<int, int>>> users;
    for (int i = 0; i < prob.numObjects(); ++i) {
        const int j = sol->chosen[static_cast<size_t>(i)];
        if (j < 0) continue;
        for (const auto& [edge, amount] :
             prob.candidates[static_cast<size_t>(i)][static_cast<size_t>(j)]
                 .edgeUse) {
            usage[static_cast<size_t>(edge)] += amount;
            users[edge].emplace_back(i, amount);
        }
    }
    std::vector<long> viaUsage(static_cast<size_t>(grid.numCells()), 0);
    std::map<int, std::vector<std::pair<int, int>>> viaUsers;
    if (grid.viaLimited()) {
        for (int i = 0; i < prob.numObjects(); ++i) {
            const int j = sol->chosen[static_cast<size_t>(i)];
            if (j < 0) continue;
            for (const auto& [cell, amount] :
                 prob.candidates[static_cast<size_t>(i)]
                                [static_cast<size_t>(j)].viaUse) {
                viaUsage[static_cast<size_t>(cell)] += amount;
                viaUsers[cell].emplace_back(i, amount);
            }
        }
    }

    int unrouted = 0;
    const auto dropObject = [&](int victim) {
        const int j = sol->chosen[static_cast<size_t>(victim)];
        const RouteCandidate& cand =
            prob.candidates[static_cast<size_t>(victim)]
                           [static_cast<size_t>(j)];
        for (const auto& [e2, a2] : cand.edgeUse) {
            usage[static_cast<size_t>(e2)] -= a2;
        }
        for (const auto& [c2, a2] : cand.viaUse) {
            viaUsage[static_cast<size_t>(c2)] -= a2;
        }
        sol->chosen[static_cast<size_t>(victim)] = -1;
        ++unrouted;
    };
    const auto heaviestRoutedUser =
        [&](const std::vector<std::pair<int, int>>& objs) {
            int victim = -1;
            int victimAmount = 0;
            for (const auto& [obj, amount] : objs) {
                if (sol->chosen[static_cast<size_t>(obj)] >= 0 &&
                    amount > victimAmount) {
                    victim = obj;
                    victimAmount = amount;
                }
            }
            return victim;
        };

    for (const auto& [edge, objs] : users) {
        while (usage[static_cast<size_t>(edge)] > grid.capacity(edge)) {
            const int victim = heaviestRoutedUser(objs);
            if (victim < 0) break;  // already unrouted by another edge
            dropObject(victim);
        }
    }
    for (const auto& [cell, objs] : viaUsers) {
        const int cap = grid.viaCapacity(cell);
        if (cap < 0) continue;
        while (viaUsage[static_cast<size_t>(cell)] > cap) {
            const int victim = heaviestRoutedUser(objs);
            if (victim < 0) break;
            dropObject(victim);
        }
    }
    sol->objective = solutionObjective(prob, sol->chosen);
    return unrouted;
}

RoutedDesign materialize(const RoutingProblem& prob,
                         const RoutingSolution& sol) {
    RoutedDesign rd(prob.design->grid);
    for (int i = 0; i < prob.numObjects(); ++i) {
        const RoutingObject& obj = prob.objects[static_cast<size_t>(i)];
        const int j = sol.chosen[static_cast<size_t>(i)];
        if (j < 0) {
            for (int k = 0; k < obj.width(); ++k) {
                rd.unroutedMembers.emplace_back(i, k);
            }
            continue;
        }
        const RouteCandidate& cand =
            prob.candidates[static_cast<size_t>(i)][static_cast<size_t>(j)];
        const BackboneShape& shape = prob.shapes[static_cast<size_t>(i)]
                                                [static_cast<size_t>(
                                                    cand.backboneId)];
        const SignalGroup& group =
            prob.design->groups[static_cast<size_t>(obj.groupIndex)];
        for (int k = 0; k < obj.width(); ++k) {
            RoutedBit bit;
            bit.groupIndex = obj.groupIndex;
            bit.bitIndex = obj.bitIndices[static_cast<size_t>(k)];
            bit.objectIndex = i;
            bit.memberIndex = k;
            bit.clusterKey = i;
            bit.topo = shape.memberTopology(group, obj, k);
            bit.hLayer = cand.hLayer;
            bit.vLayer = cand.vLayer;
            rd.bits.push_back(std::move(bit));
        }
        for (const auto& [edge, amount] : cand.edgeUse) {
            rd.usage.add(edge, amount);
        }
        for (const auto& [cell, amount] : cand.viaUse) {
            rd.usage.addVias(cell, amount);
        }
    }
    return rd;
}

}  // namespace streak
