#include "core/tight.hpp"

#include <limits>
#include <utility>

namespace streak {

namespace {

using DemandList = std::vector<std::pair<int, int>> RouteCandidate::*;

/// Index the elements (edges or via cells) on which `demand` can exceed
/// `limitOf(id)`. Users come out sorted by (element, object, candidate)
/// because the scan visits objects and candidates in index order and the
/// placement below is a stable counting sort.
template <typename LimitFn>
TightElements indexTight(const RoutingProblem& prob, int numElements,
                         DemandList demand, LimitFn limitOf) {
    // Worst-case demand of each element: the sum over objects of each
    // object's largest use, kept up to date as the current object's
    // largest use grows. owner < 0 marks an element no candidate uses.
    struct Demand {
        int owner = -1;  // object whose largest use is `largest`
        int largest = 0;
        long worst = 0;
    };
    std::vector<Demand> demandOf(static_cast<size_t>(numElements));
    for (int i = 0; i < prob.numObjects(); ++i) {
        for (const RouteCandidate& c :
             prob.candidates[static_cast<size_t>(i)]) {
            for (const auto& [id, amount] : c.*demand) {
                Demand& d = demandOf[static_cast<size_t>(id)];
                if (d.owner != i) {
                    d.owner = i;
                    d.largest = 0;
                }
                if (amount > d.largest) {
                    d.worst += amount - d.largest;
                    d.largest = amount;
                }
            }
        }
    }
    TightElements out;
    std::vector<int> slot(static_cast<size_t>(numElements), -1);
    for (int id = 0; id < numElements; ++id) {
        const Demand& d = demandOf[static_cast<size_t>(id)];
        if (d.owner >= 0 && d.worst > limitOf(id)) {
            slot[static_cast<size_t>(id)] = static_cast<int>(out.ids.size());
            out.ids.push_back(id);
        }
    }
    if (out.ids.empty()) return out;

    // The uses of tight elements in (object, candidate) order, then placed
    // by slot.
    std::vector<std::pair<int, TightUse>> found;
    for (int i = 0; i < prob.numObjects(); ++i) {
        const auto& cands = prob.candidates[static_cast<size_t>(i)];
        for (size_t j = 0; j < cands.size(); ++j) {
            for (const auto& [id, amount] : cands[j].*demand) {
                const int k = slot[static_cast<size_t>(id)];
                if (k >= 0) {
                    found.push_back({k, {i, static_cast<int>(j), amount}});
                }
            }
        }
    }
    out.begin.assign(out.ids.size() + 1, 0);
    for (const auto& [k, use] : found) ++out.begin[static_cast<size_t>(k) + 1];
    for (size_t k = 1; k < out.begin.size(); ++k) {
        out.begin[k] += out.begin[k - 1];
    }
    out.users.resize(found.size());
    std::vector<int> cursor(out.begin.begin(), out.begin.end() - 1);
    for (const auto& [k, use] : found) {
        out.users[static_cast<size_t>(cursor[static_cast<size_t>(k)]++)] = use;
    }
    out.slot = std::move(slot);
    return out;
}

}  // namespace

TightIndex buildTightIndex(const RoutingProblem& prob) {
    const grid::RoutingGrid& grid = prob.design->grid;
    TightIndex index;
    index.edges = indexTight(prob, grid.numEdges(), &RouteCandidate::edgeUse,
                             [&](int edge) -> long {
                                 return grid.capacity(edge);
                             });
    if (grid.viaLimited()) {
        index.viaCells = indexTight(
            prob, grid.numCells(), &RouteCandidate::viaUse,
            [&](int cell) -> long {
                const int cap = grid.viaCapacity(cell);
                return cap < 0 ? std::numeric_limits<long>::max() : cap;
            });
    }
    return index;
}

}  // namespace streak
