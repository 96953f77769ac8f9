#include "post/layer_predict.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace streak::post {

LayerPrediction predictLayers(
    const grid::EdgeUsage& usage,
    const std::vector<std::vector<steiner::Topology>>& bitCandidates) {
    const grid::RoutingGrid& grid = usage.grid();

    // Eq. (7): u(e, g) = sum_b sum_t u(e, t) / |S_c(b)| on 2-D unit edges.
    std::unordered_map<steiner::UnitEdge, double, steiner::UnitEdgeHash> u;
    for (const auto& cands : bitCandidates) {
        if (cands.empty()) continue;
        const double w = 1.0 / static_cast<double>(cands.size());
        for (const steiner::Topology& t : cands) {
            // Per-key accumulation: each edge gains w once per topology, in
            // the deterministic candidate order.
            for (const steiner::UnitEdge& e : t.wire()) u[e] += w;
        }
    }
    // The conflict sums below add doubles in visit order; materialize the
    // demand map sorted so the floating-point result is reproducible.
    std::vector<std::pair<steiner::UnitEdge, double>> demandByEdge(u.begin(),
                                                                   u.end());
    std::sort(demandByEdge.begin(), demandByEdge.end());

    // Eq. (8): cf(l, g) = sum_e max(u(e) - cap_remaining(e_l), 0).
    LayerPrediction out;
    double bestH = std::numeric_limits<double>::max();
    double bestV = std::numeric_limits<double>::max();
    for (int l = 0; l < grid.numLayers(); ++l) {
        double cf = 0.0;
        const bool horizontal = grid.layerDir(l) == grid::Dir::Horizontal;
        for (const auto& [e, demand] : demandByEdge) {
            if (e.horizontal != horizontal) continue;
            if (!grid.validEdge(l, e.at.x, e.at.y)) continue;
            const double rem =
                static_cast<double>(usage.remaining(grid.edgeId(l, e.at.x, e.at.y)));
            if (demand > rem) cf += demand - rem;
        }
        if (horizontal && cf < bestH) {
            bestH = cf;
            out.hLayer = l;
            out.hConflict = cf;
        } else if (!horizontal && cf < bestV) {
            bestV = cf;
            out.vLayer = l;
            out.vConflict = cf;
        }
    }
    return out;
}

}  // namespace streak::post
