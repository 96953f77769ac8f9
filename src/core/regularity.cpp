#include "core/regularity.hpp"

#include <algorithm>
#include <limits>

namespace streak {

RegularityView regularityView(const steiner::Topology& t) {
    const steiner::TopoStructure st = t.structure();
    RegularityView view;
    view.points.reserve(st.nodes.size());
    int driverNode = -1;
    for (size_t i = 0; i < st.nodes.size(); ++i) {
        view.points.push_back(st.nodes[i].pt);
        if (st.nodes[i].pinIndex == t.driverIndex()) {
            driverNode = static_cast<int>(i);
        }
    }
    const int weight = static_cast<int>(view.points.size()) + 1;
    view.svs.reserve(view.points.size());
    for (size_t i = 0; i < view.points.size(); ++i) {
        view.svs.push_back(weightedSimilarity(
            view.points, static_cast<int>(i), driverNode, weight));
    }
    view.rcs.reserve(st.rcs.size());
    for (const auto& [u, v] : st.rcs) {
        view.rcs.emplace_back(std::min(u, v), std::max(u, v));
    }
    std::sort(view.rcs.begin(), view.rcs.end());
    return view;
}

double regularityRatio(const RegularityView& a, const RegularityView& b) {
    const int nrc = static_cast<int>(std::min(a.rcs.size(), b.rcs.size()));
    if (nrc == 0) return 1.0;  // trivially shared (no connections to differ)

    // Closest-SV matching of every node of t1 to a node of t2 (many-to-one
    // allowed — a bend can map to a sink, Fig. 3(a) discussion). Ties break
    // towards geometric proximity for determinism.
    std::vector<int> match(a.points.size(), -1);
    for (size_t i = 0; i < a.points.size(); ++i) {
        int best = -1;
        long bestKey = std::numeric_limits<long>::max();
        for (size_t j = 0; j < b.points.size(); ++j) {
            const long key =
                static_cast<long>(svDistance(a.svs[i], b.svs[j])) * 1000000 +
                manhattan(a.points[i], b.points[j]);
            if (key < bestKey) {
                bestKey = key;
                best = static_cast<int>(j);
            }
        }
        match[i] = best;
    }

    int matched = 0;
    for (const auto& [u, v] : a.rcs) {
        const int mu = match[static_cast<size_t>(u)];
        const int mv = match[static_cast<size_t>(v)];
        if (mu == mv) continue;
        if (std::binary_search(b.rcs.begin(), b.rcs.end(),
                               std::make_pair(std::min(mu, mv),
                                              std::max(mu, mv)))) {
            ++matched;
        }
    }
    return std::min(1.0, static_cast<double>(matched) / nrc);
}

double regularityRatio(const steiner::Topology& t1,
                       const steiner::Topology& t2) {
    return regularityRatio(regularityView(t1), regularityView(t2));
}

double groupRegularity(
    const std::vector<const steiner::Topology*>& objectTopologies) {
    const int n = static_cast<int>(objectTopologies.size());
    if (n < 2) return 1.0;
    std::vector<RegularityView> views;
    views.reserve(objectTopologies.size());
    for (const steiner::Topology* t : objectTopologies) {
        views.push_back(regularityView(*t));
    }
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
        for (int p = i + 1; p < n; ++p) {
            sum += regularityRatio(views[static_cast<size_t>(i)],
                                   views[static_cast<size_t>(p)]);
        }
    }
    return 2.0 * sum / (static_cast<double>(n) * (n - 1));
}

}  // namespace streak
