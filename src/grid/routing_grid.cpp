#include "grid/routing_grid.hpp"

#include <stdexcept>

namespace streak::grid {

long edgeCount(int width, int height, int numLayers) {
    long edges = 0;
    for (int l = 0; l < numLayers; ++l) {
        edges += (l % 2 == 0) ? static_cast<long>(width - 1) * height
                              : static_cast<long>(width) * (height - 1);
    }
    return edges;
}

const char* gridShapeError(int width, int height, int numLayers,
                           int defaultCapacity) {
    if (width < 2 || width > kMaxDim || height < 2 || height > kMaxDim) {
        return "grid dimensions out of range";
    }
    if (numLayers < 2 || numLayers > kMaxLayers) {
        return "layer count out of range";
    }
    if (defaultCapacity < 0 || defaultCapacity > kMaxCapacity) {
        return "default capacity out of range";
    }
    if (edgeCount(width, height, numLayers) > kMaxEdges) {
        return "edge count out of range";
    }
    return nullptr;
}

RoutingGrid::RoutingGrid(int width, int height, int numLayers,
                         int defaultCapacity)
    : width_(width), height_(height), numLayers_(numLayers),
      defaultCapacity_(defaultCapacity) {
    if (width < 2 || height < 2) {
        throw std::invalid_argument("RoutingGrid: need at least 2x2 G-Cells");
    }
    if (numLayers < 2) {
        throw std::invalid_argument("RoutingGrid: need at least 2 layers");
    }
    layerDir_.reserve(static_cast<size_t>(numLayers));
    layerOffset_.reserve(static_cast<size_t>(numLayers));
    int offset = 0;
    for (int l = 0; l < numLayers; ++l) {
        const Dir d = (l % 2 == 0) ? Dir::Horizontal : Dir::Vertical;
        layerDir_.push_back(d);
        layerOffset_.push_back(offset);
        offset += d == Dir::Horizontal ? (width - 1) * height : width * (height - 1);
    }
    capacity_.assign(static_cast<size_t>(offset), defaultCapacity);
}

std::string RoutingGrid::rectError(const geom::Rect& area) const {
    if (area.lo.x > area.hi.x || area.lo.y > area.hi.y) {
        return "empty rectangle";
    }
    if (!contains(area.lo) || !contains(area.hi)) {
        return "rectangle outside the " + std::to_string(width_) + "x" +
               std::to_string(height_) + " grid";
    }
    return {};
}

std::vector<int> RoutingGrid::layersOf(Dir d) const {
    std::vector<int> out;
    for (int l = 0; l < numLayers_; ++l) {
        if (layerDir_[l] == d) out.push_back(l);
    }
    return out;
}

void RoutingGrid::setViaCapacity(int capacity) {
    viaCapacity_.assign(static_cast<size_t>(numCells()), capacity);
}

void RoutingGrid::setViaCapacityAt(int cell, int capacity) {
    if (viaCapacity_.empty()) {
        throw std::logic_error(
            "setViaCapacityAt: enable the via model with setViaCapacity "
            "first");
    }
    viaCapacity_[static_cast<size_t>(cell)] = capacity;
}

void RoutingGrid::addViaBlockage(const geom::Rect& area,
                                 int remainingCapacity) {
    if (viaCapacity_.empty()) {
        throw std::logic_error(
            "addViaBlockage: enable the via model with setViaCapacity first");
    }
    for (int y = area.lo.y; y <= area.hi.y; ++y) {
        for (int x = area.lo.x; x <= area.hi.x; ++x) {
            if (x < 0 || x >= width_ || y < 0 || y >= height_) continue;
            int& cap = viaCapacity_[static_cast<size_t>(cellIndex(x, y))];
            if (cap > remainingCapacity) cap = remainingCapacity;
        }
    }
}

void RoutingGrid::addBlockage(const geom::Rect& area, int layer,
                              int remainingCapacity) {
    for (int y = area.lo.y; y <= area.hi.y; ++y) {
        for (int x = area.lo.x; x <= area.hi.x; ++x) {
            if (validEdge(layer, x, y)) {
                const int e = edgeId(layer, x, y);
                if (capacity_[e] > remainingCapacity) {
                    capacity_[e] = remainingCapacity;
                }
            }
        }
    }
}

void RoutingGrid::removeBlockage(const geom::Rect& area, int layer) {
    resizeCapacity(area, layer, defaultCapacity_);
}

void RoutingGrid::resizeCapacity(const geom::Rect& area, int layer,
                                 int capacity) {
    for (int y = area.lo.y; y <= area.hi.y; ++y) {
        for (int x = area.lo.x; x <= area.hi.x; ++x) {
            if (validEdge(layer, x, y)) {
                capacity_[edgeId(layer, x, y)] = capacity;
            }
        }
    }
}

std::vector<int> RoutingGrid::edgesOnSegment(const geom::Segment& seg,
                                             int layer) const {
    std::vector<int> out;
    appendEdgesOnSegment(seg, layer, &out);
    return out;
}

void RoutingGrid::appendEdgesOnSegment(const geom::Segment& seg, int layer,
                                       std::vector<int>* out) const {
    if (seg.degenerate()) return;
    const geom::Segment c = seg.canonical();
    if (c.horizontal()) {
        STREAK_ASSERT(layerDir_[layer] == Dir::Horizontal,
                      "horizontal segment routed on vertical layer {}", layer);
        for (int x = c.a.x; x < c.b.x; ++x) {
            out->push_back(edgeId(layer, x, c.a.y));
        }
    } else {
        STREAK_ASSERT(layerDir_[layer] == Dir::Vertical,
                      "vertical segment routed on horizontal layer {}", layer);
        for (int y = c.a.y; y < c.b.y; ++y) {
            out->push_back(edgeId(layer, c.a.x, y));
        }
    }
}

RoutingGrid::EdgeCoord RoutingGrid::edgeCoord(int edge) const {
    int layer = numLayers_ - 1;
    while (layer > 0 && layerOffset_[layer] > edge) --layer;
    const int local = edge - layerOffset_[layer];
    const int stride =
        layerDir_[layer] == Dir::Horizontal ? width_ - 1 : width_;
    return {layer, local % stride, local / stride};
}

long EdgeUsage::totalOverflow() const {
    long total = 0;
    for (size_t e = 0; e < usage_.size(); ++e) {
        const int over = usage_[e] - grid_->capacity(static_cast<int>(e));
        if (over > 0) total += over;
    }
    return total;
}

long EdgeUsage::totalViaOverflow() const {
    if (!grid_->viaLimited()) return 0;
    long total = 0;
    for (size_t c = 0; c < viaUsage_.size(); ++c) {
        const int cap = grid_->viaCapacity(static_cast<int>(c));
        if (cap >= 0 && viaUsage_[c] > cap) total += viaUsage_[c] - cap;
    }
    return total;
}

int EdgeUsage::overflowedEdges() const {
    int count = 0;
    for (size_t e = 0; e < usage_.size(); ++e) {
        if (usage_[e] > grid_->capacity(static_cast<int>(e))) ++count;
    }
    return count;
}

}  // namespace streak::grid
