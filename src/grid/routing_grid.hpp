// The 3-D global-routing grid model (Sec. II-B of the paper).
//
// Each metal layer is a W x H array of G-Cells. Layers are uni-directional:
// a Horizontal layer only provides edges (x,y)-(x+1,y), a Vertical layer
// only (x,y)-(x,y+1). Every edge has a track capacity; blockages lower it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "check/assert.hpp"
#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "geom/segment.hpp"

namespace streak::grid {

enum class Dir { Horizontal, Vertical };

// Bounds every reader of untrusted design data enforces (io::readDesign
// and the ECO checkpoint reader): generous for any realistic design,
// tight enough that a hostile value can never drive a giant allocation
// or overflow an int edge id. Edge capacities lie in [0, kMaxCapacity];
// via capacities in [-1, kMaxCapacity], -1 meaning unlimited.
inline constexpr int kMaxDim = 8192;
inline constexpr int kMaxLayers = 64;
inline constexpr int kMaxCapacity = 1 << 20;
inline constexpr long kMaxEdges = 1L << 28;

/// Number of edges a width x height x numLayers grid has, counted in
/// long so that a reader can bound it before building the grid.
[[nodiscard]] long edgeCount(int width, int height, int numLayers);

/// Why a grid of this shape and default capacity is outside the reader
/// bounds above, or nullptr when it is inside them.
[[nodiscard]] const char* gridShapeError(int width, int height,
                                         int numLayers, int defaultCapacity);

/// Immutable-shape 3-D routing grid: dimensions, layer directions and
/// per-edge capacities. Routing *usage* lives in EdgeUsage so that many
/// tentative solutions can share one grid.
class RoutingGrid {
public:
    /// Build a grid of `width` x `height` G-Cells and `numLayers` layers,
    /// every edge starting at `defaultCapacity` tracks. Layer 0 is
    /// horizontal and directions alternate, matching common uni-directional
    /// metal stacks.
    RoutingGrid(int width, int height, int numLayers, int defaultCapacity);

    [[nodiscard]] int width() const { return width_; }
    [[nodiscard]] int height() const { return height_; }
    [[nodiscard]] int numLayers() const { return numLayers_; }
    [[nodiscard]] Dir layerDir(int layer) const { return layerDir_[layer]; }

    /// Layers of the given direction, bottom-up.
    [[nodiscard]] std::vector<int> layersOf(Dir d) const;

    /// Total number of 3-D edges across all layers.
    [[nodiscard]] int numEdges() const { return static_cast<int>(capacity_.size()); }

    /// Edge id for the edge leaving G-Cell (x, y) in the layer's direction:
    /// (x,y)-(x+1,y) on horizontal layers, (x,y)-(x,y+1) on vertical ones.
    [[nodiscard]] int edgeId(int layer, int x, int y) const {
        STREAK_ASSERT(validEdge(layer, x, y),
                      "edge (layer {}, {},{}) outside the {}x{}x{} grid",
                      layer, x, y, width_, height_, numLayers_);
        const int stride =
            layerDir_[layer] == Dir::Horizontal ? width_ - 1 : width_;
        return layerOffset_[layer] + y * stride + x;
    }

    [[nodiscard]] bool validEdge(int layer, int x, int y) const {
        if (layer < 0 || layer >= numLayers_) return false;
        if (layerDir_[layer] == Dir::Horizontal) {
            return x >= 0 && x < width_ - 1 && y >= 0 && y < height_;
        }
        return x >= 0 && x < width_ && y >= 0 && y < height_ - 1;
    }

    [[nodiscard]] bool contains(geom::Point p) const {
        return p.x >= 0 && p.x < width_ && p.y >= 0 && p.y < height_;
    }

    /// Why `area` is not a non-empty rectangle of this grid's G-Cells, or
    /// empty when it is one. Readers check this before handing a
    /// rectangle to the blockage methods, which walk all of it.
    [[nodiscard]] std::string rectError(const geom::Rect& area) const;

    [[nodiscard]] int capacity(int edge) const { return capacity_[edge]; }
    void setCapacity(int edge, int cap) { capacity_[edge] = cap; }

    /// Track capacity every edge starts with at construction time (the
    /// value blockage removal restores).
    [[nodiscard]] int defaultCapacity() const { return defaultCapacity_; }

    /// Reduce the capacity of every edge on `layer` whose *source* G-Cell
    /// lies inside `area` to `remainingCapacity` (a routing blockage).
    void addBlockage(const geom::Rect& area, int layer, int remainingCapacity);

    /// Restore every edge on `layer` whose source G-Cell lies inside
    /// `area` to the construction default capacity (the ECO undo of
    /// addBlockage; overlapping blockages inside `area` are lifted too).
    void removeBlockage(const geom::Rect& area, int layer);

    /// Set every edge on `layer` whose source G-Cell lies inside `area`
    /// to exactly `capacity` (ECO capacity resize; may raise or lower).
    void resizeCapacity(const geom::Rect& area, int layer, int capacity);

    // --- pin accessibility (via capacity) model -------------------------
    // Every G-Cell column offers a bounded number of via slots for pin
    // access stacks and layer changes. Unlimited (-1) by default; enable
    // with setViaCapacity(). This implements the paper's future-work item
    // "take pin accessibility into consideration".

    /// Number of G-Cells (via columns).
    [[nodiscard]] int numCells() const { return width_ * height_; }

    [[nodiscard]] int cellIndex(int x, int y) const { return y * width_ + x; }
    [[nodiscard]] int cellIndex(geom::Point p) const {
        return cellIndex(p.x, p.y);
    }

    /// Via slots available at a cell; -1 means unlimited.
    [[nodiscard]] int viaCapacity(int cell) const {
        return viaCapacity_.empty() ? -1 : viaCapacity_[static_cast<size_t>(cell)];
    }
    [[nodiscard]] bool viaLimited() const { return !viaCapacity_.empty(); }

    /// Enable the via model with a uniform per-cell capacity.
    void setViaCapacity(int capacity);
    /// Dent the via capacity inside `area` (e.g. over a macro).
    void addViaBlockage(const geom::Rect& area, int remainingCapacity);
    /// Set one cell's via capacity exactly (checkpoint restore). The via
    /// model must already be enabled with setViaCapacity().
    void setViaCapacityAt(int cell, int capacity);

    /// Edge ids covered by a rectilinear segment routed on `layer`.
    /// The segment orientation must match the layer direction (degenerate
    /// segments yield no edges).
    [[nodiscard]] std::vector<int> edgesOnSegment(const geom::Segment& seg,
                                                  int layer) const;

    /// Append the edge ids covered by `seg` on `layer` to `out`.
    void appendEdgesOnSegment(const geom::Segment& seg, int layer,
                              std::vector<int>* out) const;

    /// Recover the (layer, x, y) triple for an edge id. Mostly for
    /// reporting / debugging; O(numLayers).
    struct EdgeCoord {
        int layer;
        int x;
        int y;
    };
    [[nodiscard]] EdgeCoord edgeCoord(int edge) const;

private:
    int width_;
    int height_;
    int numLayers_;
    int defaultCapacity_ = 0;
    std::vector<Dir> layerDir_;
    std::vector<int> layerOffset_;  // first edge id of each layer
    std::vector<int> capacity_;
    std::vector<int> viaCapacity_;  // empty = via model disabled
};

/// Mutable per-edge routing usage on top of a RoutingGrid.
class EdgeUsage {
public:
    explicit EdgeUsage(const RoutingGrid& grid)
        : grid_(&grid), usage_(static_cast<size_t>(grid.numEdges()), 0),
          viaUsage_(static_cast<size_t>(grid.numCells()), 0) {}

    [[nodiscard]] const RoutingGrid& grid() const { return *grid_; }
    [[nodiscard]] int usage(int edge) const { return usage_[edge]; }
    [[nodiscard]] int remaining(int edge) const {
        return grid_->capacity(edge) - usage_[edge];
    }

    void add(int edge, int amount) { usage_[edge] += amount; }
    void remove(int edge, int amount) {
        usage_[edge] -= amount;
        STREAK_ASSERT(usage_[edge] >= 0,
                      "edge {} usage went negative ({}) after removing {}",
                      edge, usage_[edge], amount);
    }

    // Via-slot accounting (active when the grid's via model is enabled).
    [[nodiscard]] int viaUsage(int cell) const {
        return viaUsage_[static_cast<size_t>(cell)];
    }
    /// Remaining via slots; unlimited cells report a large number.
    [[nodiscard]] int viaRemaining(int cell) const {
        const int cap = grid_->viaCapacity(cell);
        if (cap < 0) return 1 << 28;
        return cap - viaUsage_[static_cast<size_t>(cell)];
    }
    void addVias(int cell, int amount) {
        viaUsage_[static_cast<size_t>(cell)] += amount;
    }
    void removeVias(int cell, int amount) {
        viaUsage_[static_cast<size_t>(cell)] -= amount;
        STREAK_ASSERT(viaUsage_[static_cast<size_t>(cell)] >= 0,
                      "cell {} via usage went negative ({}) after removing {}",
                      cell, viaUsage_[static_cast<size_t>(cell)], amount);
    }

    /// Total overflow: sum over edges of max(usage - capacity, 0).
    [[nodiscard]] long totalOverflow() const;

    /// Number of edges whose usage exceeds capacity.
    [[nodiscard]] int overflowedEdges() const;

    /// Total via overflow over cells (0 when the via model is disabled).
    [[nodiscard]] long totalViaOverflow() const;

    void clear() {
        usage_.assign(usage_.size(), 0);
        viaUsage_.assign(viaUsage_.size(), 0);
    }

private:
    const RoutingGrid* grid_;
    std::vector<int> usage_;
    std::vector<int> viaUsage_;
};

}  // namespace streak::grid
