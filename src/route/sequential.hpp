// Sequential bit-by-bit group router: the "manual design" surrogate.
//
// This is the classic-bus-router baseline the paper's evaluation compares
// against (Table I "Manual Design"): every bit is routed individually for
// minimum wire-length with congestion-aware maze routing, with no
// interbit regularity objective. It does not finish Streak's leftovers:
// like the bits this router fails, a bit Streak leaves unrouted counts
// its RSMT estimate toward the whole-design wire-length
// (core/metrics.cpp).
#pragma once

#include "core/signal.hpp"
#include "grid/routing_grid.hpp"
#include "route/maze.hpp"

namespace streak::route {

struct SequentialResult {
    grid::EdgeUsage usage;
    int totalBits = 0;
    int routedBits = 0;
    long wirelength = 0;  // 2-D, routed bits only + RSMT estimate for rest
    long viaCount = 0;
    double seconds = 0.0;

    explicit SequentialResult(const grid::RoutingGrid& grid) : usage(grid) {}

    [[nodiscard]] double routability() const {
        return totalBits == 0 ? 1.0
                              : static_cast<double>(routedBits) / totalBits;
    }
};

/// Route every bit of the design sequentially (group order, bit order).
/// `mazeOnly` skips the pattern-route shortcut and sends every bit
/// through the maze search, so the campaign runner's route/maze.*
/// counters measure the search kernel itself.
[[nodiscard]] SequentialResult routeSequential(const Design& design,
                                               const MazeOptions& opts = {},
                                               bool mazeOnly = false);

}  // namespace streak::route
