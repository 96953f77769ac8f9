#include "io/svg.hpp"

#include <algorithm>
#include <array>
#include <ostream>

namespace streak::io {

namespace {

/// Pixels per G-Cell.
constexpr int kCellSize = 10;

/// Colour per (hLayer, vLayer) pair index, cycling.
const std::array<const char*, 8> kPalette = {
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#17becf", "#bcbd22"};

}  // namespace

void writeSvg(const RoutedDesign& routed, std::ostream& os) {
    const grid::RoutingGrid& g = routed.usage.grid();
    const int s = kCellSize;
    const int w = g.width() * s;
    const int h = g.height() * s;
    // SVG y grows downward; flip so y=0 is at the bottom like the grid.
    const auto px = [&](int x) { return x * s + s / 2; };
    const auto py = [&](int y) { return h - (y * s + s / 2); };

    os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << w
       << "\" height=\"" << h << "\" viewBox=\"0 0 " << w << ' ' << h
       << "\">\n";
    os << "<rect width=\"" << w << "\" height=\"" << h
       << "\" fill=\"white\"/>\n";

    // Shade cells whose outgoing edges are (partially) blocked, detected
    // as capacity below the die-wide maximum.
    int maxCap = 0;
    for (int e = 0; e < g.numEdges(); ++e) {
        maxCap = std::max(maxCap, g.capacity(e));
    }
    for (int l = 0; l < g.numLayers(); ++l) {
        for (int y = 0; y < g.height(); ++y) {
            for (int x = 0; x < g.width(); ++x) {
                if (!g.validEdge(l, x, y)) continue;
                if (g.capacity(g.edgeId(l, x, y)) * 2 < maxCap) {
                    os << "<rect x=\"" << x * s << "\" y=\""
                       << h - (y + 1) * s << "\" width=\"" << s
                       << "\" height=\"" << s << "\" fill=\"#eeeeee\"/>\n";
                }
            }
        }
    }

    for (const RoutedBit& bit : routed.bits) {
        const size_t colour = static_cast<size_t>(
            (bit.hLayer * g.numLayers() + bit.vLayer) % kPalette.size());
        os << "<g stroke=\"" << kPalette[colour]
           << "\" stroke-width=\"2\" stroke-linecap=\"round\">\n";
        // The wire is sorted, so the SVG is byte-identical across
        // toolchains.
        for (const steiner::UnitEdge& e : bit.topo.wire()) {
            const geom::Point a = e.at;
            const geom::Point b = e.other();
            os << "<line x1=\"" << px(a.x) << "\" y1=\"" << py(a.y)
               << "\" x2=\"" << px(b.x) << "\" y2=\"" << py(b.y) << "\"/>\n";
        }
        os << "</g>\n";
        for (size_t p = 0; p < bit.topo.pins().size(); ++p) {
            const geom::Point pin = bit.topo.pins()[p];
            const bool isDriver =
                static_cast<int>(p) == bit.topo.driverIndex();
            os << "<circle cx=\"" << px(pin.x) << "\" cy=\"" << py(pin.y)
               << "\" r=\"" << (isDriver ? 3 : 2) << "\" fill=\""
               << (isDriver ? "#000000" : kPalette[colour]) << "\"/>\n";
        }
    }
    os << "</svg>\n";
}

}  // namespace streak::io
