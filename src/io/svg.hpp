// SVG rendering of routed designs: one colour per trunk-layer pair, pins
// as dots, blockage-dented cells shaded. For visual inspection of
// regularity (the parallel-track patterns of Figs. 1/3) and debugging.
#pragma once

#include <iosfwd>

#include "core/solution.hpp"

namespace streak::io {

/// Render the routed bits of a design to SVG, 10 pixels per G-Cell.
void writeSvg(const RoutedDesign& routed, std::ostream& os);

}  // namespace streak::io
