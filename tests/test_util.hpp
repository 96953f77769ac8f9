// Shared builders for Streak tests.
#pragma once

#include <vector>

#include "core/signal.hpp"
#include "gen/generator.hpp"
#include "obs/trace.hpp"

namespace streak::testutil {

/// Restores the calling thread's detail gate on scope exit, so a test can
/// turn detail instrumentation on (obs::setDetailEnabled) for the runs it
/// starts without leaking the setting into later tests.
class DetailGuard {
public:
    DetailGuard() : saved_(obs::detailEnabled()) {}
    ~DetailGuard() { obs::setDetailEnabled(saved_); }
    DetailGuard(const DetailGuard&) = delete;
    DetailGuard& operator=(const DetailGuard&) = delete;

private:
    bool saved_;
};

/// A bit with the given pins; pins[0] is the driver.
inline Bit makeBit(std::vector<geom::Point> pins, const std::string& name = "b") {
    Bit b;
    b.name = name;
    b.pins = std::move(pins);
    b.driver = 0;
    return b;
}

/// A "bus-like" group: `width` translated copies of the pin pattern,
/// shifted by (dx, dy) per bit.
inline SignalGroup makeBusGroup(const std::vector<geom::Point>& pattern,
                                int width, int dx, int dy,
                                const std::string& name = "g") {
    SignalGroup g;
    g.name = name;
    for (int k = 0; k < width; ++k) {
        std::vector<geom::Point> pins;
        pins.reserve(pattern.size());
        for (const geom::Point p : pattern) {
            pins.push_back({p.x + k * dx, p.y + k * dy});
        }
        g.bits.push_back(makeBit(std::move(pins), name + "_b" + std::to_string(k)));
    }
    return g;
}

/// Small design with one group on a fresh grid.
inline Design makeDesign(std::vector<SignalGroup> groups, int w = 32, int h = 32,
                         int layers = 4, int cap = 10) {
    return Design{"test", grid::RoutingGrid(w, h, layers, cap),
                  std::move(groups)};
}

/// synth6's wide multipin groups packed onto a small grid, as in the
/// congested-multipin benchmark: most groups leave many bits to bottom-up
/// clustering.
inline gen::SuiteSpec congestedMultipinSpec() {
    gen::SuiteSpec spec = gen::synthSpec(6);
    spec.gridWidth = spec.gridHeight = 28;
    spec.numGroups = 5;
    spec.minGroupWidth = spec.maxGroupWidth = 14;
    spec.maxPins = 5;
    spec.capacity = 5;
    spec.numBlockages = 2;
    return spec;
}

}  // namespace streak::testutil
