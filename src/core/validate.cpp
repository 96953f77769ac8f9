#include "core/validate.hpp"

#include <cmath>
#include <set>
#include <unordered_map>
#include <utility>

namespace streak {

namespace {

using Severity = ValidationIssue::Severity;

void add(std::vector<ValidationIssue>* issues, Severity sev,
         std::string message) {
    issues->push_back({sev, std::move(message)});
}

}  // namespace

std::vector<ValidationIssue> validateDesign(const Design& design) {
    std::vector<ValidationIssue> issues;

    // First group (by index) that claimed each pin location. Two groups
    // contending for one pin is usually a netlist extraction bug and at
    // best forces both through the same congested G-Cell.
    std::unordered_map<geom::Point, size_t> pinOwner;

    int maxCapacity = 0;
    for (int e = 0; e < design.grid.numEdges(); ++e) {
        maxCapacity = std::max(maxCapacity, design.grid.capacity(e));
    }

    for (size_t g = 0; g < design.groups.size(); ++g) {
        const SignalGroup& group = design.groups[g];
        const std::string where = "group '" + group.name + "'";
        if (group.bits.empty()) {
            add(&issues, Severity::Warning,
                where + " has no bits; nothing to route");
            continue;
        }
        if (group.width() > maxCapacity) {
            add(&issues, Severity::Warning,
                where + " is wider (" + std::to_string(group.width()) +
                    ") than any edge capacity (" +
                    std::to_string(maxCapacity) +
                    "); whole-object routing may fail");
        }
        for (size_t b = 0; b < group.bits.size(); ++b) {
            const Bit& bit = group.bits[b];
            const std::string bitWhere = where + " bit '" + bit.name + "'";
            if (bit.pins.empty()) {
                add(&issues, Severity::Error, bitWhere + " has no pins");
                continue;
            }
            if (bit.driver < 0 || bit.driver >= bit.numPins()) {
                add(&issues, Severity::Error,
                    bitWhere + " driver index " + std::to_string(bit.driver) +
                        " out of range");
                continue;
            }
            if (bit.numPins() < 2) {
                add(&issues, Severity::Warning,
                    bitWhere + " has one pin; it routes with no wire");
            }
            std::set<geom::Point> seen;
            for (const geom::Point p : bit.pins) {
                if (!design.grid.contains(p)) {
                    add(&issues, Severity::Error,
                        bitWhere + " pin (" + std::to_string(p.x) + "," +
                            std::to_string(p.y) + ") outside the grid");
                }
                if (!seen.insert(p).second) {
                    add(&issues, Severity::Warning,
                        bitWhere + " has duplicate pin (" +
                            std::to_string(p.x) + "," + std::to_string(p.y) +
                            ")");
                }
                const auto [owner, fresh] = pinOwner.emplace(p, g);
                if (!fresh && owner->second != g) {
                    add(&issues, Severity::Warning,
                        bitWhere + " pin (" + std::to_string(p.x) + "," +
                            std::to_string(p.y) + ") is also used by group '" +
                            design.groups[owner->second].name + "'");
                }
            }
        }
    }
    return issues;
}

bool isRoutable(const std::vector<ValidationIssue>& issues) {
    for (const ValidationIssue& i : issues) {
        if (i.severity == ValidationIssue::Severity::Error) return false;
    }
    return true;
}

std::string validatePins(const Design& design) {
    const grid::RoutingGrid& grid = design.grid;
    for (const SignalGroup& group : design.groups) {
        for (const Bit& bit : group.bits) {
            const auto where = [&] {
                return "group '" + group.name + "' bit '" + bit.name + "'";
            };
            if (bit.pins.empty()) return where() + " has no pins";
            if (bit.driver < 0 || bit.driver >= bit.numPins()) {
                return where() + " driver index " +
                       std::to_string(bit.driver) + " is out of range [0, " +
                       std::to_string(bit.numPins()) + ")";
            }
            for (const geom::Point p : bit.pins) {
                if (!grid.contains(p)) {
                    return where() + " pin (" + std::to_string(p.x) + "," +
                           std::to_string(p.y) + ") lies outside the " +
                           std::to_string(grid.width()) + "x" +
                           std::to_string(grid.height()) + " grid";
                }
            }
        }
    }
    return {};
}

std::string validateOptions(const StreakOptions& opts) {
    struct Minimum {
        const char* name;
        int value;
        int min;
    };
    const Minimum counts[] = {
        {"maxBackbones", opts.backbone.maxBackbones, 1},
        {"maxLayerPairs", opts.maxLayerPairs, 1},
        {"threads", opts.threads, 0},
        {"maxDetourShift", opts.maxDetourShift, 0},
    };
    for (const Minimum& c : counts) {
        if (c.value < c.min) {
            return std::string(c.name) + " = " + std::to_string(c.value) +
                   " is below its minimum " + std::to_string(c.min);
        }
    }
    const std::pair<const char*, double> reals[] = {
        {"viaWeight", opts.viaWeight},
        {"layerAdjacencyWeight", opts.layerAdjacencyWeight},
        {"irregularityWeight", opts.irregularityWeight},
        {"pairLayerWeight", opts.pairLayerWeight},
        {"ilpTimeLimitSeconds", opts.ilpTimeLimitSeconds},
        {"distanceThresholdFraction", opts.distanceThresholdFraction},
    };
    for (const auto& [name, value] : reals) {
        if (!std::isfinite(value)) return std::string(name) + " is not finite";
    }
    // A negative pair weight can make a pair cost negative, and the ILP
    // router's linearization y >= x_ij + x_pq - 1 (which skips cells with
    // c <= 0) would then optimize a different objective from Alg. 2.
    const std::pair<const char*, double> pairWeights[] = {
        {"irregularityWeight", opts.irregularityWeight},
        {"pairLayerWeight", opts.pairLayerWeight},
    };
    for (const auto& [name, value] : pairWeights) {
        if (value < 0.0) {
            return std::string(name) + " = " + std::to_string(value) +
                   " is negative";
        }
    }
    return {};
}

}  // namespace streak
