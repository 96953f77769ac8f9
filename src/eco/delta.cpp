#include "eco/delta.hpp"

#include <fstream>
#include <istream>
#include <sstream>

#include "robust/error.hpp"
#include "robust/fault.hpp"

namespace streak::eco {

namespace {

[[noreturn]] void invalid(const std::string& site, const std::string& what) {
    robust::StreakError err;
    err.kind = robust::ErrorKind::InvalidInput;
    err.site = site;
    err.message = what;
    robust::raise(std::move(err));
}

void checkRectDelta(const Design& design, const Delta& d) {
    const grid::RoutingGrid& grid = design.grid;
    if (d.layer < 0 || d.layer >= grid.numLayers()) {
        invalid("eco/apply", deltaKindName(d.kind) +
                                 std::string(": layer ") +
                                 std::to_string(d.layer) + " out of range");
    }
    if (std::string why = grid.rectError(d.area); !why.empty()) {
        invalid("eco/apply", deltaKindName(d.kind) + (": " + why));
    }
    if (d.kind != DeltaKind::RemoveBlockage &&
        (d.capacity < 0 || d.capacity > grid::kMaxCapacity)) {
        invalid("eco/apply", deltaKindName(d.kind) + std::string(": capacity ") +
                                 std::to_string(d.capacity) +
                                 " out of range");
    }
}

}  // namespace

const char* deltaKindName(DeltaKind kind) {
    switch (kind) {
        case DeltaKind::MovePin: return "MOVEPIN";
        case DeltaKind::AddBlockage: return "ADDBLOCKAGE";
        case DeltaKind::RemoveBlockage: return "REMOVEBLOCKAGE";
        case DeltaKind::ResizeCapacity: return "RESIZECAPACITY";
    }
    return "?";
}

geom::Rect dirtyRect(const Delta& delta, const Design& designBefore) {
    if (delta.kind != DeltaKind::MovePin) return delta.area;
    const geom::Point from =
        designBefore.groups[static_cast<size_t>(delta.group)]
            .bits[static_cast<size_t>(delta.bit)]
            .pins[static_cast<size_t>(delta.pin)];
    return geom::Rect::bounding(from, delta.to);
}

void applyDelta(Design* design, const Delta& delta) {
    switch (delta.kind) {
        case DeltaKind::MovePin: {
            if (delta.group < 0 || delta.group >= design->numGroups()) {
                invalid("eco/apply", "MOVEPIN: group index out of range");
            }
            SignalGroup& g =
                design->groups[static_cast<size_t>(delta.group)];
            if (delta.bit < 0 || delta.bit >= g.width()) {
                invalid("eco/apply", "MOVEPIN: bit index out of range");
            }
            Bit& b = g.bits[static_cast<size_t>(delta.bit)];
            if (delta.pin < 0 || delta.pin >= b.numPins()) {
                invalid("eco/apply", "MOVEPIN: pin index out of range");
            }
            if (!design->grid.contains(delta.to)) {
                invalid("eco/apply", "MOVEPIN: target outside the grid");
            }
            b.pins[static_cast<size_t>(delta.pin)] = delta.to;
            return;
        }
        case DeltaKind::AddBlockage:
            checkRectDelta(*design, delta);
            design->grid.addBlockage(delta.area, delta.layer, delta.capacity);
            return;
        case DeltaKind::RemoveBlockage:
            checkRectDelta(*design, delta);
            design->grid.removeBlockage(delta.area, delta.layer);
            return;
        case DeltaKind::ResizeCapacity:
            checkRectDelta(*design, delta);
            design->grid.resizeCapacity(delta.area, delta.layer,
                                        delta.capacity);
            return;
    }
    invalid("eco/apply", "unknown delta kind");
}

std::vector<Delta> parseDeltaScript(std::istream& is) {
    STREAK_FAULT_POINT("eco/read");
    std::vector<Delta> deltas;
    std::string line;
    int lineNo = 0;
    const auto parseError = [&lineNo](const std::string& what) {
        invalid("eco/read", "delta script line " + std::to_string(lineNo) +
                                ": " + what);
    };
    while (std::getline(is, line)) {
        ++lineNo;
        const size_t hash = line.find('#');
        if (hash != std::string::npos) line.resize(hash);
        std::istringstream ls(line);
        std::string word;
        if (!(ls >> word)) continue;  // blank / comment-only line
        Delta d;
        const auto num = [&](const char* field) {
            int v = 0;
            if (!(ls >> v)) {
                parseError(word + ": missing or non-numeric " +
                           std::string(field));
            }
            return v;
        };
        if (word == "MOVEPIN") {
            d.kind = DeltaKind::MovePin;
            d.group = num("group");
            d.bit = num("bit");
            d.pin = num("pin");
            d.to = {num("x"), num("y")};
        } else if (word == "ADDBLOCKAGE" || word == "REMOVEBLOCKAGE" ||
                   word == "RESIZECAPACITY") {
            d.kind = word == "ADDBLOCKAGE" ? DeltaKind::AddBlockage
                     : word == "REMOVEBLOCKAGE"
                         ? DeltaKind::RemoveBlockage
                         : DeltaKind::ResizeCapacity;
            d.area.lo = {num("lox"), num("loy")};
            d.area.hi = {num("hix"), num("hiy")};
            d.layer = num("layer");
            if (d.kind != DeltaKind::RemoveBlockage) {
                d.capacity = num("capacity");
            }
        } else {
            parseError("unknown directive \"" + word + "\"");
        }
        std::string rest;
        if (ls >> rest) parseError("trailing token \"" + rest + "\"");
        deltas.push_back(d);
    }
    return deltas;
}

std::vector<Delta> parseDeltaScriptFile(const std::string& path) {
    std::ifstream is(path);
    if (!is) invalid("eco/read", "cannot open delta script " + path);
    return parseDeltaScript(is);
}

}  // namespace streak::eco
