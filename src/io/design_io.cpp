#include "io/design_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "robust/error.hpp"
#include "robust/fault.hpp"

namespace streak::io {

namespace {

/// Parse failures are structured invalid-input errors: the CLI maps
/// them to exit code 3 and prints the (line, column) context. line 0
/// means "no position" (e.g. a missing record noticed at end of input).
[[noreturn]] void fail(const std::string& what, int line = 0, int column = 0) {
    std::string msg = "readDesign: " + what;
    if (line > 0) {
        msg += " (line " + std::to_string(line);
        if (column > 0) msg += ", column " + std::to_string(column);
        msg += ")";
    }
    robust::StreakError err;
    err.kind = robust::ErrorKind::InvalidInput;
    err.site = "io/read";
    err.message = std::move(msg);
    robust::raise(std::move(err));
}

/// Capacities lie in the checkpoint reader's ranges (grid::kMaxCapacity):
/// [0, max] for edges, [-1, max] for vias, where -1 means unlimited.
void checkCapacity(const char* record, int value, int min, int line) {
    if (value < min || value > grid::kMaxCapacity) {
        fail(std::string(record) + ": capacity " + std::to_string(value) +
                 " out of range [" + std::to_string(min) + ", " +
                 std::to_string(grid::kMaxCapacity) + "]",
             line);
    }
}

/// 1-based column where a field extraction stopped. After a failed
/// `>>`, tellg() is -1; the useful position is then the line's end
/// (truncated record) rather than nothing.
int columnOf(std::istringstream& ss, const std::string& line) {
    ss.clear();
    const auto pos = ss.tellg();
    if (pos < 0) return static_cast<int>(line.size()) + 1;
    return static_cast<int>(pos) + 1;
}

}  // namespace

void writeDesign(const Design& design, std::ostream& os) {
    os << "STREAK 1\n";
    os << "# design: " << design.name << '\n';
    const grid::RoutingGrid& g = design.grid;
    // Default capacity is not recoverable once blockages applied; emit the
    // grid with per-edge capacity deltas below.
    os << "GRID " << g.width() << ' ' << g.height() << ' ' << g.numLayers();
    // Use the maximum capacity as the default and re-emit dents.
    int defaultCap = 0;
    for (int e = 0; e < g.numEdges(); ++e) {
        defaultCap = std::max(defaultCap, g.capacity(e));
    }
    os << ' ' << defaultCap << '\n';
    for (int e = 0; e < g.numEdges(); ++e) {
        if (g.capacity(e) != defaultCap) {
            const auto c = g.edgeCoord(e);
            os << "BLOCKAGE " << c.x << ' ' << c.y << ' ' << c.x << ' ' << c.y
               << ' ' << c.layer << ' ' << g.capacity(e) << '\n';
        }
    }
    if (g.viaLimited()) {
        int defaultVia = 0;
        for (int c = 0; c < g.numCells(); ++c) {
            defaultVia = std::max(defaultVia, g.viaCapacity(c));
        }
        os << "VIACAP " << defaultVia << '\n';
        for (int y = 0; y < g.height(); ++y) {
            for (int x = 0; x < g.width(); ++x) {
                const int cap = g.viaCapacity(g.cellIndex(x, y));
                if (cap != defaultVia) {
                    os << "VIABLOCKAGE " << x << ' ' << y << ' ' << x << ' '
                       << y << ' ' << cap << '\n';
                }
            }
        }
    }
    for (const SignalGroup& group : design.groups) {
        os << "GROUP " << group.name << ' ' << group.width() << '\n';
        for (const Bit& bit : group.bits) {
            os << "BIT " << bit.name << ' ' << bit.numPins() << ' '
               << bit.driver << '\n';
            for (const geom::Point p : bit.pins) {
                os << "PIN " << p.x << ' ' << p.y << '\n';
            }
        }
    }
}

void writeDesignFile(const Design& design, const std::string& path) {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("writeDesignFile: cannot open " + path);
    writeDesign(design, os);
}

Design readDesign(std::istream& is) {
    STREAK_FAULT_POINT("io/read");
    std::string line;
    int lineNo = 0;
    // Header.
    for (;;) {
        if (!std::getline(is, line)) fail("missing header");
        ++lineNo;
        if (line.empty() || line[0] == '#') continue;
        break;
    }
    {
        std::istringstream ss(line);
        std::string magic;
        int version = 0;
        ss >> magic >> version;
        if (magic != "STREAK" || version != 1) {
            fail("bad header: " + line, lineNo, 1);
        }
    }

    int width = 0, height = 0, layers = 0, cap = 0;
    bool haveGrid = false;
    std::string pendingName = "design";

    // Parse body into a staging structure, then build.
    struct PendingBit {
        std::string name;
        int driver = 0;
        std::vector<geom::Point> pins;
        int expectedPins = 0;
        int line = 0;  // where the BIT record was declared
    };
    struct PendingGroup {
        std::string name;
        std::vector<PendingBit> bits;
        int expectedBits = 0;
        int line = 0;  // where the GROUP record was declared
    };
    std::vector<PendingGroup> groups;
    struct Blockage {
        geom::Rect rect;
        int layer;
        int remaining;
        int line;
    };
    std::vector<Blockage> blockages;
    int viaCap = -1;
    struct ViaBlockage {
        geom::Rect rect;
        int remaining;
        int line;
    };
    std::vector<ViaBlockage> viaBlockages;

    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ss(line);
        std::string kind;
        ss >> kind;
        if (kind == "GRID") {
            ss >> width >> height >> layers >> cap;
            if (!ss) fail("bad GRID line", lineNo, columnOf(ss, line));
            if (const char* why =
                    grid::gridShapeError(width, height, layers, cap)) {
                fail(std::string("GRID: ") + why, lineNo);
            }
            haveGrid = true;
        } else if (kind == "BLOCKAGE") {
            Blockage b{};
            ss >> b.rect.lo.x >> b.rect.lo.y >> b.rect.hi.x >> b.rect.hi.y >>
                b.layer >> b.remaining;
            if (!ss) fail("bad BLOCKAGE line", lineNo, columnOf(ss, line));
            checkCapacity("BLOCKAGE", b.remaining, 0, lineNo);
            b.line = lineNo;
            blockages.push_back(b);
        } else if (kind == "VIACAP") {
            ss >> viaCap;
            if (!ss) fail("bad VIACAP line", lineNo, columnOf(ss, line));
            checkCapacity("VIACAP", viaCap, -1, lineNo);
        } else if (kind == "VIABLOCKAGE") {
            ViaBlockage b{};
            ss >> b.rect.lo.x >> b.rect.lo.y >> b.rect.hi.x >> b.rect.hi.y >>
                b.remaining;
            if (!ss) fail("bad VIABLOCKAGE line", lineNo, columnOf(ss, line));
            checkCapacity("VIABLOCKAGE", b.remaining, -1, lineNo);
            b.line = lineNo;
            viaBlockages.push_back(b);
        } else if (kind == "GROUP") {
            PendingGroup g;
            ss >> g.name >> g.expectedBits;
            if (!ss) fail("bad GROUP line", lineNo, columnOf(ss, line));
            g.line = lineNo;
            groups.push_back(std::move(g));
        } else if (kind == "BIT") {
            if (groups.empty()) fail("BIT before GROUP", lineNo, 1);
            PendingBit b;
            ss >> b.name >> b.expectedPins >> b.driver;
            if (!ss) fail("bad BIT line", lineNo, columnOf(ss, line));
            b.line = lineNo;
            groups.back().bits.push_back(std::move(b));
        } else if (kind == "PIN") {
            if (groups.empty() || groups.back().bits.empty()) {
                fail("PIN before BIT", lineNo, 1);
            }
            geom::Point p{};
            ss >> p.x >> p.y;
            if (!ss) fail("bad PIN line", lineNo, columnOf(ss, line));
            groups.back().bits.back().pins.push_back(p);
        } else {
            fail("unknown record: " + kind, lineNo, 1);
        }
    }
    if (!haveGrid) fail("missing GRID");

    Design design{pendingName, grid::RoutingGrid(width, height, layers, cap), {}};
    // Blockage methods walk the whole rectangle: bound it first.
    const auto checkRect = [&design](const char* record, const geom::Rect& r,
                                     int line) {
        if (std::string why = design.grid.rectError(r); !why.empty()) {
            fail(std::string(record) + ": " + why, line);
        }
    };
    for (const Blockage& b : blockages) {
        if (b.layer < 0 || b.layer >= layers) {
            fail("BLOCKAGE: layer " + std::to_string(b.layer) +
                     " out of range [0, " + std::to_string(layers) + ")",
                 b.line);
        }
        checkRect("BLOCKAGE", b.rect, b.line);
        design.grid.addBlockage(b.rect, b.layer, b.remaining);
    }
    if (viaCap >= 0) {
        design.grid.setViaCapacity(viaCap);
        for (const ViaBlockage& b : viaBlockages) {
            checkRect("VIABLOCKAGE", b.rect, b.line);
            design.grid.addViaBlockage(b.rect, b.remaining);
        }
    } else if (!viaBlockages.empty()) {
        fail("VIABLOCKAGE without VIACAP");
    }
    for (PendingGroup& pg : groups) {
        if (static_cast<int>(pg.bits.size()) != pg.expectedBits) {
            fail("group " + pg.name + " bit count mismatch: declared " +
                     std::to_string(pg.expectedBits) + ", found " +
                     std::to_string(pg.bits.size()),
                 pg.line);
        }
        SignalGroup g;
        g.name = std::move(pg.name);
        for (PendingBit& pb : pg.bits) {
            if (static_cast<int>(pb.pins.size()) != pb.expectedPins) {
                fail("bit " + pb.name + " pin count mismatch: declared " +
                         std::to_string(pb.expectedPins) + ", found " +
                         std::to_string(pb.pins.size()),
                     pb.line);
            }
            if (pb.driver < 0 ||
                pb.driver >= static_cast<int>(pb.pins.size())) {
                fail("bit " + pb.name + " driver out of range", pb.line);
            }
            g.bits.push_back(
                {std::move(pb.name), std::move(pb.pins), pb.driver});
        }
        design.groups.push_back(std::move(g));
    }
    return design;
}

Design readDesignFile(const std::string& path) {
    std::ifstream is(path);
    if (!is) {
        robust::StreakError err;
        err.kind = robust::ErrorKind::InvalidInput;
        err.site = "io/read";
        err.message = "readDesignFile: cannot open " + path;
        robust::raise(std::move(err));
    }
    return readDesign(is);
}

}  // namespace streak::io
