#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "gen/generator.hpp"
#include "io/design_io.hpp"
#include "io/heatmap.hpp"
#include "io/table.hpp"
#include "obs/trace.hpp"
#include "robust/error.hpp"
#include "test_util.hpp"

namespace streak::io {
namespace {

TEST(DesignIo, RoundTripPreservesEverything) {
    const Design original = gen::makeSynth(1);
    std::stringstream ss;
    writeDesign(original, ss);
    const Design loaded = readDesign(ss);

    ASSERT_EQ(loaded.numGroups(), original.numGroups());
    ASSERT_EQ(loaded.numNets(), original.numNets());
    EXPECT_EQ(loaded.grid.width(), original.grid.width());
    EXPECT_EQ(loaded.grid.height(), original.grid.height());
    EXPECT_EQ(loaded.grid.numLayers(), original.grid.numLayers());
    for (int e = 0; e < original.grid.numEdges(); ++e) {
        EXPECT_EQ(loaded.grid.capacity(e), original.grid.capacity(e));
    }
    for (int g = 0; g < original.numGroups(); ++g) {
        const SignalGroup& og = original.groups[static_cast<size_t>(g)];
        const SignalGroup& lg = loaded.groups[static_cast<size_t>(g)];
        EXPECT_EQ(lg.name, og.name);
        for (int k = 0; k < og.width(); ++k) {
            EXPECT_EQ(lg.bits[static_cast<size_t>(k)].pins,
                      og.bits[static_cast<size_t>(k)].pins);
            EXPECT_EQ(lg.bits[static_cast<size_t>(k)].driver,
                      og.bits[static_cast<size_t>(k)].driver);
        }
    }
}

TEST(DesignIo, RejectsBadHeader) {
    std::stringstream ss("NOTSTREAK 1\nGRID 4 4 2 1\n");
    EXPECT_THROW(readDesign(ss), std::runtime_error);
}

TEST(DesignIo, RejectsMissingGrid) {
    std::stringstream ss("STREAK 1\nGROUP g 0\n");
    EXPECT_THROW(readDesign(ss), std::runtime_error);
}

TEST(DesignIo, RejectsPinCountMismatch) {
    std::stringstream ss(
        "STREAK 1\nGRID 8 8 2 4\nGROUP g 1\nBIT b 2 0\nPIN 1 1\n");
    EXPECT_THROW(readDesign(ss), std::runtime_error);
}

TEST(DesignIo, RejectsDriverOutOfRange) {
    std::stringstream ss(
        "STREAK 1\nGRID 8 8 2 4\nGROUP g 1\nBIT b 1 3\nPIN 1 1\n");
    EXPECT_THROW(readDesign(ss), std::runtime_error);
}

TEST(DesignIo, SkipsComments) {
    std::stringstream ss(
        "# leading comment\nSTREAK 1\n# another\nGRID 8 8 2 4\n");
    const Design d = readDesign(ss);
    EXPECT_EQ(d.grid.width(), 8);
    EXPECT_EQ(d.numGroups(), 0);
}


TEST(DesignIo, ViaModelRoundTrip) {
    Design original = gen::makeSynth(1);
    original.grid.setViaCapacity(6);
    original.grid.addViaBlockage({{4, 4}, {8, 8}}, 2);
    std::stringstream ss;
    writeDesign(original, ss);
    const Design loaded = readDesign(ss);
    ASSERT_TRUE(loaded.grid.viaLimited());
    for (int c = 0; c < original.grid.numCells(); ++c) {
        EXPECT_EQ(loaded.grid.viaCapacity(c), original.grid.viaCapacity(c));
    }
}

TEST(DesignIo, ViaBlockageWithoutCapIsRejected) {
    std::stringstream ss(
        "STREAK 1\nGRID 8 8 2 4\nVIABLOCKAGE 1 1 2 2 0\n");
    EXPECT_THROW(readDesign(ss), std::runtime_error);
}

TEST(DesignIo, TruncatedRecordReportsLineAndColumn) {
    // GRID on line 2 is cut off after the height: the error must name
    // the line and point past the last parsed character.
    std::stringstream ss("STREAK 1\nGRID 8 8\n");
    try {
        (void)readDesign(ss);
        FAIL() << "expected a parse error";
    } catch (const robust::StreakException& e) {
        EXPECT_EQ(e.error().kind, robust::ErrorKind::InvalidInput);
        EXPECT_EQ(e.error().site, "io/read");
        const std::string what = e.what();
        EXPECT_NE(what.find("bad GRID line"), std::string::npos) << what;
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
        EXPECT_NE(what.find("column 9"), std::string::npos) << what;
    }
}

TEST(DesignIo, CorruptedFieldReportsLineAndColumn) {
    // The BIT pin count on line 4 is not a number; tellg() stops at the
    // space before it (column 6: after "BIT b").
    std::stringstream ss(
        "STREAK 1\nGRID 8 8 2 4\nGROUP g 1\nBIT b garbage 0\nPIN 1 1\n");
    try {
        (void)readDesign(ss);
        FAIL() << "expected a parse error";
    } catch (const robust::StreakException& e) {
        EXPECT_EQ(e.error().kind, robust::ErrorKind::InvalidInput);
        const std::string what = e.what();
        EXPECT_NE(what.find("bad BIT line"), std::string::npos) << what;
        EXPECT_NE(what.find("line 4"), std::string::npos) << what;
        EXPECT_NE(what.find("column"), std::string::npos) << what;
    }
}

TEST(DesignIo, CountMismatchReportsDeclaringLine) {
    // BIT on line 4 declares 2 pins but only 1 follows; the error points
    // back at the declaring record, not at end-of-file.
    std::stringstream ss(
        "STREAK 1\nGRID 8 8 2 4\nGROUP g 1\nBIT b 2 0\nPIN 1 1\n");
    try {
        (void)readDesign(ss);
        FAIL() << "expected a parse error";
    } catch (const robust::StreakException& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("pin count mismatch"), std::string::npos) << what;
        EXPECT_NE(what.find("declared 2, found 1"), std::string::npos) << what;
        EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    }
}

// Every record that sizes the grid or walks a rectangle is bounded the
// way the checkpoint reader bounds it (grid::kMaxDim and friends).
TEST(DesignIo, OutOfRangeRecordsAreInvalidInputWithTheirLine) {
    const auto expectRejected = [](const std::string& body,
                                   const std::string& what) {
        std::stringstream ss("STREAK 1\n" + body);
        const obs::Stopwatch watch;
        try {
            (void)readDesign(ss);
            ADD_FAILURE() << "accepted: " << body;
        } catch (const robust::StreakException& e) {
            EXPECT_EQ(e.error().kind, robust::ErrorKind::InvalidInput);
            const std::string msg = e.what();
            EXPECT_NE(msg.find(what), std::string::npos) << msg;
            // The offending record is the last line of `body`.
            const long line = 1 + std::count(body.begin(), body.end(), '\n');
            EXPECT_NE(msg.find("line " + std::to_string(line)),
                      std::string::npos)
                << msg;
        }
        // Rejected before any rectangle is walked.
        EXPECT_LT(watch.seconds(), 1.0) << body;
    };
    expectRejected("GRID 1 8 4 4\n", "grid dimensions out of range");
    expectRejected("GRID 8 9000 4 4\n", "grid dimensions out of range");
    expectRejected("GRID 8 8 99 4\n", "layer count out of range");
    expectRejected("GRID 8 8 4 -1\n", "default capacity out of range");
    expectRejected("GRID 8192 8192 64 4\n", "edge count out of range");
    expectRejected("GRID 8 8 4 4\nVIACAP 2000000\n",
                   "VIACAP: capacity 2000000 out of range");
    expectRejected("GRID 8 8 4 4\nBLOCKAGE 0 0 3 3 99 1\n",
                   "BLOCKAGE: layer 99 out of range");
    expectRejected("GRID 8 8 4 4\nBLOCKAGE 0 0 40000 40000 0 1\n",
                   "BLOCKAGE: rectangle outside the 8x8 grid");
    expectRejected("GRID 8 8 4 4\nBLOCKAGE 3 3 0 0 0 1\n",
                   "BLOCKAGE: empty rectangle");
    expectRejected("GRID 8 8 4 4\nBLOCKAGE 0 0 3 3 0 -5\n",
                   "BLOCKAGE: capacity -5 out of range");
    expectRejected("GRID 8 8 4 4\nVIACAP 4\nVIABLOCKAGE 0 0 9 9 1\n",
                   "VIABLOCKAGE: rectangle outside the 8x8 grid");
    expectRejected("GRID 8 8 4 4\nVIACAP 4\nVIABLOCKAGE 0 0 1 1 -2\n",
                   "VIABLOCKAGE: capacity -2 out of range");
}

TEST(DesignIo, MissingFileIsInvalidInput) {
    try {
        (void)readDesignFile("/nonexistent/design.streak");
        FAIL() << "expected an error";
    } catch (const robust::StreakException& e) {
        EXPECT_EQ(e.error().kind, robust::ErrorKind::InvalidInput);
        EXPECT_NE(std::string(e.what()).find("cannot open"),
                  std::string::npos);
    }
}

TEST(Heatmap, CongestionGridReflectsUsage) {
    grid::RoutingGrid g(8, 8, 2, 4);
    grid::EdgeUsage usage(g);
    usage.add(g.edgeId(0, 3, 5), 2);
    const auto cells = congestionGrid(usage);
    EXPECT_DOUBLE_EQ(cells[5][3], 0.5);
    EXPECT_DOUBLE_EQ(cells[0][0], 0.0);
}

TEST(Heatmap, OverflowShowsAsX) {
    grid::RoutingGrid g(8, 8, 2, 2);
    grid::EdgeUsage usage(g);
    usage.add(g.edgeId(0, 3, 5), 5);
    std::stringstream ss;
    writeAsciiHeatmap(usage, ss);
    EXPECT_NE(ss.str().find('X'), std::string::npos);
}

TEST(Heatmap, CsvHasHeaderAndAllCells) {
    grid::RoutingGrid g(4, 3, 2, 2);
    grid::EdgeUsage usage(g);
    std::stringstream ss;
    writeCsvHeatmap(usage, ss);
    std::string line;
    int lines = 0;
    while (std::getline(ss, line)) ++lines;
    EXPECT_EQ(lines, 1 + 4 * 3);
}

TEST(Table, AlignsColumns) {
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    std::stringstream ss;
    t.print(ss);
    const std::string out = ss.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("|-"), std::string::npos);
}

TEST(Table, Formatters) {
    EXPECT_EQ(Table::percent(0.9934), "99.34%");
    EXPECT_EQ(Table::percent(1.0, 0), "100%");
    EXPECT_EQ(Table::fixed(7.005, 2), "7.00");  // round-to-even friendly
}

}  // namespace
}  // namespace streak::io
