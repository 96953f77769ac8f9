// streak_analyze — token-level determinism and layering analyzer
// (DESIGN.md "Static analysis"). Registered as a ctest and run as
// check.sh stage 8 over src/ and tools/.
//
// Usage:
//   streak_analyze [--layers <layers.txt>] [--sarif <out.json>]
//                  [--no-layering] <dir-or-file>...
//
// Exits 1 on any finding (unused suppression markers included), 2 on
// usage or configuration errors. Findings print in the classic
// file:line: [rule] message form; --sarif additionally writes the full
// SARIF 2.1 document (written even when clean, so CI always has the
// artifact).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/sarif.hpp"

namespace {

namespace fs = std::filesystem;
using namespace streak::analyze;

bool readFile(const fs::path& p, std::string* out) {
    std::ifstream in(p, std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = std::move(ss).str();
    return true;
}

int usage() {
    std::cerr << "usage: streak_analyze [--layers <layers.txt>] "
                 "[--sarif <out.json>] [--no-layering] <dir-or-file>...\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    AnalyzerOptions opts;
    std::string layersPath;
    std::string sarifPath;
    std::vector<fs::path> roots;
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        if (arg == "--layers" && a + 1 < argc) {
            layersPath = argv[++a];
        } else if (arg == "--sarif" && a + 1 < argc) {
            sarifPath = argv[++a];
        } else if (arg == "--no-layering") {
            opts.layering = false;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            roots.emplace_back(arg);
        }
    }
    if (roots.empty()) return usage();
    if (opts.layering && layersPath.empty()) {
        std::cerr << "streak_analyze: --layers is required unless "
                     "--no-layering is given\n";
        return 2;
    }

    std::vector<fs::path> paths;
    for (const fs::path& root : roots) {
        if (!fs::exists(root)) {
            std::cerr << "streak_analyze: no such path: " << root << "\n";
            return 2;
        }
        if (fs::is_regular_file(root)) {
            paths.push_back(root);
            continue;
        }
        for (const auto& entry : fs::recursive_directory_iterator(root)) {
            if (!entry.is_regular_file()) continue;
            const fs::path& p = entry.path();
            if (p.extension() == ".hpp" || p.extension() == ".cpp") {
                paths.push_back(p);
            }
        }
    }
    std::sort(paths.begin(), paths.end());
    paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

    std::vector<SourceFile> files;
    files.reserve(paths.size());
    for (const fs::path& p : paths) {
        std::string text;
        if (!readFile(p, &text)) {
            std::cerr << "streak_analyze: could not read " << p << "\n";
            return 2;
        }
        files.push_back({p.generic_string(), lex(text)});
    }

    LayerSpec layers;
    if (opts.layering) {
        std::string text;
        if (!readFile(layersPath, &text)) {
            std::cerr << "streak_analyze: could not read layers file "
                      << layersPath << "\n";
            return 2;
        }
        std::string error;
        if (!parseLayerSpec(text, layersPath, &layers, &error)) {
            std::cerr << "streak_analyze: " << error << "\n";
            return 2;
        }
    }

    const std::vector<Finding> findings =
        analyze(files, opts.layering ? &layers : nullptr, opts);

    if (!sarifPath.empty()) {
        std::ofstream out(sarifPath, std::ios::binary);
        if (!out) {
            std::cerr << "streak_analyze: could not write " << sarifPath
                      << "\n";
            return 2;
        }
        sarifDocument(findings).write(out, 2);
        out << "\n";
    }

    for (const Finding& f : findings) {
        std::cerr << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message << "\n";
    }
    if (!findings.empty()) {
        std::cerr << "streak_analyze: " << findings.size() << " finding(s) in "
                  << files.size() << " files\n";
        return 1;
    }
    std::cout << "streak_analyze: " << files.size() << " files clean\n";
    return 0;
}
