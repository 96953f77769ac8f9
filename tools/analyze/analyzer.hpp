// Rule engine of the static-analysis subsystem (DESIGN.md "Static
// analysis"). Runs two kinds of passes over lexed sources:
//
//  - token rules: the seven project lint rules (banned functions, raw
//    new/delete, pragma once, relative includes, float equality, bare
//    assert, raw timing), the determinism rule pack (unordered-container
//    iteration, pointer-keyed containers, thread-identity state, raw
//    randomness), and the robustness pack (catch-all handlers outside
//    the infrastructure modules, ad-hoc throws in flow code),
//  - the include-graph pass: module layering against the DAG declared in
//    tools/analyze/layers.txt.
//
// Findings on a line carrying an `analyze-ok` waiver comment naming the
// rule are suppressed; waivers that suppress nothing are themselves
// findings, so stale markers cannot accumulate. The legacy `lint-ok`
// marker spelling is honoured as an alias.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/lexer.hpp"

namespace streak::analyze {

struct Finding {
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
};

struct RuleInfo {
    std::string_view id;
    std::string_view summary;
};

/// Every rule the analyzer can emit, in stable catalog order (this is
/// also the `tool.driver.rules` array of the SARIF export).
[[nodiscard]] const std::vector<RuleInfo>& ruleCatalog();

/// One source file handed to the analyzer. `path` is the name used in
/// findings and module mapping; slashes must be forward.
struct SourceFile {
    std::string path;
    LexedSource lexed;
};

/// Module layering declarations parsed from layers.txt.
struct LayerSpec {
    std::string file;  // where the spec came from, for findings
    /// module -> modules its files may include (directed edges).
    std::map<std::string, std::set<std::string>> allowed;
    /// path-prefix overrides: files/includes matching a prefix belong to
    /// the named module instead of their directory module.
    std::vector<std::pair<std::string, std::string>> overrides;
    /// per-file waivers: (src-relative file path, target module).
    std::vector<std::pair<std::string, std::string>> exceptions;
};

/// Parse layers.txt. Returns false and sets *error on malformed input.
[[nodiscard]] bool parseLayerSpec(std::string_view text, std::string file,
                                  LayerSpec* spec, std::string* error);

/// Every token rule always runs, and waivers that suppress nothing are
/// always reported; only the layering pass is optional.
struct AnalyzerOptions {
    bool layering = true;  // requires `layers`
    /// Marker words that introduce a suppression in a comment.
    std::vector<std::string> markers = {"analyze-ok", "lint-ok"};
};

/// Run all enabled passes over the file set; returns findings sorted by
/// (file, line, rule). `layers` may be null when layering is disabled.
[[nodiscard]] std::vector<Finding> analyze(const std::vector<SourceFile>& files,
                                           const LayerSpec* layers,
                                           const AnalyzerOptions& opts);

/// The `src/`-relative form of a path: everything after the last "src/"
/// component, or empty when the path is not under a src tree (such files
/// are exempt from layering but still see every token rule).
[[nodiscard]] std::string srcRelative(std::string_view path);

}  // namespace streak::analyze
