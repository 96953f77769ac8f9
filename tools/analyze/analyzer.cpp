#include "analyze/analyzer.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <tuple>

namespace streak::analyze {

namespace {

// ---------------------------------------------------------------------
// Rule catalog

const std::vector<RuleInfo> kCatalog = {
    {"banned-function",
     "std::rand / srand and the printf family have no place in library code"},
    {"raw-new-delete",
     "no raw new / delete; own memory via containers or smart pointers"},
    {"pragma-once", "every header starts its include guard life as #pragma once"},
    {"relative-include",
     "#include \"../...\" bypasses module boundaries; use the "
     "module-qualified path from src/"},
    {"float-equality",
     "== / != against a floating literal needs an epsilon helper"},
    {"bare-assert",
     "use STREAK_ASSERT / STREAK_REQUIRE instead of <cassert>"},
    {"raw-timing",
     "raw std::chrono clock reads outside src/obs and src/parallel"},
    {"unordered-iteration",
     "iteration over an unordered container; order can escape into results"},
    {"pointer-keyed", "container keyed by raw pointer value"},
    {"thread-state",
     "thread-identity or thread_local state outside src/parallel and src/obs"},
    {"nondet-random",
     "std::random_device or unseeded random engine outside src/gen"},
    {"catch-all",
     "catch (...) outside src/parallel and src/robust swallows trips and "
     "faults"},
    {"flow-throw",
     "src/flow may only throw robust::StreakException; ad-hoc types bypass "
     "the structured-error contract"},
    {"layering", "include edge not declared in the module layering DAG"},
    {"unused-suppression", "suppression marker that suppresses nothing"},
};

bool knownRule(std::string_view id) {
    return std::any_of(kCatalog.begin(), kCatalog.end(),
                       [&](const RuleInfo& r) { return r.id == id; });
}

/// Historic marker spellings that map onto a catalog rule.
std::string canonicalRule(std::string name) {
    if (name == "float-eq") return "float-equality";
    return name;
}

// ---------------------------------------------------------------------
// Suppression markers

struct Marker {
    int line = 0;
    std::string rule;
    bool known = false;
    bool used = false;
};

bool isRuleNameChar(char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
}

/// Collect `<marker>: rule[, rule...]` waivers from a file's comments.
std::vector<Marker> collectMarkers(const LexedSource& lexed,
                                   const std::vector<std::string>& words) {
    std::vector<Marker> out;
    for (const Comment& c : lexed.comments) {
        for (const std::string& word : words) {
            const std::string needle = word + ":";
            for (size_t at = c.text.find(needle); at != std::string::npos;
                 at = c.text.find(needle, at + 1)) {
                const int line =
                    c.line + static_cast<int>(std::count(
                                 c.text.begin(),
                                 c.text.begin() + static_cast<long>(at), '\n'));
                size_t p = at + needle.size();
                // One or more rule names, comma or whitespace separated;
                // anything else ends the list (prose rationale may follow).
                bool any = false;
                while (p < c.text.size()) {
                    while (p < c.text.size() &&
                           (c.text[p] == ' ' || (any && c.text[p] == ','))) {
                        ++p;
                    }
                    const size_t begin = p;
                    while (p < c.text.size() && isRuleNameChar(c.text[p])) ++p;
                    if (p == begin) break;
                    Marker m;
                    m.line = line;
                    m.rule = canonicalRule(c.text.substr(begin, p - begin));
                    m.known = knownRule(m.rule);
                    out.push_back(std::move(m));
                    any = true;
                    if (p >= c.text.size() || c.text[p] != ',') break;
                }
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Token-rule helpers

struct FileContext {
    const SourceFile* file = nullptr;
    std::string srcRel;              // empty outside a src tree
    bool isHeader = false;
    bool timingExempt = false;       // src/obs, src/parallel
    bool threadExempt = false;       // src/obs, src/parallel
    bool randomExempt = false;       // src/gen
    bool catchAllExempt = false;     // src/parallel, src/robust
    bool inFlow = false;             // src/flow
    const std::set<std::string>* unorderedVars = nullptr;   // this file + header
    const std::set<std::string>* unorderedFns = nullptr;    // global
};

bool startsWith(std::string_view s, std::string_view prefix) {
    return s.substr(0, prefix.size()) == prefix;
}

bool isPunct(const Token& t, std::string_view text) {
    return t.kind == TokKind::Punct && t.text == text;
}

bool isIdent(const Token& t, std::string_view text) {
    return t.kind == TokKind::Identifier && t.text == text;
}

/// Index just past a balanced template argument list; `i` points at the
/// opening '<'. Merged '>>' closes two levels.
size_t skipTemplateArgs(const std::vector<Token>& toks, size_t i) {
    int depth = 0;
    for (; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Punct) continue;
        if (toks[i].text == "<") ++depth;
        if (toks[i].text == ">") --depth;
        if (toks[i].text == ">>") depth -= 2;
        if (depth <= 0 && toks[i].text != "<") return i + 1;
    }
    return i;
}

/// Names declared with an unordered container type in one file, split by
/// whether the declared entity is callable (function) or not (variable).
struct UnorderedDecls {
    std::set<std::string> vars;
    std::set<std::string> fns;
};

UnorderedDecls collectUnorderedDecls(const LexedSource& lexed) {
    UnorderedDecls out;
    const std::vector<Token>& toks = lexed.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Identifier) continue;
        const std::string& t = toks[i].text;
        if (t != "unordered_map" && t != "unordered_set" &&
            t != "unordered_multimap" && t != "unordered_multiset") {
            continue;
        }
        if (!isPunct(toks[i + 1], "<")) continue;
        size_t j = skipTemplateArgs(toks, i + 1);
        while (j < toks.size() &&
               (isPunct(toks[j], "&") || isPunct(toks[j], "*") ||
                isIdent(toks[j], "const"))) {
            ++j;
        }
        if (j >= toks.size() || toks[j].kind != TokKind::Identifier) continue;
        const bool call = j + 1 < toks.size() && isPunct(toks[j + 1], "(");
        (call ? out.fns : out.vars).insert(toks[j].text);
    }
    return out;
}

class TokenRulePass {
public:
    TokenRulePass(const FileContext& ctx, std::vector<Finding>* out)
        : ctx_(ctx), out_(out) {}

    void run() {
        const LexedSource& lexed = ctx_.file->lexed;
        if (ctx_.isHeader && !lexed.pragmaOnce) {
            add(1, "pragma-once", "header is missing #pragma once");
        }
        for (const IncludeDirective& inc : lexed.includes) {
            if (!inc.angled && (startsWith(inc.path, "../") ||
                                startsWith(inc.path, "./"))) {
                add(inc.line, "relative-include",
                    "relative include bypasses module boundaries; use "
                    "the module-qualified path");
            }
            if (inc.angled &&
                (inc.path == "cassert" || inc.path == "assert.h")) {
                add(inc.line, "bare-assert",
                    "bare assert() reports no context; use STREAK_ASSERT "
                    "/ STREAK_REQUIRE / STREAK_INVARIANT");
            }
        }
        const std::vector<Token>& toks = lexed.tokens;
        for (size_t i = 0; i < toks.size(); ++i) {
            runLegacyAt(toks, i);
            runDeterminismAt(toks, i);
            runRobustnessAt(toks, i);
        }
    }

private:
    void add(int line, std::string rule, std::string message) {
        out_->push_back(
            {ctx_.file->path, line, std::move(rule), std::move(message)});
    }

    [[nodiscard]] static bool floatLiteral(const Token& t) {
        return t.kind == TokKind::Number &&
               t.text.find('.') != std::string::npos;
    }

    void runLegacyAt(const std::vector<Token>& toks, size_t i) {
        const Token& tok = toks[i];
        if (tok.kind == TokKind::Identifier) {
            for (const char* banned :
                 {"printf", "fprintf", "sprintf", "snprintf", "srand"}) {
                if (tok.text == banned) {
                    add(tok.line, "banned-function",
                        tok.text + " is banned in library code");
                }
            }
            if (tok.text == "rand" && i >= 2 && isPunct(toks[i - 1], "::") &&
                isIdent(toks[i - 2], "std")) {
                add(tok.line, "banned-function",
                    "std::rand is banned (non-deterministic seeding, "
                    "poor distribution)");
            }
            if (tok.text == "new") {
                add(tok.line, "raw-new-delete",
                    "raw new is banned; use containers or smart pointers");
            }
            if (tok.text == "delete" &&
                (i == 0 || !isPunct(toks[i - 1], "="))) {
                add(tok.line, "raw-new-delete",
                    "raw delete is banned; use containers or smart pointers");
            }
            if (tok.text == "assert" &&
                (i == 0 || (!isPunct(toks[i - 1], ".") &&
                            !isPunct(toks[i - 1], "->") &&
                            !isPunct(toks[i - 1], "::")))) {
                add(tok.line, "bare-assert",
                    "bare assert() reports no context; use STREAK_ASSERT / "
                    "STREAK_REQUIRE / STREAK_INVARIANT");
            }
            if (!ctx_.timingExempt) {
                for (const char* clock : {"steady_clock",
                                          "high_resolution_clock",
                                          "system_clock"}) {
                    if (tok.text == clock) {
                        add(tok.line, "raw-timing",
                            tok.text + " outside src/obs and src/parallel; "
                                       "time through obs::Stopwatch or spans");
                    }
                }
            }
        }
        if (tok.kind == TokKind::Punct &&
            (tok.text == "==" || tok.text == "!=")) {
            const bool lhs = i > 0 && floatLiteral(toks[i - 1]);
            const bool rhs = i + 1 < toks.size() && floatLiteral(toks[i + 1]);
            if (lhs || rhs) {
                add(tok.line, "float-equality",
                    "== / != against a float literal; use check::approxEqual "
                    "or waive with the float-equality marker");
            }
        }
    }

    void runDeterminismAt(const std::vector<Token>& toks, size_t i) {
        const Token& tok = toks[i];
        if (tok.kind != TokKind::Identifier) return;

        if (tok.text == "for" && i + 1 < toks.size() &&
            isPunct(toks[i + 1], "(")) {
            checkRangeFor(toks, i);
        }

        // std::map / std::set / std::unordered_* keyed by a raw pointer.
        if (tok.text == "std" && i + 3 < toks.size() &&
            isPunct(toks[i + 1], "::") &&
            toks[i + 2].kind == TokKind::Identifier &&
            isPunct(toks[i + 3], "<")) {
            const std::string& c = toks[i + 2].text;
            if (c == "map" || c == "multimap" || c == "set" ||
                c == "multiset" || c == "unordered_map" ||
                c == "unordered_set" || c == "unordered_multimap" ||
                c == "unordered_multiset") {
                checkPointerKey(toks, i + 3, c);
            }
        }

        if (!ctx_.threadExempt) {
            if (tok.text == "thread_local") {
                add(tok.line, "thread-state",
                    "thread_local state outside src/parallel and src/obs; "
                    "results must not depend on which thread ran the work");
            }
            if (tok.text == "this_thread") {
                add(tok.line, "thread-state",
                    "std::this_thread (thread identity) outside src/parallel "
                    "and src/obs; results must not depend on thread ids");
            }
        }

        if (!ctx_.randomExempt) {
            if (tok.text == "random_device") {
                add(tok.line, "nondet-random",
                    "std::random_device outside src/gen; all randomness "
                    "flows from explicit seeds");
            }
            for (const char* engine :
                 {"mt19937", "mt19937_64", "default_random_engine",
                  "minstd_rand", "minstd_rand0", "ranlux24", "ranlux48",
                  "knuth_b"}) {
                if (tok.text != engine) continue;
                // `engine name;` or `engine name{}` is default-seeded.
                if (i + 2 < toks.size() &&
                    toks[i + 1].kind == TokKind::Identifier &&
                    (isPunct(toks[i + 2], ";") ||
                     (i + 3 < toks.size() && isPunct(toks[i + 2], "{") &&
                      isPunct(toks[i + 3], "}")))) {
                    add(tok.line, "nondet-random",
                        std::string("unseeded std::") + engine +
                            " outside src/gen; construct engines from an "
                            "explicit seed");
                }
            }
        }
    }

    void runRobustnessAt(const std::vector<Token>& toks, size_t i) {
        const Token& tok = toks[i];
        if (tok.kind != TokKind::Identifier) return;

        if (!ctx_.catchAllExempt && tok.text == "catch" &&
            i + 2 < toks.size() && isPunct(toks[i + 1], "(") &&
            isPunct(toks[i + 2], "...")) {
            add(tok.line, "catch-all",
                "catch (...) outside src/parallel and src/robust swallows "
                "cancellation and fault trips; catch robust::StreakException "
                "or a concrete type");
        }

        if (ctx_.inFlow && tok.text == "throw") {
            // `throw;` rethrows the active exception unchanged — fine.
            // Otherwise the thrown expression must mention
            // StreakException; anything else escapes runStreak as a raw
            // foreign exception instead of a structured StreakError.
            if (i + 1 < toks.size() && isPunct(toks[i + 1], ";")) return;
            bool structured = false;
            for (size_t j = i + 1; j < toks.size() && j <= i + 6; ++j) {
                if (isPunct(toks[j], ";") || isPunct(toks[j], "(")) break;
                if (isIdent(toks[j], "StreakException")) structured = true;
            }
            if (!structured) {
                add(tok.line, "flow-throw",
                    "src/flow throws a non-StreakError type; raise a "
                    "structured error (robust::StreakException) so callers "
                    "see kind/stage/site");
            }
        }
    }

    /// Flag `for (decl : range)` when the range expression mentions a name
    /// declared as an unordered container (this file or its header) or
    /// calls a function known to return one.
    void checkRangeFor(const std::vector<Token>& toks, size_t forIdx) {
        int depth = 0;
        size_t colon = 0;
        size_t close = 0;
        for (size_t i = forIdx + 1; i < toks.size(); ++i) {
            if (isPunct(toks[i], "(")) ++depth;
            if (isPunct(toks[i], ")")) {
                --depth;
                if (depth == 0) {
                    close = i;
                    break;
                }
            }
            if (depth == 1 && colon == 0 && isPunct(toks[i], ":")) colon = i;
        }
        if (colon == 0 || close == 0) return;  // classic for
        for (size_t i = colon + 1; i < close; ++i) {
            if (toks[i].kind != TokKind::Identifier) continue;
            const bool isVar = ctx_.unorderedVars != nullptr &&
                               ctx_.unorderedVars->contains(toks[i].text);
            const bool isCall = ctx_.unorderedFns != nullptr &&
                                ctx_.unorderedFns->contains(toks[i].text) &&
                                i + 1 < close && isPunct(toks[i + 1], "(");
            if (isVar || isCall) {
                add(toks[forIdx].line, "unordered-iteration",
                    "iterates unordered container '" + toks[i].text +
                        "'; iteration order is STL-specific — iterate a "
                        "sorted view, or waive where order cannot escape");
                return;
            }
        }
    }

    /// `i` points at the '<' after the container name: inspect the first
    /// template argument for a raw pointer declarator.
    void checkPointerKey(const std::vector<Token>& toks, size_t i,
                         const std::string& container) {
        int depth = 0;
        for (size_t j = i; j < toks.size(); ++j) {
            if (toks[j].kind != TokKind::Punct) continue;
            if (toks[j].text == "<") ++depth;
            if (toks[j].text == ">") --depth;
            if (toks[j].text == ">>") depth -= 2;
            if (depth <= 0) return;  // first argument ended without '*'
            if (depth == 1 && toks[j].text == ",") return;
            if (toks[j].text == "*") {
                add(toks[i].line, "pointer-keyed",
                    "std::" + container + " keyed by raw pointer value; "
                    "ordering/hashing by address is nondeterministic across "
                    "runs — key by a stable id");
                return;
            }
        }
    }

    const FileContext& ctx_;
    std::vector<Finding>* out_;
};

// ---------------------------------------------------------------------
// Layering pass

std::string moduleOf(std::string_view srcRel, const LayerSpec& spec) {
    for (const auto& [prefix, module] : spec.overrides) {
        if (startsWith(srcRel, prefix)) return module;
    }
    const size_t slash = srcRel.find('/');
    if (slash == std::string_view::npos) return "";
    return std::string(srcRel.substr(0, slash));
}

/// Cycle detection over the declared edges; returns one cycle's modules
/// in order, or empty when the declaration is a DAG.
std::vector<std::string> findCycle(const LayerSpec& spec) {
    std::map<std::string, int> state;  // 0 new, 1 on stack, 2 done
    std::vector<std::string> stack;
    std::vector<std::string> cycle;
    const std::function<bool(const std::string&)> visit =
        [&](const std::string& m) {
            state[m] = 1;
            stack.push_back(m);
            const auto it = spec.allowed.find(m);
            if (it != spec.allowed.end()) {
                for (const std::string& dep : it->second) {
                    const int s = state[dep];
                    if (s == 1) {
                        const auto at =
                            std::find(stack.begin(), stack.end(), dep);
                        cycle.assign(at, stack.end());
                        cycle.push_back(dep);
                        return true;
                    }
                    if (s == 0 && visit(dep)) return true;
                }
            }
            state[m] = 2;
            stack.pop_back();
            return false;
        };
    for (const auto& [m, deps] : spec.allowed) {
        if (state[m] == 0 && visit(m)) break;
    }
    return cycle;
}

void runLayering(const std::vector<SourceFile>& files, const LayerSpec& spec,
                 std::vector<Finding>* out) {
    if (const std::vector<std::string> cycle = findCycle(spec);
        !cycle.empty()) {
        std::ostringstream os;
        os << "declared layering has a cycle: ";
        for (size_t i = 0; i < cycle.size(); ++i) {
            if (i != 0) os << " -> ";
            os << cycle[i];
        }
        out->push_back({spec.file, 1, "layering", os.str()});
        return;  // edge checks against a cyclic spec prove nothing
    }

    std::vector<bool> exceptionUsed(spec.exceptions.size(), false);
    std::set<std::string> undeclaredModules;
    std::map<std::string, std::string> moduleExample;  // module -> a file

    for (const SourceFile& f : files) {
        const std::string srcRel = srcRelative(f.path);
        if (srcRel.empty()) continue;  // outside any src tree
        const std::string from = moduleOf(srcRel, spec);
        if (from.empty()) continue;
        const auto declared = spec.allowed.find(from);
        if (declared == spec.allowed.end()) {
            if (undeclaredModules.insert(from).second) {
                moduleExample.emplace(from, f.path);
            }
            continue;  // every edge from it would be noise
        }
        for (const IncludeDirective& inc : f.lexed.includes) {
            if (inc.angled) continue;
            const std::string to = moduleOf(inc.path, spec);
            if (to.empty() || to == from) continue;
            if (declared->second.contains(to)) continue;
            bool excepted = false;
            for (size_t e = 0; e < spec.exceptions.size(); ++e) {
                if (spec.exceptions[e].first == srcRel &&
                    spec.exceptions[e].second == to) {
                    exceptionUsed[e] = true;
                    excepted = true;
                }
            }
            if (excepted) continue;
            out->push_back(
                {f.path, inc.line, "layering",
                 "include of \"" + inc.path + "\" adds edge " + from +
                     " -> " + to + " not declared in " + spec.file});
        }
    }

    for (const std::string& m : undeclaredModules) {
        out->push_back({moduleExample[m], 1, "layering",
                        "module '" + m + "' has no layering declaration in " +
                            spec.file});
    }
    for (size_t e = 0; e < spec.exceptions.size(); ++e) {
        if (!exceptionUsed[e]) {
            out->push_back(
                {spec.file, 1, "layering",
                 "unused layering exception: " + spec.exceptions[e].first +
                     " -> " + spec.exceptions[e].second +
                     " (remove it so waivers cannot rot)"});
        }
    }
}

}  // namespace

// ---------------------------------------------------------------------
// Public interface

const std::vector<RuleInfo>& ruleCatalog() { return kCatalog; }

std::string srcRelative(std::string_view path) {
    size_t best = std::string_view::npos;
    for (size_t at = path.find("src/"); at != std::string_view::npos;
         at = path.find("src/", at + 1)) {
        if (at == 0 || path[at - 1] == '/') best = at;
    }
    if (best == std::string_view::npos) return "";
    return std::string(path.substr(best + 4));
}

bool parseLayerSpec(std::string_view text, std::string file, LayerSpec* spec,
                    std::string* error) {
    spec->file = std::move(file);
    std::istringstream in{std::string(text)};
    std::string line;
    int no = 0;
    const auto fail = [&](const std::string& why) {
        if (error != nullptr) {
            *error = spec->file + ":" + std::to_string(no) + ": " + why;
        }
        return false;
    };
    while (std::getline(in, line)) {
        ++no;
        if (const size_t hash = line.find('#'); hash != std::string::npos) {
            line.erase(hash);
        }
        std::istringstream words(line);
        std::string first;
        if (!(words >> first)) continue;
        if (first == "module") {
            std::string prefix, name;
            if (!(words >> prefix >> name)) {
                return fail("expected: module <path-prefix> <name>");
            }
            spec->overrides.emplace_back(std::move(prefix), std::move(name));
            continue;
        }
        if (first == "except") {
            std::string path, target;
            if (!(words >> path >> target)) {
                return fail("expected: except <src-relative-file> <module>");
            }
            spec->exceptions.emplace_back(std::move(path), std::move(target));
            continue;
        }
        if (first.back() != ':') {
            return fail("expected '<module>:' at start of layer line");
        }
        first.pop_back();
        if (spec->allowed.contains(first)) {
            return fail("duplicate layer entry for module '" + first + "'");
        }
        std::set<std::string>& deps = spec->allowed[first];
        for (std::string dep; words >> dep;) deps.insert(std::move(dep));
    }
    return true;
}

std::vector<Finding> analyze(const std::vector<SourceFile>& files,
                             const LayerSpec* layers,
                             const AnalyzerOptions& opts) {
    std::vector<Finding> findings;

    // Determinism pass 1: functions returning unordered containers are
    // visible repo-wide; variables stay scoped to their own file plus its
    // companion header (wire_ declared in topology.hpp, used in .cpp).
    std::set<std::string> globalFns;
    std::map<std::string, UnorderedDecls> declsOf;  // path -> decls
    for (const SourceFile& f : files) {
        UnorderedDecls d = collectUnorderedDecls(f.lexed);
        globalFns.insert(d.fns.begin(), d.fns.end());
        declsOf.emplace(f.path, std::move(d));
    }
    const auto companionOf = [](const std::string& path) -> std::string {
        const auto swap = [&](std::string_view from, std::string_view to) {
            if (path.size() > from.size() &&
                path.substr(path.size() - from.size()) == from) {
                return path.substr(0, path.size() - from.size()) +
                       std::string(to);
            }
            return std::string();
        };
        std::string other = swap(".cpp", ".hpp");
        if (other.empty()) other = swap(".hpp", ".cpp");
        return other;
    };

    for (const SourceFile& f : files) {
        FileContext ctx;
        ctx.file = &f;
        ctx.srcRel = srcRelative(f.path);
        ctx.isHeader = f.path.size() > 4 &&
                       f.path.substr(f.path.size() - 4) == ".hpp";
        ctx.timingExempt = startsWith(ctx.srcRel, "obs/") ||
                           startsWith(ctx.srcRel, "parallel/");
        ctx.threadExempt = ctx.timingExempt;
        ctx.randomExempt = startsWith(ctx.srcRel, "gen/");
        ctx.catchAllExempt = startsWith(ctx.srcRel, "parallel/") ||
                             startsWith(ctx.srcRel, "robust/");
        ctx.inFlow = startsWith(ctx.srcRel, "flow/");

        std::set<std::string> vars = declsOf[f.path].vars;
        const auto companion = declsOf.find(companionOf(f.path));
        if (companion != declsOf.end()) {
            vars.insert(companion->second.vars.begin(),
                        companion->second.vars.end());
        }
        ctx.unorderedVars = &vars;
        ctx.unorderedFns = &globalFns;

        std::vector<Finding> raw;
        TokenRulePass(ctx, &raw).run();

        std::vector<Marker> markers = collectMarkers(f.lexed, opts.markers);
        for (Finding& fd : raw) {
            bool suppressed = false;
            for (Marker& m : markers) {
                if (m.line == fd.line && m.rule == fd.rule) {
                    m.used = true;
                    suppressed = true;
                }
            }
            if (!suppressed) findings.push_back(std::move(fd));
        }
        for (const Marker& m : markers) {
            if (!m.known) {
                findings.push_back(
                    {f.path, m.line, "unused-suppression",
                     "suppression names unknown rule '" + m.rule + "'"});
            } else if (!m.used) {
                findings.push_back(
                    {f.path, m.line, "unused-suppression",
                     "suppression of '" + m.rule +
                         "' suppresses nothing; remove the marker"});
            }
        }
    }

    if (opts.layering && layers != nullptr) {
        runLayering(files, *layers, &findings);
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
    return findings;
}

}  // namespace streak::analyze
