// Token-level C++ lexer of the static analyzer (streak_analyze; DESIGN.md
// "Static analysis").
//
// This is not a compiler front end: it produces a flat token stream with
// line numbers, which is exactly the altitude the project rules need.
// What it does get right — and what the old line-regex lint could not —
// is the lexical grammar that decides whether text is code at all:
// line and block comments, string/char literals with escapes, raw string
// literals with arbitrary delimiters, and preprocessor directives
// (includes and `#pragma once` are parsed out; other directive bodies
// are tokenized normally so macro definitions stay visible to rules).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace streak::analyze {

enum class TokKind {
    Identifier,  // identifiers and keywords alike
    Number,      // pp-number: 1, 0x1f, 1.0e-3f, 1'000
    String,      // "...", R"(...)", prefix handled by the caller token
    Char,        // 'c', '\n'
    Punct,       // operators and punctuation; multi-char ops are one token
};

struct Token {
    TokKind kind = TokKind::Punct;
    std::string text;
    int line = 1;  // 1-based physical line of the token's first character
};

/// A comment, kept out of the code token stream but retained for
/// suppression-marker scanning.
struct Comment {
    std::string text;  // delimiters included
    int line = 1;      // line of the comment's first character
};

struct IncludeDirective {
    std::string path;    // target exactly as written between the delimiters
    bool angled = false;  // <...> rather than "..."
    int line = 1;
};

struct LexedSource {
    std::vector<Token> tokens;
    std::vector<Comment> comments;
    std::vector<IncludeDirective> includes;
    bool pragmaOnce = false;
};

/// Lex a complete translation unit. Never fails: unterminated constructs
/// are closed at end of input (the rules run on best-effort structure).
[[nodiscard]] LexedSource lex(std::string_view src);

}  // namespace streak::analyze
