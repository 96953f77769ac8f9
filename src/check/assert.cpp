#include "check/assert.hpp"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace streak::check {

namespace {

int parseLevel(const char* text) {
    const std::string s(text);
    if (s == "cheap" || s == "1") return 1;
    if (s == "deep" || s == "2") return 2;
    return -1;
}

int initialLevel() {
    if (const char* env = std::getenv("STREAK_CHECKS")) {
        const int parsed = parseLevel(env);
        if (parsed >= 0) return parsed;
        std::cerr << "streak: ignoring unrecognized STREAK_CHECKS value '"
                  << env << "' (want cheap|deep)\n";
    }
    return kCompiledLevel;
}

std::atomic<int>& levelStore() {
    static std::atomic<int> level{initialLevel()};
    return level;
}

std::atomic<FailureHandler>& handlerStore() {
    static std::atomic<FailureHandler> handler{nullptr};
    return handler;
}

}  // namespace

Level runtimeLevel() { return static_cast<Level>(levelStore().load()); }

void setRuntimeLevel(Level level) {
    levelStore().store(static_cast<int>(level));
}

FailureHandler setFailureHandler(FailureHandler handler) {
    return handlerStore().exchange(handler);
}

void throwingFailureHandler(const std::string& message) {
    throw CheckFailure(message);
}

void fail(const char* kind, const char* expr, const char* file, int line,
          const std::string& detail) {
    std::ostringstream os;
    os << "streak " << kind << " failed: " << expr;
    if (!detail.empty()) os << "\n  " << detail;
    os << "\n  at " << file << ':' << line << '\n';
    const std::string message = os.str();
    if (const FailureHandler handler = handlerStore().load()) {
        handler(message);  // may throw (tests); falls through otherwise
    }
    // Checks may fire concurrently from pool workers: emit the fully
    // formatted message as one serialized write + flush so reports never
    // interleave, then abort.
    {
        static std::mutex mutex;
        const std::lock_guard<std::mutex> lock(mutex);
        std::cerr.write(message.data(),
                        static_cast<std::streamsize>(message.size()));
        std::cerr.flush();
    }
    std::abort();
}

std::string AuditResult::summary(size_t maxShown) const {
    std::ostringstream os;
    os << (subject.empty() ? "audit" : subject) << ": " << issues.size()
       << (full() ? "+" : "") << " issue(s)";
    const size_t shown = issues.size() < maxShown ? issues.size() : maxShown;
    for (size_t i = 0; i < shown; ++i) os << "\n  - " << issues[i];
    if (issues.size() > shown) {
        os << "\n  - ... " << (issues.size() - shown) << " more";
    }
    return os.str();
}

void enforce(const AuditResult& result, const char* expr, const char* file,
             int line) {
    if (result.ok()) return;
    fail("audit", expr, file, line, result.summary());
}

}  // namespace streak::check
