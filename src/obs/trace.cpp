#include "obs/trace.hpp"

namespace streak::obs {

namespace {

// Per-thread span context. Workers inherit the owning region's span via
// obs::WorkerBind; the flow thread builds its own stack naturally. Saved
// and restored together with the thread's session binding (session.cpp).
thread_local int tlCurrentSpan = -1;
thread_local int tlTrack = 0;

}  // namespace

void Tracer::reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
    epoch_ = std::chrono::steady_clock::now();
    tlCurrentSpan = -1;
}

int Tracer::beginSpan(std::string name) {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::chrono::duration<double> sinceEpoch =
        std::chrono::steady_clock::now() - epoch_;
    Span span;
    span.name = std::move(name);
    span.parent = tlCurrentSpan;
    span.thread = tlTrack;
    span.startSeconds = sinceEpoch.count();
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(span));
    tlCurrentSpan = id;
    return id;
}

void Tracer::endSpan(int id) {
    std::lock_guard<std::mutex> lock(mutex_);
    // A reset() between begin and end invalidates outstanding ids;
    // tolerate it rather than corrupting the new trace.
    if (id < 0 || id >= static_cast<int>(spans_.size())) return;
    Span& span = spans_[static_cast<size_t>(id)];
    const std::chrono::duration<double> sinceEpoch =
        std::chrono::steady_clock::now() - epoch_;
    span.endSeconds = sinceEpoch.count();
    if (tlCurrentSpan == id) tlCurrentSpan = span.parent;
}

void Tracer::addSpanArg(int id, std::string key, double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (id < 0 || id >= static_cast<int>(spans_.size())) return;
    spans_[static_cast<size_t>(id)].args.emplace_back(std::move(key), value);
}

int Tracer::currentSpan() const { return tlCurrentSpan; }

Trace Tracer::snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

Tracer::ThreadContext Tracer::threadContext() {
    return {tlCurrentSpan, tlTrack};
}

void Tracer::setThreadContext(ThreadContext context) {
    tlCurrentSpan = context.span;
    tlTrack = context.track;
}

double spanSeconds(const Trace& trace, std::string_view name) {
    double total = 0.0;
    for (const Span& s : trace) {
        if (s.name == name) total += s.seconds();
    }
    return total;
}

const Span* findSpan(const Trace& trace, std::string_view name) {
    for (const Span& s : trace) {
        if (s.name == name) return &s;
    }
    return nullptr;
}

double spanArg(const Trace& trace, std::string_view name,
               std::string_view key, double fallback) {
    const Span* span = findSpan(trace, name);
    if (span == nullptr) return fallback;
    for (const auto& [k, v] : span->args) {
        if (k == key) return v;
    }
    return fallback;
}

}  // namespace streak::obs
