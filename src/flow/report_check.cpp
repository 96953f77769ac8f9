#include "flow/report_check.hpp"

#include <map>
#include <utility>

#include "flow/report.hpp"
#include "flow/streak.hpp"
#include "obs/json.hpp"

namespace streak::flow {

namespace {

using obs::json::Kind;
using obs::json::Value;

/// Problem accumulator threaded through one document check.
class Checker {
public:
    void fail(const std::string& message) { result_.problems.push_back(message); }
    [[nodiscard]] CheckResult take() { return std::move(result_); }

private:
    CheckResult result_;
};

/// Parse the document text; a syntax error (truncated file, stray bytes)
/// becomes one structured problem and a null value.
Value parseText(std::string_view text, const std::string& where,
                Checker* check) {
    std::string error;
    const Value doc = obs::json::parse(std::string(text), &error);
    if (doc.isNull() && !error.empty()) check->fail(where + ": " + error);
    return doc;
}

/// The key must exist and have the expected kind.
const Value* requireField(const Value& obj, const std::string& key, Kind kind,
                          const std::string& where, Checker* check) {
    const Value* v = obj.find(key);
    if (v == nullptr) {
        check->fail(where + ": missing field \"" + key + "\"");
        return nullptr;
    }
    if (v->kind() != kind) {
        check->fail(where + ": field \"" + key + "\" has the wrong type");
        return nullptr;
    }
    return v;
}

void checkSpanTree(const Value& span, const std::string& where,
                   Checker* check) {
    requireField(span, "name", Kind::String, where, check);
    requireField(span, "track", Kind::Number, where, check);
    requireField(span, "startSeconds", Kind::Number, where, check);
    const Value* seconds =
        requireField(span, "seconds", Kind::Number, where, check);
    if (seconds != nullptr && seconds->asNumber() < 0.0) {
        check->fail(where + ": negative span duration");
    }
    if (const Value* children = span.find("children")) {
        if (children->kind() != Kind::Array) {
            check->fail(where + ": \"children\" is not an array");
            return;
        }
        for (size_t i = 0; i < children->asArray().size(); ++i) {
            checkSpanTree(children->asArray()[i],
                          where + "/child[" + std::to_string(i) + "]", check);
        }
    }
}

/// The "process" section: host facts whose values are nondeterministic,
/// so only shape and sign are checked.
void checkProcessSection(const Value& doc, const std::string& where,
                         Checker* check) {
    const Value* process =
        requireField(doc, "process", Kind::Object, where, check);
    if (process == nullptr) return;
    const Value* rss = requireField(*process, "peakRssKb", Kind::Number,
                                    where + ":process", check);
    if (rss != nullptr && rss->asNumber() < 0.0) {
        check->fail(where + ":process: negative peakRssKb");
    }
    requireField(*process, "hostname", Kind::String, where + ":process",
                 check);
    const Value* threads = requireField(*process, "hardwareThreads",
                                        Kind::Number, where + ":process",
                                        check);
    if (threads != nullptr && threads->asNumber() < 1.0) {
        check->fail(where + ":process: hardwareThreads below 1");
    }
}

/// The "eco" section `streak eco --report` appends: run accounting whose
/// internal consistency (resolved + carried == total, resolved list
/// length) is checkable without re-running anything.
void checkEcoSection(const Value& doc, const std::string& where,
                     bool required, Checker* check) {
    const Value* eco = doc.find("eco");
    if (eco == nullptr) {
        if (required) check->fail(where + ": missing field \"eco\"");
        return;
    }
    if (eco->kind() != Kind::Object) {
        check->fail(where + ": field \"eco\" has the wrong type");
        return;
    }
    const std::string at = where + ":eco";
    const Value* total =
        requireField(*eco, "totalGroups", Kind::Number, at, check);
    const Value* resolved =
        requireField(*eco, "resolvedGroups", Kind::Number, at, check);
    const Value* carried =
        requireField(*eco, "carriedGroups", Kind::Number, at, check);
    const Value* list =
        requireField(*eco, "resolved", Kind::Array, at, check);
    requireField(*eco, "incrementalSeconds", Kind::Number, at, check);
    if (total != nullptr && resolved != nullptr && carried != nullptr &&
        resolved->asNumber() + carried->asNumber() != total->asNumber()) {
        check->fail(at + ": resolvedGroups + carriedGroups != totalGroups");
    }
    if (list != nullptr && resolved != nullptr &&
        static_cast<double>(list->asArray().size()) != resolved->asNumber()) {
        check->fail(at + ": resolved list length disagrees with "
                         "resolvedGroups");
    }
}

void checkReportDoc(const Value& doc, const std::string& where,
                    bool requireEco, Checker* check) {
    if (doc.kind() != Kind::Object) {
        if (!doc.isNull()) check->fail(where + ": top level is not an object");
        return;
    }
    const Value* schema =
        requireField(doc, "schema", Kind::String, where, check);
    if (schema != nullptr && schema->asString() != kReportSchema) {
        check->fail(where + ": schema is \"" + schema->asString() +
                    "\", expected \"" + kReportSchema + "\"");
    }
    const Value* version =
        requireField(doc, "schemaVersion", Kind::Number, where, check);
    if (version != nullptr &&
        static_cast<int>(version->asNumber()) != kReportSchemaVersion) {
        check->fail(where + ": unsupported schemaVersion " +
                    std::to_string(static_cast<int>(version->asNumber())) +
                    " (expected " + std::to_string(kReportSchemaVersion) +
                    ")");
    }
    requireField(doc, "design", Kind::Object, where, check);
    requireField(doc, "options", Kind::Object, where, check);
    requireField(doc, "metrics", Kind::Object, where, check);
    const Value* solver =
        requireField(doc, "solver", Kind::Object, where, check);
    // ilpGap joined v1 as an additive key: older reports lack it, and
    // null marks a run whose gap is unknown.
    const Value* gap = solver != nullptr ? solver->find("ilpGap") : nullptr;
    if (gap != nullptr && !gap->isNull() &&
        (gap->kind() != Kind::Number || !(gap->asNumber() >= 0.0))) {
        check->fail(where + ":solver: ilpGap is neither a number >= 0 nor "
                            "null");
    }
    const Value* robust =
        requireField(doc, "robust", Kind::Object, where, check);
    if (robust != nullptr) {
        requireField(*robust, "deadlineSeconds", Kind::Number,
                     where + ":robust", check);
        requireField(*robust, "degraded", Kind::Bool, where + ":robust",
                     check);
        const Value* rungs = requireField(*robust, "degradations", Kind::Array,
                                          where + ":robust", check);
        if (rungs != nullptr) {
            for (size_t i = 0; i < rungs->asArray().size(); ++i) {
                const std::string at =
                    where + ":robust/degradation[" + std::to_string(i) + "]";
                const Value& rung = rungs->asArray()[i];
                requireField(rung, "stage", Kind::String, at, check);
                requireField(rung, "rung", Kind::String, at, check);
                requireField(rung, "message", Kind::String, at, check);
            }
        }
    }
    checkProcessSection(doc, where, check);
    checkEcoSection(doc, where, requireEco, check);
    requireField(doc, "counters", Kind::Object, where, check);
    requireField(doc, "histograms", Kind::Object, where, check);
    const Value* spans = requireField(doc, "spans", Kind::Array, where, check);
    if (spans == nullptr) return;
    if (spans->asArray().empty()) {
        check->fail(where + ": span tree is empty");
        return;
    }
    bool haveRun = false;
    for (const Value& root : spans->asArray()) {
        const Value* name = root.find("name");
        if (name != nullptr && name->kind() == Kind::String &&
            name->asString() == stage::kRun) {
            haveRun = true;
        }
    }
    if (!haveRun) {
        check->fail(where + ": no root span named \"" +
                    std::string(stage::kRun) + "\"");
    }
    for (size_t i = 0; i < spans->asArray().size(); ++i) {
        checkSpanTree(spans->asArray()[i],
                      where + ":span[" + std::to_string(i) + "]", check);
    }
}

void checkTraceDoc(const Value& doc, const std::string& where,
                   Checker* check) {
    if (doc.isNull()) return;
    const Value* events =
        requireField(doc, "traceEvents", Kind::Array, where, check);
    if (events == nullptr) return;

    // Per-(pid, tid) stack of open B event names.
    std::map<std::pair<int, int>, std::vector<std::string>> open;
    int durations = 0;
    for (size_t i = 0; i < events->asArray().size(); ++i) {
        const Value& ev = events->asArray()[i];
        const std::string at = where + ":event[" + std::to_string(i) + "]";
        const Value* ph = requireField(ev, "ph", Kind::String, at, check);
        const Value* name = requireField(ev, "name", Kind::String, at, check);
        const Value* pid = requireField(ev, "pid", Kind::Number, at, check);
        const Value* tid = requireField(ev, "tid", Kind::Number, at, check);
        if (ph == nullptr || name == nullptr || pid == nullptr ||
            tid == nullptr) {
            continue;
        }
        const std::pair<int, int> track{static_cast<int>(pid->asNumber()),
                                        static_cast<int>(tid->asNumber())};
        if (ph->asString() == "M") continue;  // metadata (thread_name)
        if (ph->asString() != "B" && ph->asString() != "E") {
            check->fail(at + ": unexpected phase \"" + ph->asString() + "\"");
            continue;
        }
        requireField(ev, "ts", Kind::Number, at, check);
        ++durations;
        if (ph->asString() == "B") {
            open[track].push_back(name->asString());
        } else {
            auto& stack = open[track];
            if (stack.empty()) {
                check->fail(at + ": E event with no open B on its track");
            } else if (stack.back() != name->asString()) {
                check->fail(at + ": E \"" + name->asString() +
                            "\" does not match open B \"" + stack.back() +
                            "\"");
                stack.pop_back();
            } else {
                stack.pop_back();
            }
        }
    }
    for (const auto& [track, stack] : open) {
        if (!stack.empty()) {
            check->fail(where + ": track " + std::to_string(track.first) +
                        "/" + std::to_string(track.second) + " has " +
                        std::to_string(stack.size()) +
                        " unclosed B event(s)");
        }
    }
    if (durations == 0) check->fail(where + ": no duration events");
}

}  // namespace

CheckResult checkRunReport(std::string_view text, const std::string& where,
                           bool requireEco) {
    Checker check;
    const Value doc = parseText(text, where, &check);
    checkReportDoc(doc, where, requireEco, &check);
    return check.take();
}

CheckResult checkChromeTrace(std::string_view text, const std::string& where) {
    Checker check;
    const Value doc = parseText(text, where, &check);
    checkTraceDoc(doc, where, &check);
    return check.take();
}

}  // namespace streak::flow
