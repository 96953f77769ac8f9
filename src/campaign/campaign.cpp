#include "campaign/campaign.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "flow/report.hpp"
#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "io/design_io.hpp"
#include "obs/process.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "robust/error.hpp"
#include "route/sequential.hpp"

namespace streak::campaign {

namespace json = obs::json;

namespace {

/// (config, instance, threads) — the identity of one sweep point.
std::string keyOf(const RunRecord& r) {
    return r.config + '/' + r.instance + "/t" + std::to_string(r.threads);
}

/// Via count of the solver-selected candidates (stable across the post
/// stages, which reshape topologies but not the selection).
long long solverVias(const StreakResult& r) {
    long long vias = 0;
    for (size_t i = 0; i < r.solverSolution.chosen.size(); ++i) {
        const int c = r.solverSolution.chosen[i];
        if (c >= 0) vias += r.problem.candidates[i][static_cast<size_t>(c)].viaCount;
    }
    return vias;
}

/// Percent growth with a guard for zero baselines (integer metrics only
/// reach this with base >= 0).
double growthPercent(double base, double cur) {
    return 100.0 * (cur - base) / std::max(base, 1e-12);
}

void flagGrowth(DiffReport* report, const RunRecord& cur, std::string kind,
                std::string metric, double base, double current,
                double threshold) {
    if (current <= base * (1.0 + threshold) + 1e-9) return;
    report->regressions.push_back({std::move(kind), cur.config, cur.instance,
                                   std::move(metric), base, current,
                                   growthPercent(base, current)});
}

void compareRecords(const RunRecord& base, const RunRecord& cur,
                    double counterGrowth, DiffReport* report) {
    // Counters: deterministic (thread-count-invariant), so growth is a
    // behavioural change. Counters absent from the baseline are new
    // instrumentation, not regressions.
    for (const auto& [name, value] : cur.counters) {
        const auto it = base.counters.find(name);
        if (it == base.counters.end()) continue;
        flagGrowth(report, cur, "counter", name,
                   static_cast<double>(it->second),
                   static_cast<double>(value), counterGrowth);
    }
    // Quality: any loss is a regression.
    flagGrowth(report, cur, "quality", "wirelength",
               static_cast<double>(base.wirelength),
               static_cast<double>(cur.wirelength), 0.0);
    flagGrowth(report, cur, "quality", "vias", static_cast<double>(base.vias),
               static_cast<double>(cur.vias), 0.0);
    flagGrowth(report, cur, "quality", "totalOverflow",
               static_cast<double>(base.totalOverflow),
               static_cast<double>(cur.totalOverflow), 0.0);
    if (cur.routability < base.routability - 1e-12) {
        report->regressions.push_back(
            {"quality", cur.config, cur.instance, "routability",
             base.routability, cur.routability,
             growthPercent(base.routability, cur.routability)});
    }
    if (cur.degraded && !base.degraded) {
        report->regressions.push_back({"quality", cur.config, cur.instance,
                                       "degraded", 0.0, 1.0, 100.0});
    }
}

/// Field access that records the first failure instead of throwing.
struct Reader {
    std::string* error;
    bool ok = true;

    void fail(std::string msg) {
        if (ok && error != nullptr) *error = std::move(msg);
        ok = false;
    }
    const json::Value* field(const json::Value& v, const char* key) {
        if (!ok) return nullptr;
        const json::Value* f = v.find(key);
        if (f == nullptr) fail(std::string("missing field '") + key + "'");
        return f;
    }
    double number(const json::Value& v, const char* key) {
        const json::Value* f = field(v, key);
        if (f == nullptr) return 0.0;
        if (f->kind() != json::Kind::Number) {
            fail(std::string("field '") + key + "' is not a number");
            return 0.0;
        }
        return f->asNumber();
    }
    long long integer(const json::Value& v, const char* key) {
        return static_cast<long long>(std::llround(number(v, key)));
    }
    std::string string(const json::Value& v, const char* key) {
        const json::Value* f = field(v, key);
        if (f == nullptr) return {};
        if (f->kind() != json::Kind::String) {
            fail(std::string("field '") + key + "' is not a string");
            return {};
        }
        return f->asString();
    }
    bool boolean(const json::Value& v, const char* key) {
        const json::Value* f = field(v, key);
        if (f == nullptr) return false;
        if (f->kind() != json::Kind::Bool) {
            fail(std::string("field '") + key + "' is not a boolean");
            return false;
        }
        return f->asBool();
    }
    const json::Value* object(const json::Value& v, const char* key) {
        const json::Value* f = field(v, key);
        if (f == nullptr) return nullptr;
        if (f->kind() != json::Kind::Object) {
            fail(std::string("field '") + key + "' is not an object");
            return nullptr;
        }
        return f;
    }
};

}  // namespace

std::vector<SweepConfig> builtinConfigs() {
    SweepConfig pd;
    pd.name = "pd";
    pd.options.solver = SolverKind::PrimalDual;
    pd.options.postOptimize = true;

    SweepConfig pdNoPost;
    pdNoPost.name = "pd-nopost";
    pdNoPost.options.solver = SolverKind::PrimalDual;
    pdNoPost.options.postOptimize = false;

    // The exact solver with a time cap the shrunk suites never reach, so
    // its LP and branch-and-bound counters are deterministic.
    SweepConfig ilp;
    ilp.name = "ilp";
    ilp.options.solver = SolverKind::Ilp;
    ilp.options.ilpTimeLimitSeconds = 10.0;
    ilp.options.postOptimize = false;

    // The sequential maze baseline with every bit through the search (no
    // pattern-route shortcut), so its route/maze.* counters measure the
    // search kernel itself.
    SweepConfig manual;
    manual.name = "manual";
    manual.manualBaseline = true;

    return {std::move(pd), std::move(pdNoPost), std::move(ilp),
            std::move(manual)};
}

SweepConfig configByName(std::string_view name) {
    for (SweepConfig& config : builtinConfigs()) {
        if (config.name == name) return std::move(config);
    }
    throw std::invalid_argument("campaign: unknown config '" +
                                std::string(name) +
                                "' (known: pd, pd-nopost, ilp, manual)");
}

json::Value recordToJson(const RunRecord& record) {
    json::Object o;
    o.set("schema", kRunSchema);
    o.set("schemaVersion", kRunSchemaVersion);
    o.set("config", record.config);
    o.set("instance", record.instance);
    o.set("threads", record.threads);
    o.set("threadsUsed", record.threadsUsed);
    json::Object provenance;
    provenance.set("problemHash", record.problemHash);
    provenance.set("configHash", record.configHash);
    provenance.set("hostname", record.hostname);
    provenance.set("hardwareThreads", record.hardwareThreads);
    o.set("provenance", std::move(provenance));
    o.set("wallSeconds", record.wallSeconds);
    json::Object metrics;
    metrics.set("routability", record.routability);
    metrics.set("wirelength", record.wirelength);
    metrics.set("vias", record.vias);
    metrics.set("totalOverflow", record.totalOverflow);
    metrics.set("degraded", record.degraded);
    o.set("metrics", std::move(metrics));
    json::Object counters;
    for (const auto& [name, value] : record.counters) {
        counters.set(name, value);
    }
    o.set("counters", std::move(counters));
    return o;
}

std::optional<RunRecord> recordFromJson(const json::Value& value,
                                        std::string* error) {
    Reader r{error};
    if (value.kind() != json::Kind::Object) {
        r.fail("record is not a JSON object");
        return std::nullopt;
    }
    const std::string schema = r.string(value, "schema");
    if (r.ok && schema != kRunSchema) {
        r.fail("schema mismatch: expected '" + std::string(kRunSchema) +
               "', got '" + schema + "'");
    }
    const long long version = r.integer(value, "schemaVersion");
    if (r.ok && version != kRunSchemaVersion) {
        r.fail("schemaVersion mismatch: expected " +
               std::to_string(kRunSchemaVersion) + ", got " +
               std::to_string(version));
    }
    RunRecord record;
    record.config = r.string(value, "config");
    record.instance = r.string(value, "instance");
    record.threads = static_cast<int>(r.integer(value, "threads"));
    record.threadsUsed = static_cast<int>(r.integer(value, "threadsUsed"));
    if (const json::Value* prov = r.object(value, "provenance")) {
        record.problemHash = r.string(*prov, "problemHash");
        record.configHash = r.string(*prov, "configHash");
        record.hostname = r.string(*prov, "hostname");
        record.hardwareThreads =
            static_cast<int>(r.integer(*prov, "hardwareThreads"));
    }
    record.wallSeconds = r.number(value, "wallSeconds");
    if (const json::Value* metrics = r.object(value, "metrics")) {
        record.routability = r.number(*metrics, "routability");
        record.wirelength = r.integer(*metrics, "wirelength");
        record.vias = r.integer(*metrics, "vias");
        record.totalOverflow = r.integer(*metrics, "totalOverflow");
        record.degraded = r.boolean(*metrics, "degraded");
    }
    if (const json::Value* counters = r.object(value, "counters")) {
        for (const auto& [name, v] : counters->asObject().items()) {
            if (v.kind() != json::Kind::Number) {
                r.fail("counter '" + name + "' is not a number");
                break;
            }
            record.counters[name] =
                static_cast<long long>(std::llround(v.asNumber()));
        }
    }
    if (!r.ok) return std::nullopt;
    return record;
}

void appendStore(const std::vector<RunRecord>& records, std::ostream& os) {
    for (const RunRecord& record : records) {
        recordToJson(record).write(os, -1);
        os << '\n';
    }
}

Store readStore(std::istream& is, const std::string& where) {
    Store store;
    std::string line;
    for (int lineNo = 1; std::getline(is, line); ++lineNo) {
        const size_t start = line.find_first_not_of(" \t\r");
        if (start == std::string::npos || line[start] == '#') continue;
        const std::string at = where + ":" + std::to_string(lineNo) + ": ";
        std::string parseError;
        const json::Value value = json::parse(line, &parseError);
        if (value.isNull() && !parseError.empty()) {
            store.problems.push_back(at + parseError);
            continue;
        }
        std::string recordError;
        if (std::optional<RunRecord> record =
                recordFromJson(value, &recordError)) {
            store.records.push_back(*std::move(record));
        } else {
            store.problems.push_back(at + recordError);
        }
    }
    return store;
}

Store readStoreFile(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        robust::StreakError error;
        error.kind = robust::ErrorKind::InvalidInput;
        error.site = "campaign/store";
        error.message = "cannot open store " + path;
        throw robust::StreakException(std::move(error));
    }
    return readStore(in, path);
}

std::vector<RunRecord> runCampaign(const CampaignSpec& spec,
                                   std::ostream* log) {
    const std::vector<SweepConfig> configs =
        spec.configs.empty() ? builtinConfigs() : spec.configs;
    const obs::ProcessInfo host = obs::processInfo();
    std::vector<RunRecord> out;
    for (const int suite : spec.suites) {
        const Design design = gen::generate(gen::shrunkSynthSpec(suite));
        const std::string pHash = problemHash(design);
        for (const SweepConfig& config : configs) {
            for (const int threads : spec.threads) {
                RunRecord record;
                record.config = config.name;
                record.instance = design.name;
                record.threads = threads;
                record.problemHash = pHash;
                record.hostname = host.hostname;
                record.hardwareThreads = host.hardwareThreads;

                // A fresh detail-on session per sweep point: the maze
                // baseline records its counters into it, and the flow,
                // which records into a session of its own, takes its
                // detail gate from it.
                obs::Session session;
                const obs::SessionBind bind(session);
                session.setDetailEnabled(true);
                if (config.manualBaseline) {
                    // The sequential maze baseline: single-threaded, no
                    // flow options — every bit through the search.
                    const obs::Stopwatch watch;
                    const route::SequentialResult sr = route::routeSequential(
                        design, route::MazeOptions{}, /*mazeOnly=*/true);
                    record.wallSeconds = watch.seconds();
                    record.threadsUsed = 1;
                    record.configHash = fnv1aHex("manual-baseline/maze-only/1");
                    record.routability = sr.routability();
                    record.wirelength = sr.wirelength;
                    record.vias = sr.viaCount;
                    record.totalOverflow = sr.usage.totalOverflow() +
                                           sr.usage.totalViaOverflow();
                    record.counters = session.snapshotMetrics().counters;
                } else {
                    StreakOptions opts = config.options;
                    opts.threads = threads;
                    const obs::Stopwatch watch;
                    FlowResult flow = runStreak(design, opts);
                    record.wallSeconds = watch.seconds();
                    if (!flow.ok()) {
                        throw robust::StreakException(flow.error());
                    }
                    const StreakResult result = std::move(flow).value();
                    record.threadsUsed = result.threadsUsed;
                    record.configHash = configHash(opts);
                    record.routability = result.metrics.routability;
                    record.wirelength = result.metrics.wirelength;
                    record.vias = solverVias(result);
                    record.totalOverflow = result.metrics.totalOverflow +
                                           result.metrics.totalViaOverflow;
                    record.degraded = result.degraded();
                    record.counters = result.counters.counters;
                }
                for (const auto& [name, factor] : spec.scaleCounters) {
                    const auto it = record.counters.find(name);
                    if (it != record.counters.end()) {
                        it->second = static_cast<long long>(
                            std::llround(static_cast<double>(it->second) *
                                         factor));
                    }
                }
                if (log != nullptr) {
                    std::ostringstream wall;
                    wall << std::fixed << std::setprecision(3)
                         << record.wallSeconds;
                    *log << "campaign: " << keyOf(record) << ": WL "
                         << record.wirelength << ", overflow "
                         << record.totalOverflow << ", " << wall.str()
                         << "s\n";
                }
                out.push_back(std::move(record));
            }
        }
    }
    return out;
}

DiffReport diffAgainstStore(const Store& baseline, const Store& current,
                            double counterGrowth) {
    DiffReport report;
    std::map<std::string, const RunRecord*> base;
    // Append-only store: the last record with a key is the newest
    // measurement and wins.
    for (const RunRecord& r : baseline.records) base[keyOf(r)] = &r;
    for (const RunRecord& cur : current.records) {
        const std::string key = keyOf(cur);
        const auto it = base.find(key);
        if (it == base.end()) {
            report.notes.push_back("no baseline for " + key);
            continue;
        }
        const RunRecord& b = *it->second;
        if (b.problemHash != cur.problemHash) {
            report.notes.push_back("problem hash changed for " + key +
                                   " (the instance differs); skipped");
            continue;
        }
        if (b.configHash != cur.configHash) {
            report.notes.push_back("config hash changed for " + key +
                                   " (the options differ); skipped");
            continue;
        }
        ++report.comparedRuns;
        compareRecords(b, cur, counterGrowth, &report);
    }
    return report;
}

int diffExitCode(const DiffReport& report) {
    if (report.comparedRuns == 0) {
        return robust::exitCodeFor(robust::ErrorKind::InvalidInput);
    }
    return report.ok() ? 0 : 8;  // 8: the CLI's campaign-regression code
}

std::string Regression::stage() const {
    if (kind == "quality") return kind;
    return metric.substr(0, metric.find('/'));
}

std::map<std::string, int> regressionsByStage(
    const std::vector<DiffReport>& reports) {
    std::map<std::string, int> tally;
    for (const DiffReport& report : reports) {
        for (const Regression& r : report.regressions) ++tally[r.stage()];
    }
    return tally;
}

json::Value verdictJson(const std::vector<DiffReport>& reports) {
    json::Object o;
    o.set("schema", kVerdictSchema);
    o.set("schemaVersion", kVerdictSchemaVersion);
    int total = 0;
    json::Array comparisons;
    for (const DiffReport& report : reports) {
        json::Object c;
        // Every comparison is against a store now; the key stays so
        // verdict v1 readers keep parsing.
        c.set("against", "store");
        c.set("comparedRuns", report.comparedRuns);
        c.set("ok", report.ok());
        json::Array regressions;
        for (const Regression& r : report.regressions) {
            json::Object reg;
            reg.set("kind", r.kind);
            reg.set("stage", r.stage());
            reg.set("config", r.config);
            reg.set("instance", r.instance);
            reg.set("metric", r.metric);
            reg.set("baseline", r.baseline);
            reg.set("current", r.current);
            reg.set("growthPercent", r.growthPercent);
            regressions.push_back(json::Value(std::move(reg)));
        }
        c.set("regressions", std::move(regressions));
        json::Array notes;
        for (const std::string& note : report.notes) {
            notes.push_back(json::Value(note));
        }
        c.set("notes", std::move(notes));
        total += static_cast<int>(report.regressions.size());
        comparisons.push_back(json::Value(std::move(c)));
    }
    o.set("ok", total == 0);
    o.set("regressionCount", total);
    json::Object byStage;
    for (const auto& [stage, count] : regressionsByStage(reports)) {
        byStage.set(stage, count);
    }
    o.set("regressionsByStage", std::move(byStage));
    o.set("comparisons", std::move(comparisons));
    return o;
}

std::string fnv1aHex(std::string_view bytes) {
    std::uint64_t hash = 14695981039346656037ull;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << hash;
    return os.str();
}

std::string problemHash(const Design& design) {
    std::ostringstream os;
    io::writeDesign(design, os);
    return fnv1aHex(os.str());
}

std::string configHash(const StreakOptions& opts) {
    return fnv1aHex(flow::buildOptionsJson(opts).dump());
}

}  // namespace streak::campaign
