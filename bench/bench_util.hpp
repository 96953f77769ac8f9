// Shared helpers for the Streak bench binaries (one binary per paper
// table / figure; see DESIGN.md section 3).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>

#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "obs/json.hpp"
#include "route/sequential.hpp"

namespace streak::bench {

/// Time limit handed to the ILP per suite. The paper caps GUROBI at
/// 3600 s and reports "> 3600" for the congested suites; our scaled
/// equivalent keeps the benches minutes-long while reproducing the
/// timeout behaviour on the same suite classes.
inline constexpr double kIlpTimeLimitSeconds = 20.0;

struct SuiteRuns {
    Design design;
    route::SequentialResult manual;
    StreakResult ilp;
    StreakResult pd;
};

inline StreakOptions baseOptions() {
    StreakOptions opts;
    opts.ilpTimeLimitSeconds = kIlpTimeLimitSeconds;
    return opts;
}

/// Format a CPU column: "> <limit>" when the limit was hit, else seconds.
inline std::string cpuCell(double seconds, bool hitLimit) {
    char buf[32];
    if (hitLimit) {
        std::snprintf(buf, sizeof buf, "> %.0f", kIlpTimeLimitSeconds);
    } else {
        std::snprintf(buf, sizeof buf, "%.2f", seconds);
    }
    return buf;
}

/// Machine-readable side channel next to a bench's printed tables:
/// collects one entry per (design, variant) run and writes them as a
/// single JSON document — per-suite stage wall times plus every counter
/// the run recorded.
///
/// The output path defaults to BENCH_<bench>.json in the working
/// directory; the STREAK_BENCH_JSON environment variable overrides it.
class JsonLog {
public:
    explicit JsonLog(std::string benchName) : bench_(std::move(benchName)) {}

    /// Record one finished run. Hot-path counters appear only when the
    /// run had detail instrumentation on (obs::setDetailEnabled).
    void add(const Design& design, const std::string& variant,
             const StreakResult& r) {
        obs::json::Object run;
        run.set("design", design.name);
        run.set("variant", variant);
        run.set("threadsUsed", r.threadsUsed);
        obs::json::Object seconds;
        seconds.set("build", r.buildSeconds());
        seconds.set("solve", r.solveSeconds());
        seconds.set("distance", r.distanceSeconds());
        seconds.set("post", r.postSeconds());
        seconds.set("total", r.totalSeconds());
        run.set("seconds", std::move(seconds));
        run.set("hitTimeLimit", r.hitTimeLimit);
        obs::json::Object metrics;
        metrics.set("routability", r.metrics.routability);
        metrics.set("wirelength", r.metrics.wirelength);
        metrics.set("avgRegularity", r.metrics.avgRegularity);
        metrics.set("totalOverflow", r.metrics.totalOverflow);
        run.set("metrics", std::move(metrics));
        obs::json::Object counters;
        for (const auto& [name, value] : r.counters.counters) {
            counters.set(name, value);
        }
        run.set("counters", std::move(counters));
        runs_.push_back(obs::json::Value(std::move(run)));
    }

    /// Write the collected runs; call once at the end of main().
    void write() const {
        const char* env = std::getenv("STREAK_BENCH_JSON");
        const std::string path =
            env != nullptr ? env : "BENCH_" + bench_ + ".json";
        std::ofstream os(path);
        if (!os) {
            std::cerr << "bench: cannot open " << path << '\n';
            return;
        }
        obs::json::Object doc;
        doc.set("schema", "streak-bench-report");
        doc.set("schemaVersion", 1);
        doc.set("bench", bench_);
        doc.set("runs", obs::json::Array(runs_));
        obs::json::Value(std::move(doc)).write(os, 2);
        os << '\n';
        std::cout << "wrote " << path << '\n';
    }

private:
    std::string bench_;
    obs::json::Array runs_;
};

}  // namespace streak::bench
