// Shared helpers for the Streak bench binaries (one binary per paper
// table / figure; see DESIGN.md section 3).
#pragma once

#include <cstdio>
#include <string>

#include "flow/streak.hpp"
#include "gen/generator.hpp"
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

}  // namespace streak::bench
