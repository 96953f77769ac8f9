// Parallel scaling study (DESIGN.md "Parallel execution"): run the full
// flow at 1/2/4/8 threads and report per-stage wall times, the speedup
// measured against the one-thread row, and the pool's concurrency (task
// seconds / wall seconds: the mean number of tasks in flight, which is
// not a speedup). Two multipin designs: full-size synth5, whose parallel
// regions hold real work, and shrunk synth6, whose regions hold so little
// that waking a worker can cost more than it saves. Each thread count runs
// once to warm up; every printed time is the median of five runs. The
// result columns must not change with the thread count — the parallel
// layer is deterministic — only the times may.
//
// The ILP sweep runs on the shrunk design alone: full-size synth5 hits
// the ILP cap, and a capped solve runs until its deadline at any thread
// count, so its row would measure the cap.
//
// On machines with fewer cores than the sweep, rows beyond the core count
// show oversubscription, not scaling; the printed hardware thread count
// makes that explicit.
#include <algorithm>
#include <array>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "io/table.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace streak;

constexpr std::array kThreadCounts{1, 2, 4, 8};
constexpr int kWarmupRuns = 1;
constexpr int kTimedRuns = 5;

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

void runSweep(const gen::SuiteSpec& spec, SolverKind solver,
              const std::string& title) {
    const Design d = gen::generate(spec);

    io::Table table({"threads", "build(s)", "solve(s)", "dist(s)", "post(s)",
                     "total(s)", "speedup", "concurrency", "WL", "Vio(dst)"});
    double serialTotal = 0.0;
    for (const int threads : kThreadCounts) {
        StreakOptions opts = bench::baseOptions();
        opts.solver = solver;
        opts.threads = threads;
        for (int w = 0; w < kWarmupRuns; ++w) (void)runStreak(d, opts).value();

        std::vector<double> build, solve, dist, post, total, concurrency;
        long wirelength = 0;
        int violations = 0;
        for (int run = 0; run < kTimedRuns; ++run) {
            const StreakResult r = runStreak(d, opts).value();
            wirelength = r.metrics.wirelength;
            violations = r.distanceViolationsAfter;
            build.push_back(r.buildSeconds());
            solve.push_back(r.solveSeconds());
            dist.push_back(r.distanceSeconds());
            post.push_back(r.postSeconds());
            total.push_back(r.buildSeconds() + r.solveSeconds() +
                            r.distanceSeconds() + r.postSeconds());
            parallel::RegionStats all;
            all.merge(r.buildParallel());
            all.merge(r.solveParallel());
            all.merge(r.distanceParallel());
            all.merge(r.postParallel());
            concurrency.push_back(all.speedupEstimate());
        }
        const double medianTotal = median(total);
        if (threads == 1) serialTotal = medianTotal;
        table.addRow(
            {std::to_string(threads), io::Table::fixed(median(build), 4),
             io::Table::fixed(median(solve), 4),
             io::Table::fixed(median(dist), 4),
             io::Table::fixed(median(post), 4),
             io::Table::fixed(medianTotal, 4),
             io::Table::fixed(
                 medianTotal > 0.0 ? serialTotal / medianTotal : 1.0, 2) +
                 "x",
             io::Table::fixed(median(concurrency), 2),
             std::to_string(wirelength), std::to_string(violations)});
    }
    std::cout << "== " << title << " ==\n";
    table.print(std::cout);
    std::cout << '\n';
}

}  // namespace

int main() {
    std::cout << "hardware threads: " << parallel::hardwareThreads() << "\n";
    std::cout << "median of " << kTimedRuns << " runs after " << kWarmupRuns
              << " warm-up run per thread count\n\n";
    const gen::SuiteSpec synth5 = gen::synthSpec(5);
    const gen::SuiteSpec synth6Shrunk = gen::shrunkSynthSpec(6);
    runSweep(synth5, SolverKind::PrimalDual,
             "primal-dual solver, full-size " + synth5.name);
    runSweep(synth6Shrunk, SolverKind::PrimalDual,
             "primal-dual solver, " + synth6Shrunk.name);
    runSweep(synth6Shrunk, SolverKind::Ilp, "ILP solver, " + synth6Shrunk.name);
    return 0;
}
