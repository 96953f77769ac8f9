// streak — command-line front end for the Streak router.
//
//   streak generate <suite 1-7|spec> <out.streak>   write a benchmark
//   streak info     <design.streak>                 print design stats
//   streak route    <design.streak> [options]       route and report
//   streak eco      <ckpt.streakeco> [options]      incremental re-route
//   streak campaign run  [options]                  sweep configs x suites
//   streak campaign diff <store.jsonl> [options]    flag regressions
//
// route options:
//   --solver=pd|ilp|hilp   selection engine (default pd; hilp is the
//                          two-stage hierarchical ILP)
//   --ilp-limit=<sec>      ILP time cap (default 60)
//   --threads=<n>          worker threads (0 = hardware, 1 = serial);
//                          results are identical for every value
//   --no-post              skip post optimization
//   --no-clustering        post-opt without bottom-up clustering
//   --no-refinement        post-opt without distance refinement
//   --backbones=<k>        backbone candidates per object (default 4)
//   --heatmap=<file.csv>   dump the congestion map as CSV
//   --svg=<file.svg>       render the routed design as SVG
//   --report=<file.json>   write the schema-versioned run report (spans,
//                          counters, metrics); turns on detail
//                          instrumentation for the run
//   --trace=<file.json>    write a chrome://tracing / Perfetto trace of
//                          the run's span tree; also turns on detail
//   --deadline=<sec>       wall-clock budget for the whole run (<= 0:
//                          none; nan or inf exits 3); on expiry the flow
//                          degrades (cheaper engine / partial solution)
//                          or fails with exit code 4
//   --checkpoint=<file>    freeze the routed state (design, options,
//                          topologies, usage) for later `streak eco`
//   --quiet                only the summary line
//
// eco options:
//   --deltas=<file>        delta script to apply (required); directives
//                          MOVEPIN / ADDBLOCKAGE / REMOVEBLOCKAGE /
//                          RESIZECAPACITY, '#' comments
//   --threads=<n>          override the checkpoint's thread count (the
//                          result is identical for every value)
//   --cold-check           also re-route the mutated design from scratch,
//                          report incremental-vs-cold timing and verify
//                          the incremental result is byte-identical to
//                          the cold one (exit 1 if not)
//   --report=<file.json>   write the run report (streak-run-report schema
//                          plus an "eco" section); turns on detail
//                          instrumentation for the run
//   --save=<file>          checkpoint the stitched result, so another
//                          delta batch can chain on top
//   --quiet                only the summary lines
//
// campaign run options:
//   --store=<file.jsonl>   append one schema-versioned record per sweep
//                          point (config x suite x threads) to this
//                          JSON-lines store (required)
//   --configs=<a,b>        built-in configs to sweep (default all:
//                          pd, pd-nopost, ilp, manual)
//   --suites=<1,3,7>       shrunk synth suites to route (default 1-7)
//   --threads=<0,2>        thread counts to sweep (default 0); counter
//                          values are identical for every count
//   --scale-counter=<name:factor>
//                          multiply a persisted counter (repeatable);
//                          drill knob for exercising `campaign diff`
//   --quiet                no per-run progress lines
//
// campaign diff options:
//   --baseline=<file.jsonl>  store to compare against (required), e.g.
//                            a prior run or the committed
//                            BENCH_campaign.jsonl; exits 3 when no
//                            record matches a baseline record
//   --verdict=<file.json>    write the machine-readable verdict
//   --counter-pct=<p>        counter growth threshold (default 10);
//                            quality may not regress at all, and wall
//                            time is recorded but never compared
//   --quiet                  only the verdict summary line
//
// The stage table's "concurrency" column is each stage's task seconds
// over its wall seconds: the mean number of tasks in flight, not a
// speedup. It is printed only when the run used more than one thread.
//
// Exit codes: 0 success (possibly degraded), 1 unexpected error, 2 bad
// usage (including a malformed numeric value), 3 invalid input (including
// an option out of range, e.g. --backbones=0), 4 deadline expired, 6
// injected fault, 7 internal error, 8 campaign regression. 5 is unused.
// Every command honors the STREAK_FAULT environment variable ("site" or
// "site:hit", see robust/fault.hpp).
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "eco/checkpoint.hpp"
#include "eco/delta.hpp"
#include "eco/eco.hpp"
#include "flow/report.hpp"
#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "core/validate.hpp"
#include "io/design_io.hpp"
#include "io/heatmap.hpp"
#include "io/svg.hpp"
#include "io/table.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"
#include "robust/error.hpp"
#include "robust/fault.hpp"

namespace {

using namespace streak;

/// A malformed command line: main() prints it and exits 2.
class UsageError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Strict numeric values: the whole text must be one number, or the flag
/// is a usage error. Range checks are runStreak's (exit 3).
int intValue(const std::string& text, const std::string& what) {
    size_t used = 0;
    int v = 0;
    try {
        v = std::stoi(text, &used);
    } catch (const std::logic_error&) {
        used = 0;
    }
    if (used == 0 || used != text.size()) {
        throw UsageError("bad " + what + " '" + text + "'");
    }
    return v;
}

double doubleValue(const std::string& text, const std::string& what) {
    size_t used = 0;
    double v = 0.0;
    try {
        v = std::stod(text, &used);
    } catch (const std::logic_error&) {
        used = 0;
    }
    if (used == 0 || used != text.size()) {
        throw UsageError("bad " + what + " '" + text + "'");
    }
    return v;
}

int usage() {
    std::cerr << "usage:\n"
              << "  streak generate <suite 1-7> <out.streak>\n"
              << "  streak info <design.streak>\n"
              << "  streak campaign run --store=FILE.jsonl [--configs=A,B]"
                 " [--suites=1,2,..] [--threads=N,M]"
                 " [--scale-counter=NAME:FACTOR] [--quiet]\n"
              << "  streak campaign diff <store.jsonl> --baseline=FILE.jsonl"
                 " [--verdict=FILE.json]"
                 " [--counter-pct=P] [--quiet]\n"
              << "  streak route <design.streak> [--solver=pd|ilp|hilp]"
                 " [--ilp-limit=SEC] [--threads=N] [--no-post]"
                 " [--no-clustering] [--no-refinement] [--backbones=K]"
                 " [--heatmap=FILE] [--svg=FILE] [--report=FILE.json]"
                 " [--trace=FILE.json]"
                 " [--deadline=SEC] [--checkpoint=FILE] [--quiet]\n"
              << "  streak eco <ckpt> --deltas=FILE [--threads=N]"
                 " [--cold-check] [--report=FILE.json] [--save=FILE]"
                 " [--quiet]\n"
              << "\n"
                 "route prints a per-stage table; its concurrency column"
                 " (task seconds / wall seconds) appears only for"
                 " multi-threaded runs.\n"
                 "exit codes: 0 ok, 1 unexpected, 2 usage, 3 invalid input,"
                 " 4 deadline, 6 injected fault, 7 internal,"
                 " 8 campaign regression.\n";
    return 2;
}

int cmdGenerate(int argc, char** argv) {
    if (argc != 4) return usage();
    const int suite = intValue(argv[2], "suite index");
    if (suite < 1 || suite > 7) {
        std::cerr << "streak: suite index must be 1..7\n";
        return 2;
    }
    const Design d = gen::makeSynth(suite);
    io::writeDesignFile(d, argv[3]);
    std::cout << "wrote " << argv[3] << " (" << d.numGroups() << " groups, "
              << d.numNets() << " nets)\n";
    return 0;
}

int cmdInfo(int argc, char** argv) {
    if (argc != 3) return usage();
    const Design d = io::readDesignFile(argv[2]);
    io::Table t({"metric", "value"});
    t.addRow({"grid", std::to_string(d.grid.width()) + " x " +
                          std::to_string(d.grid.height()) + " x " +
                          std::to_string(d.grid.numLayers())});
    t.addRow({"signal groups", std::to_string(d.numGroups())});
    t.addRow({"nets (bits)", std::to_string(d.numNets())});
    t.addRow({"total pins", std::to_string(d.totalPins())});
    t.addRow({"Np_max", std::to_string(d.maxPins())});
    t.addRow({"W_max", std::to_string(d.maxWidth())});
    t.print(std::cout);
    const auto issues = validateDesign(d);
    for (const ValidationIssue& i : issues) {
        std::cout << (i.severity == ValidationIssue::Severity::Error
                          ? "error: "
                          : "warning: ")
                  << i.message << '\n';
    }
    if (issues.empty()) std::cout << "design is clean\n";
    return isRoutable(issues) ? 0 : 1;
}

int cmdRoute(int argc, char** argv) {
    if (argc < 3) return usage();
    const std::string path = argv[2];
    StreakOptions opts;
    opts.postOptimize = true;
    opts.ilpTimeLimitSeconds = 60.0;
    std::string heatmapPath;
    std::string svgPath;
    std::string reportPath;
    std::string tracePath;
    std::string checkpointPath;
    bool quiet = false;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char* prefix) -> std::string {
            return arg.substr(std::strlen(prefix));
        };
        if (arg == "--solver=pd") {
            opts.solver = SolverKind::PrimalDual;
        } else if (arg == "--solver=ilp") {
            opts.solver = SolverKind::Ilp;
        } else if (arg == "--solver=hilp") {
            opts.solver = SolverKind::IlpHierarchical;
        } else if (arg.rfind("--ilp-limit=", 0) == 0) {
            opts.ilpTimeLimitSeconds =
                doubleValue(value("--ilp-limit="), "--ilp-limit");
        } else if (arg.rfind("--threads=", 0) == 0) {
            opts.threads = intValue(value("--threads="), "--threads");
        } else if (arg == "--no-post") {
            opts.postOptimize = false;
        } else if (arg == "--no-clustering") {
            opts.clusteringEnabled = false;
        } else if (arg == "--no-refinement") {
            opts.refinementEnabled = false;
        } else if (arg.rfind("--backbones=", 0) == 0) {
            opts.backbone.maxBackbones =
                intValue(value("--backbones="), "--backbones");
        } else if (arg.rfind("--heatmap=", 0) == 0) {
            heatmapPath = value("--heatmap=");
        } else if (arg.rfind("--svg=", 0) == 0) {
            svgPath = value("--svg=");
        } else if (arg.rfind("--report=", 0) == 0) {
            reportPath = value("--report=");
        } else if (arg.rfind("--trace=", 0) == 0) {
            tracePath = value("--trace=");
        } else if (arg.rfind("--deadline=", 0) == 0) {
            opts.deadlineSeconds =
                doubleValue(value("--deadline="), "--deadline");
        } else if (arg.rfind("--checkpoint=", 0) == 0) {
            checkpointPath = value("--checkpoint=");
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            std::cerr << "streak: unknown option " << arg << '\n';
            return 2;
        }
    }

    // Either export needs the detailed spans / counters; the run takes
    // its detail gate from this thread's.
    if (!reportPath.empty() || !tracePath.empty()) {
        obs::setDetailEnabled(true);
    }

    const Design d = io::readDesignFile(path);
    const FlowResult flow = runStreak(d, opts);
    if (!flow.ok()) {
        std::cerr << "streak: " << flow.error().describe() << '\n';
        return robust::exitCodeFor(flow.error().kind);
    }
    const StreakResult& r = flow.value();

    for (const robust::Degradation& deg : r.degradations) {
        std::cerr << "streak: degraded: " << deg.rung << " at " << deg.stage
                  << " (" << deg.message << ")\n";
    }
    std::cout << "routed " << r.metrics.routedBits << "/"
              << r.metrics.totalBits << " ("
              << io::Table::percent(r.metrics.routability) << "), WL "
              << r.metrics.wirelength << ", Avg(Reg) "
              << io::Table::percent(r.metrics.avgRegularity) << ", Vio(dst) "
              << r.distanceViolationsBefore << " -> "
              << r.distanceViolationsAfter << ", overflow "
              << r.metrics.totalOverflow << '\n';
    if (!quiet) {
        // A single-threaded run has no concurrency — every stage would
        // print "1.00" noise — so the column only appears for
        // multi-threaded runs.
        const bool showConcurrency = r.threadsUsed > 1;
        const auto concurrency = [](const parallel::RegionStats& s) {
            if (s.regions == 0) return std::string("-");
            return io::Table::fixed(s.speedupEstimate(), 2);
        };
        std::vector<std::string> header{"stage", "seconds"};
        if (showConcurrency) header.push_back("concurrency");
        io::Table t(header);
        const auto addStage = [&](std::string name, std::string seconds,
                                  const parallel::RegionStats& stats) {
            std::vector<std::string> row{std::move(name), std::move(seconds)};
            if (showConcurrency) row.push_back(concurrency(stats));
            t.addRow(row);
        };
        addStage("build (identify+candidates)",
                 io::Table::fixed(r.buildSeconds(), 3), r.buildParallel());
        const char* solverName =
            opts.solver == SolverKind::Ilp               ? "solve (ILP)"
            : opts.solver == SolverKind::IlpHierarchical ? "solve (hier. ILP)"
                                                         : "solve (primal-dual)";
        addStage(solverName,
                 io::Table::fixed(r.solveSeconds(), 3) +
                     (r.hitTimeLimit ? " (limit)" : ""),
                 r.solveParallel());
        addStage("distance analysis", io::Table::fixed(r.distanceSeconds(), 3),
                 r.distanceParallel());
        addStage("post optimization", io::Table::fixed(r.postSeconds(), 3),
                 r.postParallel());
        t.print(std::cout);
        std::cout << "objects: " << r.problem.numObjects()
                  << ", unrouted bits: " << r.routed.unroutedMembers.size()
                  << ", threads: " << r.threadsUsed << '\n';
    }
    if (!reportPath.empty()) {
        std::ofstream os(reportPath);
        if (!os) {
            std::cerr << "streak: cannot open " << reportPath << '\n';
            return 1;
        }
        flow::writeRunReport(d, opts, r, os);
        if (!quiet) std::cout << "wrote " << reportPath << '\n';
    }
    if (!tracePath.empty()) {
        std::ofstream os(tracePath);
        if (!os) {
            std::cerr << "streak: cannot open " << tracePath << '\n';
            return 1;
        }
        obs::writeChromeTrace(r.trace, os);
        if (!quiet) std::cout << "wrote " << tracePath << '\n';
    }
    if (!heatmapPath.empty()) {
        std::ofstream os(heatmapPath);
        if (!os) {
            std::cerr << "streak: cannot open " << heatmapPath << '\n';
            return 1;
        }
        io::writeCsvHeatmap(r.routed.usage, os);
        if (!quiet) std::cout << "wrote " << heatmapPath << '\n';
    }
    if (!svgPath.empty()) {
        std::ofstream os(svgPath);
        if (!os) {
            std::cerr << "streak: cannot open " << svgPath << '\n';
            return 1;
        }
        io::writeSvg(r.routed, os);
        if (!quiet) std::cout << "wrote " << svgPath << '\n';
    }
    if (!checkpointPath.empty()) {
        eco::writeCheckpointFile(eco::makeCheckpoint(d, opts, r),
                                 checkpointPath);
        if (!quiet) std::cout << "wrote " << checkpointPath << '\n';
    }
    return 0;
}

int cmdEco(int argc, char** argv) {
    if (argc < 3) return usage();
    const std::string ckptPath = argv[2];
    std::string deltasPath;
    std::string reportPath;
    std::string savePath;
    int threads = -1;
    bool coldCheck = false;
    bool quiet = false;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char* prefix) -> std::string {
            return arg.substr(std::strlen(prefix));
        };
        if (arg.rfind("--deltas=", 0) == 0) {
            deltasPath = value("--deltas=");
        } else if (arg.rfind("--threads=", 0) == 0) {
            threads = intValue(value("--threads="), "--threads");
        } else if (arg == "--cold-check") {
            coldCheck = true;
        } else if (arg.rfind("--report=", 0) == 0) {
            reportPath = value("--report=");
        } else if (arg.rfind("--save=", 0) == 0) {
            savePath = value("--save=");
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            std::cerr << "streak: unknown option " << arg << '\n';
            return 2;
        }
    }
    if (deltasPath.empty()) {
        std::cerr << "streak: eco needs --deltas=FILE\n";
        return 2;
    }

    const eco::Checkpoint ckpt = eco::readCheckpointFile(ckptPath);
    const std::vector<eco::Delta> deltas =
        eco::parseDeltaScriptFile(deltasPath);
    if (!quiet) {
        std::cout << "loaded " << ckptPath << " ("
                  << ckpt.design->numGroups() << " groups, "
                  << ckpt.design->numNets() << " nets), " << deltas.size()
                  << " delta" << (deltas.size() == 1 ? "" : "s") << '\n';
    }

    // The report carries the closure run's hot-path counters and spans.
    if (!reportPath.empty()) obs::setDetailEnabled(true);
    obs::Stopwatch watch;
    const eco::EcoResult r = eco::runEco(ckpt, deltas, threads);
    const double incrementalSeconds = watch.seconds();

    StreakOptions effective = eco::semanticOptions(ckpt.opts);
    if (threads >= 0) effective.threads = threads;

    for (const robust::Degradation& deg : r.degradations) {
        std::cerr << "streak: degraded: " << deg.rung << " at " << deg.stage
                  << " (" << deg.message << ")\n";
    }
    std::cout << "eco: re-solved " << r.resolvedGroups.size() << "/"
              << r.totalGroups << " groups (carried " << r.carriedGroups()
              << "), " << io::Table::fixed(incrementalSeconds, 3) << "s\n";
    std::cout << "routed " << r.metrics.routedBits << "/"
              << r.metrics.totalBits << " ("
              << io::Table::percent(r.metrics.routability) << "), WL "
              << r.metrics.wirelength << ", Avg(Reg) "
              << io::Table::percent(r.metrics.avgRegularity) << ", Vio(dst) "
              << r.distanceViolationsBefore << " -> "
              << r.distanceViolationsAfter << ", overflow "
              << r.metrics.totalOverflow << '\n';

    double coldSeconds = -1.0;
    if (coldCheck) {
        watch.restart();
        const FlowResult coldFlow = runStreak(*r.design, effective);
        coldSeconds = watch.seconds();
        if (!coldFlow.ok()) {
            std::cerr << "streak: cold re-route failed: "
                      << coldFlow.error().describe() << '\n';
            return robust::exitCodeFor(coldFlow.error().kind);
        }
        std::cout << "cold: re-solved " << r.totalGroups << "/"
                  << r.totalGroups << " groups, "
                  << io::Table::fixed(coldSeconds, 3) << "s";
        if (coldSeconds > 0.0 && incrementalSeconds > 0.0) {
            std::cout << " (incremental "
                      << io::Table::fixed(coldSeconds / incrementalSeconds, 2)
                      << "x)";
        }
        std::cout << '\n';
        std::string diff;
        if (!eco::equivalent(r, coldFlow.value(), &diff)) {
            std::cerr << "streak: eco/cold mismatch: " << diff << '\n';
            return 1;
        }
        std::cout << "cold-check: incremental result is byte-identical"
                     " to the cold re-route\n";
    }

    if (!reportPath.empty()) {
        std::ofstream os(reportPath);
        if (!os) {
            std::cerr << "streak: cannot open " << reportPath << '\n';
            return 1;
        }
        eco::buildEcoReport(r, effective, incrementalSeconds, coldSeconds)
            .write(os, 2);
        os << '\n';
        if (!quiet) std::cout << "wrote " << reportPath << '\n';
    }
    if (!savePath.empty()) {
        eco::writeCheckpointFile(eco::makeCheckpoint(r, effective), savePath);
        if (!quiet) std::cout << "wrote " << savePath << '\n';
    }
    return 0;
}

/// "1,3,7" -> {1, 3, 7}; throws UsageError on junk.
std::vector<int> parseIntList(const std::string& text, const char* what) {
    std::vector<int> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        out.push_back(intValue(item, std::string(what) + " entry"));
    }
    if (out.empty()) throw UsageError(std::string("empty ") + what + " list");
    return out;
}

int cmdCampaignRun(int argc, char** argv) {
    campaign::CampaignSpec spec;
    std::string storePath;
    bool quiet = false;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char* prefix) -> std::string {
            return arg.substr(std::strlen(prefix));
        };
        if (arg.rfind("--store=", 0) == 0) {
            storePath = value("--store=");
        } else if (arg.rfind("--configs=", 0) == 0) {
            spec.configs.clear();
            std::stringstream ss(value("--configs="));
            std::string name;
            while (std::getline(ss, name, ',')) {
                spec.configs.push_back(campaign::configByName(name));
            }
        } else if (arg.rfind("--suites=", 0) == 0) {
            spec.suites = parseIntList(value("--suites="), "suite");
        } else if (arg.rfind("--threads=", 0) == 0) {
            spec.threads = parseIntList(value("--threads="), "threads");
        } else if (arg.rfind("--scale-counter=", 0) == 0) {
            const std::string knob = value("--scale-counter=");
            const size_t colon = knob.rfind(':');
            if (colon == std::string::npos || colon == 0) {
                std::cerr << "streak: --scale-counter wants NAME:FACTOR\n";
                return 2;
            }
            spec.scaleCounters[knob.substr(0, colon)] = doubleValue(
                knob.substr(colon + 1), "--scale-counter factor");
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            std::cerr << "streak: unknown option " << arg << '\n';
            return 2;
        }
    }
    if (storePath.empty()) {
        std::cerr << "streak: campaign run needs --store=FILE.jsonl\n";
        return 2;
    }

    const std::vector<campaign::RunRecord> records =
        campaign::runCampaign(spec, quiet ? nullptr : &std::cout);
    std::ofstream os(storePath, std::ios::app);
    if (!os) {
        std::cerr << "streak: cannot open " << storePath << '\n';
        return 1;
    }
    campaign::appendStore(records, os);
    std::cout << "campaign: appended " << records.size() << " record"
              << (records.size() == 1 ? "" : "s") << " to " << storePath
              << '\n';
    return 0;
}

int cmdCampaignDiff(int argc, char** argv) {
    if (argc < 4) return usage();
    const std::string currentPath = argv[3];
    std::string baselinePath;
    std::string verdictPath;
    double counterGrowth = campaign::kDefaultCounterGrowth;
    bool quiet = false;
    for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char* prefix) -> std::string {
            return arg.substr(std::strlen(prefix));
        };
        if (arg.rfind("--baseline=", 0) == 0) {
            baselinePath = value("--baseline=");
        } else if (arg.rfind("--verdict=", 0) == 0) {
            verdictPath = value("--verdict=");
        } else if (arg.rfind("--counter-pct=", 0) == 0) {
            counterGrowth =
                doubleValue(value("--counter-pct="), "--counter-pct") / 100.0;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            std::cerr << "streak: unknown option " << arg << '\n';
            return 2;
        }
    }
    if (baselinePath.empty()) {
        std::cerr << "streak: campaign diff needs --baseline=FILE.jsonl\n";
        return 2;
    }

    const campaign::Store current = campaign::readStoreFile(currentPath);
    for (const std::string& problem : current.problems) {
        std::cerr << "streak: campaign: " << problem << '\n';
    }
    if (current.records.empty()) {
        std::cerr << "streak: " << currentPath
                  << " holds no valid campaign records\n";
        return 3;
    }
    const campaign::Store baseline = campaign::readStoreFile(baselinePath);
    for (const std::string& problem : baseline.problems) {
        std::cerr << "streak: campaign: " << problem << '\n';
    }
    const campaign::DiffReport report =
        campaign::diffAgainstStore(baseline, current, counterGrowth);
    const int status = campaign::diffExitCode(report);
    if (report.comparedRuns == 0) {
        // Every record was skipped, so there is no verdict to write.
        std::cerr << "streak: campaign diff compared no runs against "
                  << baselinePath << ": " << report.notes.front() << '\n';
        return status;
    }

    if (!quiet) {
        for (const std::string& note : report.notes) {
            std::cout << "campaign: note (store): " << note << '\n';
        }
    }
    for (const campaign::Regression& r : report.regressions) {
        std::cerr << "campaign: REGRESSION (store) [" << r.stage() << "] "
                  << r.kind << ' ' << r.config << '/' << r.instance << ' '
                  << r.metric << ": "
                  << r.baseline << " -> " << r.current << " ("
                  << io::Table::fixed(r.growthPercent, 1) << "%)\n";
    }
    const obs::json::Value verdict = campaign::verdictJson({report});
    if (!verdictPath.empty()) {
        std::ofstream os(verdictPath);
        if (!os) {
            std::cerr << "streak: cannot open " << verdictPath << '\n';
            return 1;
        }
        verdict.write(os, 2);
        os << '\n';
        if (!quiet) std::cout << "wrote " << verdictPath << '\n';
    }
    const size_t regressions = report.regressions.size();
    std::cout << "campaign: " << report.comparedRuns << " comparison"
              << (report.comparedRuns == 1 ? "" : "s") << ", " << regressions
              << " regression" << (regressions == 1 ? "" : "s");
    const char* sep = " (";
    for (const auto& [stage, count] : campaign::regressionsByStage({report})) {
        std::cout << sep << stage << ": " << count;
        sep = ", ";
    }
    std::cout << (regressions > 0 ? ")\n" : "\n");
    return status;
}

int cmdCampaign(int argc, char** argv) {
    if (argc < 3) return usage();
    const std::string sub = argv[2];
    if (sub == "run") return cmdCampaignRun(argc, argv);
    if (sub == "diff") return cmdCampaignDiff(argc, argv);
    std::cerr << "streak: unknown campaign subcommand " << sub << '\n';
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    streak::robust::armFaultFromEnv();
    try {
        if (cmd == "generate") return cmdGenerate(argc, argv);
        if (cmd == "info") return cmdInfo(argc, argv);
        if (cmd == "route") return cmdRoute(argc, argv);
        if (cmd == "eco") return cmdEco(argc, argv);
        if (cmd == "campaign") return cmdCampaign(argc, argv);
    } catch (const UsageError& e) {
        std::cerr << "streak: " << e.what() << '\n';
        return 2;
    } catch (const streak::robust::StreakException& e) {
        // Structured failures outside runStreak (e.g. reading the design
        // file) still map to their distinct exit codes.
        std::cerr << "streak: " << e.error().describe() << '\n';
        return streak::robust::exitCodeFor(e.error().kind);
    } catch (const std::exception& e) {
        std::cerr << "streak: " << e.what() << '\n';
        return 1;
    }
    return usage();
}
