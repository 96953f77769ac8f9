// End-to-end benchmark of the Streak flow (see README.md beside this
// file). One process runs one seeded workload as a closed loop with a
// single client: the next op starts when the previous one returned.
//
//   streak_bench --workload open-mixed --seed 1 --seconds 25 --trace 0
//
// --trace 0 times runStreak / eco::runEco with the observer unset, so the
// flow's detail instrumentation stays off, and reports the end-to-end
// metrics. Their timings are scaled to a fixed host speed (Yardstick
// below). --trace 1 reports the per-layer metrics instead: every op runs
// once untraced and once through each layer's public entry point, called
// from this file under a bench span, with the library's own counters read
// from a bench-bound obs::Session; the spans are written as a chrome
// trace (--trace-out FILE). --ops N stops after N ops and caps every
// design set at N designs (the smoke test uses it).
//
// Every op passes a correctness gate outside the timed region. The last
// line of stdout is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/audit.hpp"
#include "core/distance.hpp"
#include "core/ilp_router.hpp"
#include "core/metrics.hpp"
#include "core/pd_solver.hpp"
#include "core/problem.hpp"
#include "core/solution.hpp"
#include "eco/checkpoint.hpp"
#include "eco/delta.hpp"
#include "eco/eco.hpp"
#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/process.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "post/clustering.hpp"
#include "post/refine.hpp"
#include "reference.hpp"
#include "robust/error.hpp"
#include "steiner/rsmt.hpp"

namespace {

using namespace streak;

/// Worker threads of every run: fixed, so per-op latency does not depend
/// on the host's core count (the flow's output does not either).
constexpr int kThreads = 2;
/// Set-up runs this many times per process; setup_s is the median.
constexpr int kSetupRepeats = 5;
/// Seed of the set-up designs, in place of --seed: every run sets up the
/// same designs, so set-up time and the quality metrics, which come from
/// those routes, do not vary with --seed. The ops still do.
constexpr std::uint64_t kSetupSeed = 0;
/// Far above any ilp-exact op, so a limit hit means a real regression.
constexpr double kIlpTimeLimitSeconds = 120.0;
/// An ECO chain restarts from its base route after this many batches.
/// Blockages and capacity cuts pile up along a chain, and each seed piles
/// them up differently: over 40 batches one seed's p90 rose from 28 to
/// 38 ms, and chains ended 0.9-1.5x as slow as their start. Short chains
/// keep every run's ops near the same distribution.
constexpr int kChainLength = 8;

/// Time of one perfbench::ReferenceKernel::run() at the reference speed,
/// a round figure near its time on a quiet 4-vCPU x86-64 host (2.1 GHz
/// Xeon). Reported timings are seconds at that speed.
constexpr double kReferenceSeconds = 0.002;
/// The kernel is probed this often during the op loop...
constexpr double kProbeEverySeconds = 0.5;
/// ...as the median of this many back-to-back calls, which drops a call
/// that an interrupt lengthened...
constexpr int kProbeCalls = 3;
/// ...and an op is scaled by the median of the probes up to this many
/// before and after its own, about two seconds of host speed.
constexpr int kProbeReach = 2;

const obs::Stopwatch kSinceStart;

/// Progress on stderr: wall seconds since start when a phase ends.
void phaseDone(const char* phase) {
    std::cerr << "streak_bench: " << phase << " done at "
              << kSinceStart.seconds() << " s\n";
}

// ------------------------------------------------------------ seeding

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Seed of item `index` of the named input stream. Every input the bench
/// makes is drawn this way, so --seed alone fixes all of them.
std::uint32_t streamSeed(std::uint64_t seed, std::string_view stream,
                         std::uint64_t index) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : stream) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
    return static_cast<std::uint32_t>(mix64(mix64(seed ^ h) + index));
}

// ---------------------------------------------------------- workloads

enum class Kind { Route, Eco };

struct Workload {
    std::string name;
    Kind kind = Kind::Route;
    StreakOptions opts;
    /// Suite specs the designs cycle through; design i of a stream uses
    /// classes[i % size] with its own seed.
    std::vector<gen::SuiteSpec> classes;
    /// Designs of the set-up, drawn with kSetupSeed. Each set-up routes
    /// them (Eco: and checkpoints them as chain bases); their routes give
    /// the quality metrics.
    int setupDesigns = 0;
};

std::optional<Workload> makeWorkload(const std::string& name) {
    Workload w;
    w.name = name;
    w.opts.threads = kThreads;
    w.opts.postOptimize = true;
    if (name == "open-mixed") {
        // Full-size two-pin and multipin suites with room to route: nearly
        // every bit routes, so problem build and refinement dominate and
        // clustering has almost nothing to do.
        for (const int suite : {1, 2, 4, 5, 7}) {
            w.classes.push_back(gen::synthSpec(suite));
        }
        // synth5's 14-pin nets make its run time vary most across
        // designs; five pins keep it multipin with a steadier p90.
        w.classes[3].maxPins = 5;
        w.setupDesigns = 20;
    } else if (name == "congested-multipin") {
        // synth6's wide multipin groups packed onto a small grid: many
        // bits are left for bottom-up clustering, which dominates.
        gen::SuiteSpec spec = gen::synthSpec(6);
        spec.gridWidth = spec.gridHeight = 28;
        spec.numGroups = 5;
        spec.minGroupWidth = spec.maxGroupWidth = 14;
        spec.maxPins = 5;
        spec.capacity = 5;
        spec.numBlockages = 2;
        w.classes.push_back(spec);
        w.setupDesigns = 40;
    } else if (name == "ilp-exact") {
        // The exact ILP on three-pin groups split into two routing styles,
        // so every group has pair terms, with five layer pairs per object:
        // branch and bound and its LP relaxations dominate. No post stage,
        // which would only dilute it, and no stretched sinks, whose
        // irregular pin maps make solve time and memory heavy-tailed.
        w.opts.solver = SolverKind::Ilp;
        w.opts.ilpTimeLimitSeconds = kIlpTimeLimitSeconds;
        w.opts.postOptimize = false;
        w.opts.maxLayerPairs = 5;
        gen::SuiteSpec spec = gen::synthSpec(5);
        spec.gridWidth = spec.gridHeight = 64;
        spec.numGroups = 6;
        spec.numBlockages = 0;
        spec.minGroupWidth = spec.maxGroupWidth = 4;
        spec.maxPins = 3;
        spec.multipinFraction = 1.0;
        spec.twoStyleFraction = 1.0;
        spec.stretchFraction = 0.0;
        w.classes.push_back(spec);
        w.setupDesigns = 30;
    } else if (name == "eco-chain") {
        // Chains of small edits on routed synth2-size designs: the same
        // layers run on a grid pre-loaded with carried routes.
        w.kind = Kind::Eco;
        w.classes.push_back(gen::synthSpec(2));
        w.setupDesigns = 20;
    } else {
        return std::nullopt;
    }
    return w;
}

/// Design `index` of the named stream of a workload.
Design designFor(const Workload& w, std::uint64_t seed,
                 std::string_view stream, long index) {
    gen::SuiteSpec spec =
        w.classes[static_cast<size_t>(index) % w.classes.size()];
    spec.seed = streamSeed(seed, w.name + "/" + std::string(stream),
                           static_cast<std::uint64_t>(index));
    spec.name += "-" + std::string(stream) + std::to_string(index);
    return gen::generate(spec);
}

/// ECO batch `step` of chain `chain`: 1-4 deltas drawn against the
/// chain's current design — pin moves of up to two G-Cells, small
/// blockages leaving one track, and capacity resizes that keep at least
/// half the default capacity.
std::vector<eco::Delta> deltaBatch(std::uint64_t seed, int chain, int step,
                                   const Design& d) {
    std::mt19937 rng(streamSeed(
        seed, "eco-chain/deltas",
        (static_cast<std::uint64_t>(chain) << 32) |
            static_cast<std::uint32_t>(step)));
    const auto pick = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const grid::RoutingGrid& grid = d.grid;
    const int count = pick(1, 4);
    std::vector<eco::Delta> batch;
    while (static_cast<int>(batch.size()) < count) {
        eco::Delta delta;
        const int kind = pick(0, 2);
        if (kind == 0) {
            delta.kind = eco::DeltaKind::MovePin;
            delta.group = pick(0, d.numGroups() - 1);
            const SignalGroup& g = d.groups[static_cast<size_t>(delta.group)];
            delta.bit = pick(0, g.width() - 1);
            const Bit& bit = g.bits[static_cast<size_t>(delta.bit)];
            delta.pin = pick(0, bit.numPins() - 1);
            const geom::Point from = bit.pins[static_cast<size_t>(delta.pin)];
            delta.to = {std::clamp(from.x + pick(-2, 2), 1, grid.width() - 2),
                        std::clamp(from.y + pick(-2, 2), 1, grid.height() - 2)};
            // A pin landing on another pin of its bit would make the net
            // degenerate; draw again.
            if (std::find(bit.pins.begin(), bit.pins.end(), delta.to) !=
                bit.pins.end()) {
                continue;
            }
        } else {
            const int x = pick(0, grid.width() - 3);
            const int y = pick(0, grid.height() - 3);
            delta.area = {{x, y}, {x + pick(0, 2), y + pick(0, 2)}};
            delta.layer = pick(0, grid.numLayers() - 1);
            if (kind == 1) {
                delta.kind = eco::DeltaKind::AddBlockage;
                delta.capacity = 1;
            } else {
                delta.kind = eco::DeltaKind::ResizeCapacity;
                delta.capacity = pick(grid.defaultCapacity() / 2,
                                      grid.defaultCapacity());
            }
        }
        batch.push_back(delta);
    }
    return batch;
}

// ---------------------------------------------------- correctness gate

bool sameBits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// What the gate compares between two routes of one design: the headline
/// metrics bit for bit, Vio(dst) after post, and a hash of the per-edge
/// (and per-cell via) usage.
struct Outcome {
    Metrics metrics;
    int vioAfter = 0;
    std::uint64_t usageHash = 0;

    bool operator==(const Outcome& o) const {
        const Metrics& a = metrics;
        const Metrics& b = o.metrics;
        return a.totalBits == b.totalBits && a.routedBits == b.routedBits &&
               sameBits(a.routability, b.routability) &&
               a.wirelength == b.wirelength &&
               sameBits(a.avgRegularity, b.avgRegularity) &&
               a.totalOverflow == b.totalOverflow &&
               a.overflowedEdges == b.overflowedEdges &&
               a.totalViaOverflow == b.totalViaOverflow &&
               vioAfter == o.vioAfter && usageHash == o.usageHash;
    }
};

Outcome outcomeOf(const Metrics& metrics, int vioAfter,
                  const RoutedDesign& routed) {
    const grid::RoutingGrid& grid = routed.usage.grid();
    std::uint64_t h = 1469598103934665603ULL;
    const auto add = [&h](int v) {
        h = (h ^ static_cast<std::uint32_t>(v)) * 1099511628211ULL;
    };
    for (int e = 0; e < grid.numEdges(); ++e) add(routed.usage.usage(e));
    if (grid.viaLimited()) {
        for (int c = 0; c < grid.numCells(); ++c) add(routed.usage.viaUsage(c));
    }
    return {metrics, vioAfter, h};
}

Outcome outcomeOf(const StreakResult& r) {
    return outcomeOf(r.metrics, r.distanceViolationsAfter, r.routed);
}

/// Why a flow run fails the gate: an error, a degradation rung, an ILP
/// time-limit hit or a deep routed-design audit finding. Empty when it
/// passes.
std::string flowFailure(const FlowResult& r) {
    if (!r.ok()) return "flow error: " + r.error().describe();
    const StreakResult& v = r.value();
    if (v.degraded()) return "degraded: " + v.degradations.front().rung;
    if (v.hitTimeLimit) return "ilp time limit hit";
    const check::AuditResult audit =
        check::auditRoutedDesign(v.problem, v.routed);
    if (!audit.ok()) return "audit: " + audit.issues.front();
    return {};
}

/// Why an ECO batch fails the gate short of the cold re-route comparison:
/// a degradation rung, an ILP time-limit hit or an audit finding in the
/// closure's re-route. Empty when it passes.
std::string ecoFailure(const eco::EcoResult& r) {
    if (!r.degradations.empty()) {
        return "degraded: " + r.degradations.front().rung;
    }
    if (r.hitTimeLimit) return "ilp time limit hit";
    if (r.sub) {
        const check::AuditResult audit =
            check::auditRoutedDesign(r.sub->problem, r.sub->routed);
        if (!audit.ok()) return "closure audit: " + audit.issues.front();
    }
    return {};
}

/// Counts every gated op and, once per failed op, its cause.
struct Gate {
    long attempted = 0;
    long failed = 0;
    std::map<std::string, long> causes;

    void record(const std::string& cause) {
        ++attempted;
        if (!cause.empty()) {
            ++failed;
            ++causes[cause];
        }
    }
    /// One record per set-up design; a failure there is labelled as such.
    void recordSetup(const std::vector<std::string>& setupCauses) {
        for (const std::string& cause : setupCauses) {
            record(cause.empty() ? cause : "set-up: " + cause);
        }
    }
};

// ------------------------------------------------------- measurement

/// Linear interpolation between closest ranks (numpy's default).
double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set of this process in MB. Linux's VmHWM belongs to the
/// process image, whereas getrusage's maxrss survives exec and would
/// report a larger launcher's peak; other systems fall back to it.
double peakRssMb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // reported in kB
        }
    }
    return static_cast<double>(obs::processInfo().peakRssKb) / 1024.0;
}

/// Scales timings to a fixed host speed. On a shared host the same work
/// takes up to twice as long for minutes at a time while other tenants
/// load the machine, which no run length averages out. So the bench times
/// a fixed kernel (reference.cpp) every kProbeEverySeconds, between ops,
/// and reports a time t measured while that kernel took r seconds as
/// t * kReferenceSeconds / r: seconds at the reference speed. The kernel
/// shares no code with the program, so a change to the program moves the
/// scaled times as much as the raw ones.
class Yardstick {
public:
    /// Time the kernel now; ops timed after this belong to this probe.
    void probe() {
        std::vector<double> calls;
        for (int k = 0; k < kProbeCalls; ++k) {
            const obs::Stopwatch sw;
            (void)kernel_.run();
            calls.push_back(sw.seconds());
        }
        probes_.push_back(quantile(calls, 0.5));
        sinceProbe_.restart();
    }
    /// Probe if there has been none for kProbeEverySeconds.
    void probeIfDue() {
        if (probes_.empty() || sinceProbe_.seconds() >= kProbeEverySeconds) {
            probe();
        }
    }
    [[nodiscard]] int current() const {
        return static_cast<int>(probes_.size()) - 1;
    }
    /// The factor to reference speed for probes first..last (clamped).
    [[nodiscard]] double scale(int first, int last) const {
        first = std::max(first, 0);
        last = std::min(last, current());
        const std::vector<double> near(probes_.begin() + first,
                                       probes_.begin() + last + 1);
        return kReferenceSeconds / quantile(near, 0.5);
    }
    /// The factor for an op timed after probe `p`.
    [[nodiscard]] double scaleAround(int p) const {
        return scale(p - kProbeReach, p + kProbeReach);
    }
    /// Median kernel time of the run, in raw seconds.
    [[nodiscard]] double medianSeconds() const {
        return quantile(probes_, 0.5);
    }

private:
    perfbench::ReferenceKernel kernel_;
    std::vector<double> probes_;
    obs::Stopwatch sinceProbe_;
};

/// Run the set-up kSetupRepeats times, each between two probes and scaled
/// by their median; returns the last result (every repeat computes the
/// same one) and the median scaled set-up time.
template <typename Fn>
auto timedSetups(Yardstick* ref, Fn&& setup) {
    std::vector<double> seconds;
    std::optional<decltype(setup())> last;
    std::cerr << "streak_bench: set-up seconds (raw)";
    ref->probe();
    for (int i = 0; i < kSetupRepeats; ++i) {
        last.reset();
        const obs::Stopwatch sw;
        last.emplace(setup());
        const double raw = sw.seconds();
        ref->probe();
        seconds.push_back(raw *
                          ref->scale(ref->current() - 1, ref->current()));
        std::cerr << ' ' << raw;
    }
    std::cerr << '\n';
    phaseDone("set-up");
    return std::make_pair(std::move(*last), quantile(seconds, 0.5));
}

/// Spans recorded by bench code around each layer call, one track, parents
/// by nesting; kept in memory and written as a chrome trace at exit.
class SpanLog {
public:
    int begin(std::string name) {
        obs::Span s;
        s.name = std::move(name);
        s.parent = open_.empty() ? -1 : open_.back();
        s.startSeconds = kSinceStart.seconds();
        spans_.push_back(std::move(s));
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }
    /// Close span `id` and any span still open inside it (an exception
    /// can skip their ends); returns its length.
    double end(int id) {
        const double now = kSinceStart.seconds();
        while (!open_.empty()) {
            const int top = open_.back();
            open_.pop_back();
            spans_[static_cast<size_t>(top)].endSeconds = now;
            if (top == id) break;
        }
        return spans_[static_cast<size_t>(id)].seconds();
    }
    void write(const std::string& path) const {
        if (path.empty()) return;
        std::ofstream os(path);
        obs::writeChromeTrace(spans_, os);
        if (!os) std::cerr << "streak_bench: cannot write " << path << '\n';
    }

private:
    obs::Trace spans_;
    std::vector<int> open_;
};

/// Run `fn` under a span; adds its seconds to `*total`.
template <typename Fn>
auto spanned(SpanLog* log, const char* name, double* total, Fn&& fn) {
    const int id = log->begin(name);
    auto value = fn();
    *total += log->end(id);
    return value;
}

/// Per-layer sums over the traced ops, keyed by metric name.
using Sums = std::map<std::string, double>;

/// Quality of a fixed set of routes, summed over its designs.
struct Quality {
    long bits = 0;
    long routedBits = 0;
    double wirelength = 0.0;
    double mstLength = 0.0;
    double regularity = 0.0;
    int designs = 0;

    void add(const Design& d, const Metrics& m) {
        bits += m.totalBits;
        routedBits += m.routedBits;
        wirelength += static_cast<double>(m.wirelength);
        for (const SignalGroup& g : d.groups) {
            for (const Bit& b : g.bits) {
                mstLength += static_cast<double>(steiner::mstLength(b.pins));
            }
        }
        regularity += m.avgRegularity;
        ++designs;
    }
};

/// Latency and routed bits of every timed op, each latency scaled to the
/// reference speed by the probes around it. The statistics pool the whole
/// run: clustering and ILP times are heavy-tailed across designs, so a
/// run's p90 and bit rate are only as steady as the number of designs
/// behind them.
struct Samples {
    std::vector<double> seconds;
    double bits = 0.0;
    double busy = 0.0;

    void add(double s, int b) {
        seconds.push_back(s);
        bits += b;
        busy += s;
    }
    [[nodiscard]] double latency(double q) const { return quantile(seconds, q); }
    [[nodiscard]] double bitsPerSecond() const { return ratio(bits, busy); }
};

/// Raw op times, each with the probe it followed; scaled once the probes
/// after the last op are in.
struct RawSamples {
    std::vector<double> seconds;
    std::vector<int> probe;
    std::vector<int> bits;

    void add(double s, int p, int b) {
        seconds.push_back(s);
        probe.push_back(p);
        bits.push_back(b);
    }
    [[nodiscard]] Samples scaled(const Yardstick& ref) const {
        Samples out;
        for (size_t i = 0; i < seconds.size(); ++i) {
            out.add(seconds[i] * ref.scaleAround(probe[i]), bits[i]);
        }
        return out;
    }
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Report {
    Gate gate;
    std::vector<Metric> metrics;
};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
    long ops = -1;  ///< < 0: run for `seconds`
};

/// True while the op loop should start another op. The loop runs for
/// --seconds of wall time, probes, gate and trace passes included, so a
/// run's length does not depend on how much of it is timed.
bool another(const Args& args, long done, const obs::Stopwatch& loop) {
    if (args.ops >= 0) return done < args.ops;
    return done == 0 || loop.seconds() < args.seconds;
}

/// A workload design count, capped by --ops so the smoke test stays short.
long capped(int designs, const Args& args) {
    if (args.ops < 0) return designs;
    return std::min<long>(designs, std::max(1L, args.ops));
}

void addEndToEnd(Report* rep, const Samples& s, double setupSeconds,
                 const Quality& q) {
    rep->metrics = {
        {"latency_s_p50", s.latency(0.5), "s"},
        {"latency_s_p90", s.latency(0.9), "s"},
        {"bits_per_s", s.bitsPerSecond(), "1/s"},
        {"setup_s", setupSeconds, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"routed_fraction",
         ratio(static_cast<double>(q.routedBits), static_cast<double>(q.bits)),
         "ratio"},
        {"wirelength_ratio", ratio(q.wirelength, q.mstLength), "ratio"},
        {"avg_regularity", ratio(q.regularity, q.designs), "ratio"},
    };
}

/// The per-layer metrics in output order, each with its unit and how it
/// derives from the sums: a mean per traced op, a total, or a ratio.
struct LayerMetric {
    const char* name;
    const char* unit;
    const char* num;  ///< sum key
    const char* den;  ///< sum key, or "ops" for a mean, or nullptr: total
};

const std::vector<LayerMetric>& layerMetrics() {
    static const std::vector<LayerMetric> kMetrics = {
        {"core.build_s", "s", "core.build_s", "ops"},
        {"core.objects", "count", "core.objects", "ops"},
        {"core.candidates", "count", "core.candidates", "ops"},
        {"core.pair_cost_cells", "count", "core.pair_cost_cells", "ops"},
        {"core.pd_solve_s", "s", "core.pd_solve_s", "ops"},
        {"core.pd_iterations", "count", "core.pd_iterations", "ops"},
        {"core.materialize_s", "s", "core.materialize_s", "ops"},
        {"core.distance_s", "s", "core.distance_s", "ops"},
        {"core.evaluate_s", "s", "core.evaluate_s", "ops"},
        {"parallel.build_task_s", "s", "parallel.build_task_s", "ops"},
        {"parallel.build_speedup", "ratio", "parallel.build_task_s",
         "parallel.build_wall_s"},
        {"ilp.solve_s", "s", "ilp.solve_s", "ops"},
        {"ilp.bnb_nodes", "count", "ilp.bnb_nodes", "ops"},
        {"ilp.components", "count", "ilp.components", "ops"},
        {"ilp.limit_hits", "count", "ilp.limit_hits", nullptr},
        {"ilp.lp_solves", "count", "ilp.lp_solves", "ops"},
        {"ilp.lp_pivots", "count", "ilp.lp_pivots", "ops"},
        {"ilp.lp_warm_starts", "count", "ilp.lp_warm_starts", "ops"},
        {"ilp.lp_warm_fallbacks", "count", "ilp.lp_warm_fallbacks", "ops"},
        {"ilp.lp_warm_start_rate", "ratio", "ilp.lp_warm_starts",
         "ilp.lp_warm_attempts"},
        {"post.cluster_s", "s", "post.cluster_s", "ops"},
        {"post.cluster_bits_attempted", "count", "post.cluster_bits_attempted",
         "ops"},
        {"post.cluster_bits_routed", "count", "post.cluster_bits_routed",
         "ops"},
        {"post.cluster_recovery_rate", "ratio", "post.cluster_bits_routed",
         "post.cluster_bits_attempted"},
        {"post.clusters_formed", "count", "post.clusters_formed", "ops"},
        {"post.refine_s", "s", "post.refine_s", "ops"},
        {"post.refine_pins_considered", "count", "post.refine_pins_considered",
         "ops"},
        {"post.refine_pins_fixed", "count", "post.refine_pins_fixed", "ops"},
        {"post.refine_fix_rate", "ratio", "post.refine_pins_fixed",
         "post.refine_pins_considered"},
        {"post.refine_added_wl", "count", "post.refine_added_wl", "ops"},
        {"post.vio_dst_groups", "count", "post.vio_dst_groups", "ops"},
        {"eco.closure_s", "s", "eco.closure_s", "ops"},
        {"eco.run_s", "s", "eco.run_s", "ops"},
        {"eco.checkpoint_s", "s", "eco.checkpoint_s", "ops"},
        {"eco.resolved_fraction", "ratio", "eco.resolved_groups",
         "eco.total_groups"},
        {"eco.cold_s", "s", "eco.cold_s", "ops"},
        {"eco.speedup", "ratio", "eco.cold_s", "eco.run_s"},
        {"bench.op_s", "s", "bench.traced_s", "ops"},
        {"bench.ref_kernel_s", "s", "bench.ref_kernel_s", nullptr},
    };
    return kMetrics;
}

void addPerLayer(Report* rep, const Sums& sums) {
    const auto get = [&sums](const char* key) {
        const auto it = sums.find(key);
        return it == sums.end() ? 0.0 : it->second;
    };
    for (const LayerMetric& m : layerMetrics()) {
        double value = get(m.num);
        if (m.den != nullptr) value = ratio(value, get(m.den));
        rep->metrics.push_back({m.name, value, m.unit});
    }
    // Every traced op also ran untraced on the same input.
    const double untraced = get("bench.untraced_s");
    rep->metrics.push_back(
        {"bench.trace_overhead_pct",
         untraced > 0.0 ? (get("bench.traced_s") / untraced - 1.0) * 100.0
                        : 0.0,
         "%"});
}

/// ILP solver counters of the bench-bound session, keyed by metric name.
void addCounters(Sums* sums, const obs::Snapshot& delta) {
    const auto get = [&delta](const char* name) {
        const auto it = delta.counters.find(name);
        return it == delta.counters.end() ? 0.0
                                          : static_cast<double>(it->second);
    };
    (*sums)["ilp.lp_solves"] += get("ilp/lp.solves");
    (*sums)["ilp.lp_pivots"] += get("ilp/lp.pivots");
    (*sums)["ilp.lp_warm_starts"] += get("ilp/lp.warm_starts");
    (*sums)["ilp.lp_warm_fallbacks"] += get("ilp/lp.warm_fallbacks");
    (*sums)["ilp.lp_warm_attempts"] +=
        get("ilp/lp.warm_starts") + get("ilp/lp.warm_fallbacks");
}

/// The run's report: end-to-end metrics from the scaled samples, or
/// per-layer metrics from the traced sums, with the chrome trace written.
void finish(Report* rep, const Args& args, const Yardstick& ref,
            const RawSamples& raw, double setupSeconds, const Quality& q,
            Sums* sums, long ops, const SpanLog& log) {
    (*sums)["ops"] = static_cast<double>(ops);
    std::cerr << "streak_bench: reference kernel median "
              << ref.medianSeconds() << " s (reference speed "
              << kReferenceSeconds << " s)\n";
    if (!args.trace) {
        addEndToEnd(rep, raw.scaled(ref), setupSeconds, q);
    } else {
        (*sums)["bench.ref_kernel_s"] = ref.medianSeconds();
        addPerLayer(rep, *sums);
        log.write(args.traceOut);
    }
}

// --------------------------------------------------------- route loop

/// The flow's stages called one by one from here, each under a bench
/// span, in runStreak's order and with its arguments, so the outcome must
/// be bit-identical to runStreak's for the same design. Sets *limitHit
/// when the ILP stopped at its time limit.
Outcome stagedRoute(const Design& design, const StreakOptions& opts,
                    SpanLog* log, Sums* s, bool* limitHit) {
    Sums& sums = *s;
    parallel::RegionStats buildStats;
    const RoutingProblem problem =
        spanned(log, "core/build", &sums["core.build_s"],
                [&] { return buildProblem(design, opts, &buildStats); });
    sums["parallel.build_task_s"] += buildStats.taskSeconds;
    sums["parallel.build_wall_s"] += buildStats.wallSeconds;
    sums["core.objects"] += problem.numObjects();
    for (const auto& cands : problem.candidates) {
        sums["core.candidates"] += static_cast<double>(cands.size());
    }
    for (const PairBlock& pb : problem.pairBlocks) {
        for (const auto& row : pb.cost) {
            sums["core.pair_cost_cells"] += static_cast<double>(row.size());
        }
    }

    PdResult pd = spanned(log, "core/pd_solve", &sums["core.pd_solve_s"],
                          [&] { return solvePrimalDual(problem); });
    sums["core.pd_iterations"] += pd.iterations;
    RoutingSolution solution = std::move(pd.solution);
    *limitHit = false;
    if (opts.solver == SolverKind::Ilp) {
        // runStreak warm-starts the ILP from the primal-dual solution.
        IlpRouteResult ilp =
            spanned(log, "ilp/solve", &sums["ilp.solve_s"], [&] {
                return solveIlpRouting(problem, opts.ilpTimeLimitSeconds,
                                       &solution);
            });
        sums["ilp.bnb_nodes"] += static_cast<double>(ilp.nodesExplored);
        sums["ilp.components"] += ilp.components;
        sums["ilp.limit_hits"] += ilp.hitTimeLimit ? 1 : 0;
        *limitHit = ilp.hitTimeLimit;
        solution = std::move(ilp.solution);
    }
    RoutedDesign routed =
        spanned(log, "core/materialize", &sums["core.materialize_s"],
                [&] { return materialize(problem, solution); });
    const std::vector<GroupDistanceReport> before =
        spanned(log, "core/distance", &sums["core.distance_s"], [&] {
            return analyzeDistances(problem, routed,
                                    opts.distanceThresholdFraction);
        });
    int vioAfter = countViolatingGroups(before);

    if (opts.postOptimize) {
        const post::ClusteringResult cl =
            spanned(log, "post/cluster", &sums["post.cluster_s"],
                    [&] { return post::clusterAndRoute(problem, &routed); });
        sums["post.cluster_bits_attempted"] += cl.bitsAttempted;
        sums["post.cluster_bits_routed"] += cl.bitsRouted;
        sums["post.clusters_formed"] += cl.clustersFormed;

        const post::RefinementResult ref =
            spanned(log, "post/refine", &sums["post.refine_s"],
                    [&] { return post::refineDistances(problem, &routed); });
        sums["post.refine_pins_considered"] += ref.pinsConsidered;
        sums["post.refine_pins_fixed"] += ref.pinsFixed;
        sums["post.refine_added_wl"] +=
            static_cast<double>(ref.addedWirelength);
        vioAfter = ref.violatingGroupsAfter;
    }
    sums["post.vio_dst_groups"] += vioAfter;

    const Metrics metrics =
        spanned(log, "core/evaluate", &sums["core.evaluate_s"],
                [&] { return evaluate(problem, routed); });
    return outcomeOf(metrics, vioAfter, routed);
}

/// The set-up designs' gate causes and the quality of their routes.
struct RouteSetup {
    std::vector<std::string> causes;
    Quality quality;
};

Report runRoute(const Workload& w, const Args& args) {
    Report rep;
    Yardstick ref;
    // Set-up generates and routes the set-up designs: first-call costs stay
    // out of the loop, and the gated routes give the quality metrics.
    const long n = capped(w.setupDesigns, args);
    const auto [setup, setupSeconds] = timedSetups(&ref, [&] {
        RouteSetup s;
        for (long k = 0; k < n; ++k) {
            const Design design = designFor(w, kSetupSeed, "setup", k);
            const FlowResult r = runStreak(design, w.opts);
            std::string cause = flowFailure(r);
            if (cause.empty()) s.quality.add(design, r.value().metrics);
            s.causes.push_back(std::move(cause));
        }
        return s;
    });
    rep.gate.recordSetup(setup.causes);

    // Op i routes design i of the "ops" stream.
    RawSamples samples;
    Sums sums;
    SpanLog log;
    obs::Session session;
    const obs::Stopwatch loop;
    long i = 0;
    for (; another(args, i, loop); ++i) {
        const Design design = designFor(w, args.seed, "ops", i);
        ref.probeIfDue();
        const obs::Stopwatch sw;
        const FlowResult r = runStreak(design, w.opts);
        const double seconds = sw.seconds();
        std::string cause = flowFailure(r);
        if (!args.trace) {
            samples.add(seconds, ref.current(),
                        r.ok() ? r.value().metrics.routedBits : 0);
        } else {
            // The same design through the staged pipeline, traced; it
            // must reproduce runStreak's outcome bit for bit.
            const obs::SessionBind bind(session);
            session.setDetailEnabled(true);
            // Only the session's counters are read; drop the hot-path
            // spans of the previous op.
            session.tracer().reset();
            const obs::Snapshot before = session.snapshotMetrics();
            bool limitHit = false;
            double traced = 0.0;
            const Outcome staged = spanned(&log, "bench/op", &traced, [&] {
                return stagedRoute(design, w.opts, &log, &sums, &limitHit);
            });
            addCounters(&sums, session.snapshotMetrics().minus(before));
            sums["bench.untraced_s"] += seconds;
            sums["bench.traced_s"] += traced;
            if (cause.empty() && limitHit) cause = "ilp time limit hit";
            if (cause.empty() && !(staged == outcomeOf(r.value()))) {
                cause = "staged pipeline differs from runStreak";
            }
        }
        rep.gate.record(cause);
    }
    // The last ops' scale factors look ahead this far.
    for (int k = 0; k < kProbeReach; ++k) ref.probe();
    finish(&rep, args, ref, samples, setupSeconds, setup.quality, &sums, i,
           log);
    return rep;
}

// ----------------------------------------------------------- ECO loop

/// The chains' starting points, each a gated cold route of a base design.
struct EcoSetup {
    /// Empty when the base route failed the gate.
    std::vector<std::optional<eco::Checkpoint>> bases;
    std::vector<std::string> causes;
    Quality quality;
};

Report runEcoWorkload(const Workload& w, const Args& args) {
    Report rep;
    Yardstick ref;
    const long n = capped(w.setupDesigns, args);
    // Set-up routes and checkpoints every chain's base design; the base
    // routes are gated there and give the quality metrics.
    auto [state, setupSeconds] = timedSetups(&ref, [&] {
        EcoSetup s;
        for (long c = 0; c < n; ++c) {
            const Design base = designFor(w, kSetupSeed, "chains", c);
            const FlowResult r = runStreak(base, w.opts);
            const std::string cause = flowFailure(r);
            s.causes.push_back(cause);
            s.bases.emplace_back();
            if (cause.empty()) {
                s.bases.back() = eco::makeCheckpoint(base, w.opts, r.value());
                s.quality.add(base, r.value().metrics);
            }
        }
        return s;
    });
    rep.gate.recordSetup(state.causes);
    const bool basesOk = rep.gate.failed == 0;

    // Op i applies the next delta batch (drawn from --seed) of chain i % n
    // incrementally and re-checkpoints; every kChainLength batches the
    // chain starts again from its base. The traced pass then compares,
    // untimed, every batch with a cold re-route of the same edited design;
    // the untraced pass skips that, so its peak RSS is that of the timed
    // work.
    const StreakOptions coldOpts = eco::semanticOptions(w.opts);
    std::vector<int> steps(static_cast<size_t>(n), 0);
    /// Each chain's latest checkpoint; empty while it is at its base.
    std::vector<std::optional<eco::Checkpoint>> tips(static_cast<size_t>(n));
    RawSamples samples;
    Sums sums;
    SpanLog log;
    const obs::Stopwatch loop;
    long i = 0;
    // A chain without a base route leaves the run incorrect already.
    for (; basesOk && another(args, i, loop); ++i) {
        const auto c = static_cast<size_t>(i % n);
        const int step = steps[c]++;
        if (step % kChainLength == 0) tips[c].reset();
        const eco::Checkpoint& chain = tips[c] ? *tips[c] : *state.bases[c];
        const std::vector<eco::Delta> deltas =
            deltaBatch(args.seed, static_cast<int>(c), step, *chain.design);
        std::optional<eco::EcoResult> result;
        std::optional<eco::Checkpoint> next;
        std::optional<eco::EcoResult> traced;
        std::string cause;
        ref.probeIfDue();
        const obs::Stopwatch sw;
        try {
            result = eco::runEco(chain, deltas, kThreads);
            next = eco::makeCheckpoint(*result, w.opts);
        } catch (const robust::StreakException& e) {
            cause = "eco error: " + e.error().describe();
        }
        const double seconds = sw.seconds();
        if (!args.trace) {
            samples.add(seconds, ref.current(),
                        next ? result->metrics.routedBits : 0);
        } else if (next) {
            // The same batch again through the ECO layer's entry points,
            // each under a span.
            const int op = log.begin("bench/op");
            try {
                const Design& before = *chain.design;
                (void)spanned(&log, "eco/closure", &sums["eco.closure_s"], [&] {
                    Design after = before;
                    for (const eco::Delta& d : deltas) {
                        eco::applyDelta(&after, d);
                    }
                    return eco::affectedGroups(before, after, chain.opts,
                                               deltas);
                });
                traced = spanned(&log, "eco/run", &sums["eco.run_s"], [&] {
                    return eco::runEco(chain, deltas, kThreads);
                });
                (void)spanned(&log, "eco/checkpoint",
                              &sums["eco.checkpoint_s"], [&] {
                                  return eco::makeCheckpoint(*traced, w.opts);
                              });
            } catch (const robust::StreakException& e) {
                cause = "traced eco error: " + e.error().describe();
            }
            sums["bench.untraced_s"] += seconds;
            sums["bench.traced_s"] += log.end(op);
            if (traced) {
                sums["eco.resolved_groups"] +=
                    static_cast<double>(traced->resolvedGroups.size());
                sums["eco.total_groups"] += traced->totalGroups;
            }
        }
        if (cause.empty()) cause = ecoFailure(*result);
        if (cause.empty() && args.trace) {
            double coldSeconds = 0.0;
            const FlowResult cold =
                spanned(&log, "eco/cold", &coldSeconds, [&] {
                    return runStreak(*result->design, coldOpts);
                });
            sums["eco.cold_s"] += coldSeconds;
            cause = flowFailure(cold);
            std::string diff;
            if (cause.empty() &&
                !eco::equivalent(*result, cold.value(), &diff)) {
                cause = "eco differs from a cold re-route: " + diff;
            }
            if (cause.empty() && traced &&
                !eco::equivalent(*traced, cold.value(), &diff)) {
                cause = "traced eco differs from a cold re-route: " + diff;
            }
        }
        rep.gate.record(cause);
        if (next) tips[c] = std::move(next);
    }
    for (int k = 0; k < kProbeReach; ++k) ref.probe();
    finish(&rep, args, ref, samples, setupSeconds, state.quality, &sums, i,
           log);
    return rep;
}

// --------------------------------------------------------------- main

[[noreturn]] void usage(const std::string& problem) {
    std::cerr << "streak_bench: " << problem << "\n"
              << "usage: streak_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--ops N]\n"
                 "workloads: open-mixed congested-multipin ilp-exact "
                 "eco-chain\n";
    std::exit(2);
}

Args parseArgs(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        std::string value;
        const size_t eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage("missing value for " + key);
        }
        try {
            if (key == "--workload") {
                args.workload = value;
            } else if (key == "--seed") {
                args.seed = std::stoull(value);
            } else if (key == "--seconds") {
                args.seconds = std::stod(value);
            } else if (key == "--trace") {
                args.trace = std::stoi(value) != 0;
            } else if (key == "--trace-out") {
                args.traceOut = value;
            } else if (key == "--ops") {
                args.ops = std::stol(value);
            } else {
                usage("unknown option " + key);
            }
        } catch (const std::exception&) {
            usage("bad value for " + key + ": " + value);
        }
    }
    if (args.workload.empty()) usage("--workload is required");
    if (args.seconds <= 0.0) usage("--seconds must be positive");
    return args;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parseArgs(argc, argv);
    const std::optional<Workload> w = makeWorkload(args.workload);
    if (!w) usage("unknown workload " + args.workload);

    const Report rep =
        w->kind == Kind::Route ? runRoute(*w, args) : runEcoWorkload(*w, args);
    phaseDone("ops");

    std::cerr << "workload " << w->name << " seed " << args.seed << ": "
              << rep.gate.attempted << " gated, " << rep.gate.failed
              << " failed\n";
    for (const auto& [cause, count] : rep.gate.causes) {
        std::cerr << "  failure x" << count << ": " << cause << '\n';
    }
    obs::json::Object metrics;
    for (const Metric& m : rep.metrics) {
        std::cerr << "  " << m.name << " = " << m.value << ' ' << m.unit
                  << '\n';
        obs::json::Object entry;
        entry.set("value", m.value);
        entry.set("unit", m.unit);
        metrics.set(m.name, std::move(entry));
    }
    obs::json::Object result;
    result.set("correct", rep.gate.failed == 0);
    result.set("attempted", rep.gate.attempted);
    result.set("failed", rep.gate.failed);
    result.set("metrics", std::move(metrics));
    obs::json::Value(std::move(result)).write(std::cout);
    std::cout << '\n';
    return 0;
}
