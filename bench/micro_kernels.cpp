// Kernel micro-benchmarks (google-benchmark): the hot inner loops of the
// flow, plus ablations of the two knobs our backbone enumerator adds on
// top of the paper (bend penalty lambda, candidate count K). The maze
// search runs as a before/after pair (Dijkstra full grid vs A* +
// bounding window); flow-level counters live in `streak campaign` and
// the committed BENCH_campaign.jsonl store.
#include <benchmark/benchmark.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/candidate.hpp"
#include "core/identify.hpp"
#include "core/problem.hpp"
#include "core/regularity.hpp"
#include "core/similarity.hpp"
#include "gen/generator.hpp"
#include "ilp/lp.hpp"
#include "route/maze.hpp"
#include "steiner/rsmt.hpp"

namespace {

using namespace streak;

std::vector<geom::Point> randomPins(int n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> coord(0, 60);
    std::vector<geom::Point> pins;
    pins.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) pins.push_back({coord(rng), coord(rng)});
    return pins;
}

void BM_RectilinearMST(benchmark::State& state) {
    const auto pins = randomPins(static_cast<int>(state.range(0)), 7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(steiner::mstLength(pins));
    }
}
BENCHMARK(BM_RectilinearMST)->Arg(4)->Arg(8)->Arg(14);

void BM_Iterated1Steiner(benchmark::State& state) {
    const auto pins = randomPins(static_cast<int>(state.range(0)), 11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(steiner::iterated1Steiner(pins));
    }
}
BENCHMARK(BM_Iterated1Steiner)->Arg(5)->Arg(9)->Arg(14);

/// Ablation: backbone candidate count K (maxCandidates).
void BM_EnumerateTopologies_K(benchmark::State& state) {
    const auto pins = randomPins(9, 13);
    steiner::EnumerateOptions opts;
    opts.maxCandidates = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(steiner::enumerateTopologies(pins, 0, opts));
    }
}
BENCHMARK(BM_EnumerateTopologies_K)->Arg(1)->Arg(4)->Arg(8);

/// Ablation: bend penalty lambda in the backbone ranking.
void BM_EnumerateTopologies_Lambda(benchmark::State& state) {
    const auto pins = randomPins(9, 17);
    steiner::EnumerateOptions opts;
    opts.bendPenalty = static_cast<int>(state.range(0));
    for (auto _ : state) {
        const auto topos = steiner::enumerateTopologies(pins, 0, opts);
        benchmark::DoNotOptimize(topos.front().bendCount());
    }
}
BENCHMARK(BM_EnumerateTopologies_Lambda)->Arg(0)->Arg(2)->Arg(8);

/// One wire-graph query (the argument picks it: 0 graph(), 1
/// viaPoints(), 2 structure(), 3 isTree(), 4 sourceToSinkDistances())
/// over every equivalent bit topology of full-size synth5. The problem
/// is built once, outside the timed loop.
void BM_TopologyQueries(benchmark::State& state) {
    const Design d = gen::makeSynth(5);
    StreakOptions opts;
    opts.threads = 1;
    const RoutingProblem prob = buildProblem(d, opts);
    std::vector<const steiner::Topology*> topos;
    for (const std::vector<BackboneShape>& shapes : prob.shapes) {
        for (const BackboneShape& shape : shapes) {
            for (const steiner::Topology& t : shape.bitTopologies) topos.push_back(&t);
        }
    }
    const auto query = state.range(0);
    for (auto _ : state) {
        for (const steiner::Topology* t : topos) {
            switch (query) {
                case 0: benchmark::DoNotOptimize(t->graph()); break;
                case 1: benchmark::DoNotOptimize(t->viaPoints()); break;
                case 2: benchmark::DoNotOptimize(t->structure()); break;
                case 3: benchmark::DoNotOptimize(t->isTree()); break;
                default: benchmark::DoNotOptimize(t->sourceToSinkDistances());
            }
        }
    }
    state.SetLabel(std::to_string(topos.size()) + " topologies");
}
BENCHMARK(BM_TopologyQueries)->DenseRange(0, 4)->ArgName("query");

/// Full-size synth`suite`, with synth5 capped at 5 pins; or, for suite
/// 0, eight two-bit groups, each between opposite corners of a
/// 1200 x 1200 grid: shapes so sparse that their demand is sorted rather
/// than counted over their bounding boxes.
Design candidateDesign(int suite) {
    if (suite != 0) {
        gen::SuiteSpec spec = gen::synthSpec(suite);
        if (suite == 5) spec.maxPins = 5;
        return gen::generate(spec);
    }
    constexpr int kSide = 1200;
    Design d{"sparse", grid::RoutingGrid(kSide, kSide, 4, 8), {}};
    for (int g = 0; g < 8; ++g) {
        SignalGroup group;
        group.name = "g" + std::to_string(g);
        for (int b = 0; b < 2; ++b) {
            Bit bit;
            bit.name = "b" + std::to_string(b);
            bit.pins = {{2 + 2 * g + b, 2 + g},
                        {kSide - 3 - 2 * g + b, kSide - 3 - g}};
            group.bits.push_back(std::move(bit));
        }
        d.groups.push_back(std::move(group));
    }
    return d;
}

/// Candidate generation (backbones, equivalent topologies, shapes and
/// layer pairs) for every object of candidateDesign(argument). The
/// objects are identified once, outside the timed loop.
void BM_GenerateCandidates(benchmark::State& state) {
    const Design d = candidateDesign(static_cast<int>(state.range(0)));
    const std::vector<RoutingObject> objects = identifyObjects(d);
    StreakOptions opts;
    opts.threads = 1;
    for (auto _ : state) {
        for (const RoutingObject& obj : objects) {
            benchmark::DoNotOptimize(generateCandidates(d, obj, opts));
        }
    }
    state.SetLabel(std::to_string(objects.size()) + " objects");
}
BENCHMARK(BM_GenerateCandidates)->Arg(2)->Arg(5)->Arg(0)->ArgName("synth");

void BM_SimilarityVector(benchmark::State& state) {
    Bit bit;
    bit.pins = randomPins(static_cast<int>(state.range(0)), 19);
    bit.driver = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bitSimilarities(bit));
    }
}
BENCHMARK(BM_SimilarityVector)->Arg(2)->Arg(8)->Arg(14);

void BM_IdentifyObjects(benchmark::State& state) {
    const Design d = gen::makeSynth(5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(identifyObjects(d));
    }
}
BENCHMARK(BM_IdentifyObjects);

void BM_RegularityRatio(benchmark::State& state) {
    const auto pins = randomPins(8, 23);
    const auto a = steiner::enumerateTopologies(pins, 0);
    const auto pins2 = randomPins(8, 29);
    const auto b = steiner::enumerateTopologies(pins2, 0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(regularityRatio(a.front(), b.front()));
    }
}
BENCHMARK(BM_RegularityRatio);

void BM_MazeRoute(benchmark::State& state) {
    grid::RoutingGrid g(64, 64, 6, 12);
    for (auto _ : state) {
        grid::EdgeUsage usage(g);
        route::MazeRouter router(&usage);
        benchmark::DoNotOptimize(router.route({{4, 4}, {58, 50}, {30, 60}}, 0));
    }
}
BENCHMARK(BM_MazeRoute);

/// The maze-search kernel: A* + bounding window over an epoch-stamped
/// scratch shared across nets and iterations.
void BM_MazeSearchKernel(benchmark::State& state) {
    grid::RoutingGrid g(64, 64, 6, 12);
    route::SearchState scratch;
    for (auto _ : state) {
        grid::EdgeUsage usage(g);
        route::MazeRouter router(&usage);
        benchmark::DoNotOptimize(
            router.route({{4, 4}, {58, 50}, {30, 60}}, 0, &scratch));
        benchmark::DoNotOptimize(
            router.route({{10, 60}, {55, 8}}, 0, &scratch));
        benchmark::DoNotOptimize(
            router.route({{2, 30}, {61, 33}, {31, 2}, {33, 62}}, 0, &scratch));
    }
}
BENCHMARK(BM_MazeSearchKernel);

/// A Streak-shaped LP relaxation: per-group selection rows (Equal 1)
/// over candidate variables plus one shared capacity row — the structure
/// branch-and-bound re-solves at every node.
ilp::Model selectionLp(int groups, int candsPerGroup) {
    ilp::Model m;
    std::vector<std::pair<int, double>> capacity;
    for (int gidx = 0; gidx < groups; ++gidx) {
        std::vector<std::pair<int, double>> sel;
        for (int c = 0; c < candsPerGroup; ++c) {
            const int v = m.addVariable(
                1.0 + 0.25 * static_cast<double>((gidx * candsPerGroup + c) %
                                                 7),
                false, 0.0, 1.0);
            sel.emplace_back(v, 1.0);
            capacity.emplace_back(v,
                                  1.0 + static_cast<double>(c % 3));
        }
        m.addRow(std::move(sel), ilp::Sense::Equal, 1.0);
    }
    m.addRow(std::move(capacity), ilp::Sense::LessEqual,
             static_cast<double>(groups) * 1.5);
    return m;
}

/// The bounded-variable simplex on one selection relaxation.
void BM_SimplexKernel(benchmark::State& state) {
    const ilp::Model m = selectionLp(8, 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(solveLp(m));
    }
}
BENCHMARK(BM_SimplexKernel);

}  // namespace

BENCHMARK_MAIN();
