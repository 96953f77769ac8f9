// Fixed work whose run time follows the host's speed the way the
// program's ops do. It shares no code with the program, so no change to
// the program moves it; CMakeLists.txt compiles it with fixed flags for
// the same reason.
//
// A pass has two parts of about equal time. The first is a shortest-path
// search over a grid with a binary heap, like the router's maze searches.
// The second is a series of small searches split between the calling
// thread and a worker, handed over through a mutex and two condition
// variables as the program's thread pool does. When other tenants load
// the host, the program's ops slow down about 1.5 times as much as a
// single-thread search, and the hand-overs slightly more than the ops;
// of the kernels tried, the two parts together tracked the ops best
// (README.md).
#include "reference.hpp"

#include <array>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

/// A grid with edge weights 1..97 to the four neighbours of each cell,
/// from a fixed xorshift stream.
struct Grid {
    int side = 0;
    std::vector<std::array<std::uint32_t, 4>> weights;

    explicit Grid(int s)
        : side(s), weights(static_cast<size_t>(s) * static_cast<size_t>(s)) {
        std::uint64_t x = 88172645463325252ULL;
        for (auto& cell : weights) {
            for (std::uint32_t& v : cell) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                v = 1 + static_cast<std::uint32_t>(x % 97);
            }
        }
    }
    [[nodiscard]] int center() const { return side * (side / 2) + side / 2; }
};

/// The first part's grid: its weights (2.5 MB) exceed a core's L2 cache,
/// as the program's working sets do. It stops after kLargePops cells.
const Grid& largeGrid() {
    static const Grid kGrid(400);
    return kGrid;
}
constexpr int kLargePops = 6400;

/// The second part's grid, searched whole by both threads in each of
/// kRounds hand-overs.
const Grid& smallGrid() {
    static const Grid kGrid(20);
    return kGrid;
}
constexpr int kRounds = 30;

/// Dijkstra from `source` over `g`, stopped after `maxPops` settled
/// cells; returns the sum of their distances.
std::uint64_t search(const Grid& g, int source, int maxPops) {
    std::vector<std::uint32_t> dist(g.weights.size(),
                                    std::numeric_limits<std::uint32_t>::max());
    using Entry = std::pair<std::uint32_t, int>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    dist[static_cast<size_t>(source)] = 0;
    heap.push({0, source});
    std::uint64_t sum = 0;
    for (int pops = 0; pops < maxPops && !heap.empty();) {
        const auto [d, u] = heap.top();
        heap.pop();
        if (d != dist[static_cast<size_t>(u)]) continue;
        ++pops;
        sum += d;
        const int x = u % g.side;
        const int y = u / g.side;
        const std::array<int, 4> next = {x > 0 ? u - 1 : -1,
                                         x + 1 < g.side ? u + 1 : -1,
                                         y > 0 ? u - g.side : -1,
                                         y + 1 < g.side ? u + g.side : -1};
        for (size_t k = 0; k < next.size(); ++k) {
            const int v = next[k];
            if (v < 0) continue;
            const std::uint32_t nd = d + g.weights[static_cast<size_t>(u)][k];
            if (nd < dist[static_cast<size_t>(v)]) {
                dist[static_cast<size_t>(v)] = nd;
                heap.push({nd, v});
            }
        }
    }
    return sum;
}

constexpr int kWholeGrid = std::numeric_limits<int>::max();

}  // namespace

ReferenceKernel::ReferenceKernel() : worker_([this] { serve(); }) {
    // Built here, not in the first timed pass.
    (void)largeGrid();
    (void)smallGrid();
}

ReferenceKernel::~ReferenceKernel() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    worker_.join();
}

void ReferenceKernel::serve() {
    int served = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] { return stop_ || posted_ != served; });
            if (stop_) return;
            served = posted_;
        }
        const std::uint64_t sum = search(smallGrid(), 0, kWholeGrid);
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            workerSum_ += sum;
            finished_ = served;
        }
        done_.notify_all();
    }
}

std::uint64_t ReferenceKernel::run() {
    std::uint64_t sum = search(largeGrid(), largeGrid().center(), kLargePops);
    for (int r = 0; r < kRounds; ++r) {
        int round = 0;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            round = ++posted_;
        }
        wake_.notify_all();
        sum += search(smallGrid(), smallGrid().center(), kWholeGrid);
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] { return finished_ == round; });
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    sum += workerSum_;
    workerSum_ = 0;
    return sum;
}

}  // namespace perfbench
