// Deterministic parallel execution layer (DESIGN.md "Parallel execution").
//
// A small fixed-size thread pool with three primitives:
//
//   parallelFor(n, fn)        run fn(0..n-1), any order, block until done
//   parallelMap<T>(n, fn)     like parallelFor but collect fn(i) into
//                             slot i of a vector (index-addressed, so the
//                             result is independent of execution order)
//   orderedReduce<T>(n, produce, fold)
//                             produce T values in parallel, then fold them
//                             sequentially in strict index order on the
//                             calling thread
//
// The determinism contract of the whole layer: every parallel region
// writes results into per-index slots and every reduction folds in fixed
// index order, so the output of a region is byte-identical for any thread
// count — `threads = 1` is the exact legacy sequential path (tasks run
// inline on the calling thread, no workers are ever spawned).
//
// A pool is a handle on a set of worker threads, and pools are cheap to
// create because those threads are reused: on its first parallel region
// a pool borrows an idle worker set of its size from its calling thread
// (spawning one only when none is idle) and its destructor hands the set
// back, so back-to-back flow stages on one thread share their workers.
// A thread's idle sets are joined when the thread exits. A region waits
// only for the workers that joined it: once the calling thread finds no
// unclaimed task, a worker that had not woken yet skips the region.
//
// Exceptions thrown by tasks are captured and the one with the lowest
// index is rethrown on the calling thread after the region drains,
// keeping failure behaviour index-deterministic too; when several tasks
// failed, the extra failures are tallied in the
// `parallel/exceptions_suppressed` counter and noted in the rethrown
// message so they are never silently dropped. A pool given a
// robust::Ticket (setControl) additionally polls it before each task,
// so a cancelled or over-budget run stops dispatching work and unwinds
// with the corresponding structured error.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "robust/control.hpp"

namespace streak::parallel {

/// Accumulated cost of the parallel regions run through one pool (or one
/// flow stage): wall time of the regions vs. summed task time. Their
/// ratio is the region's concurrency, not its speedup: it says how many
/// tasks were in flight on average, not how much faster than one thread
/// the stage ran.
struct RegionStats {
    int threads = 1;         ///< pool size the regions ran with
    int regions = 0;         ///< number of parallelFor/Map invocations
    long tasks = 0;          ///< total task count across regions
    double wallSeconds = 0.0;  ///< summed wall-clock time of the regions
    double taskSeconds = 0.0;  ///< summed per-task execution time

    /// taskSeconds / wallSeconds: the mean number of tasks in flight
    /// (~1.0 when serial, at most the pool size). This is *concurrency*,
    /// not speedup: it never sees what a second thread costs (waking a
    /// worker, tasks slowed by sharing a core), so a stage that runs
    /// slower on two threads than on one can still read above 1. Only a
    /// one-thread rerun measures speedup (bench/parallel_scaling).
    [[nodiscard]] double speedupEstimate() const {
        return wallSeconds > 0.0 ? taskSeconds / wallSeconds : 1.0;
    }

    /// Combine stats from another pool / stage (threads: max, rest: sum).
    void merge(const RegionStats& other) {
        threads = threads > other.threads ? threads : other.threads;
        regions += other.regions;
        tasks += other.tasks;
        wallSeconds += other.wallSeconds;
        taskSeconds += other.taskSeconds;
    }
};

/// Resolve a `StreakOptions::threads`-style knob: values >= 1 pass
/// through, everything else (0, negative) means "hardware concurrency".
[[nodiscard]] int resolveThreads(int requested);

/// std::thread::hardware_concurrency with a floor of 1.
[[nodiscard]] int hardwareThreads();

/// Worker threads plus the region they run (defined in thread_pool.cpp).
class WorkerSet;

class ThreadPool {
public:
    /// A pool of `threads` workers (clamped to >= 1; the calling thread
    /// counts as one worker, so `threads = 4` uses 3 OS threads). The
    /// workers are borrowed (or spawned) by the first region with > 1
    /// task and owned by this pool alone until it is destroyed.
    explicit ThreadPool(int threads);
    /// Hands the worker set back to the calling thread's idle list.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] int threadCount() const { return threads_; }

    /// Deadline/cancellation ticket polled before every task (idle by
    /// default). A trip makes the remaining tasks of the region fail
    /// with the matching StreakError, which the region rethrows under
    /// the usual lowest-index rule.
    void setControl(robust::Ticket control) { control_ = std::move(control); }

    /// Run fn(i) for every i in [0, n). Blocks until all tasks finished.
    /// Must be called from the owning thread only (regions never nest).
    void parallelFor(int n, const std::function<void(int)>& fn);

    /// parallelFor that collects fn(i) into slot i of the result.
    template <typename T>
    [[nodiscard]] std::vector<T> parallelMap(
        int n, const std::function<T(int)>& fn) {
        std::vector<T> out(static_cast<size_t>(n < 0 ? 0 : n));
        parallelFor(n, [&](int i) { out[static_cast<size_t>(i)] = fn(i); });
        return out;
    }

    /// Deterministic ordered reduction: produce(i) runs in parallel, then
    /// fold(i, value) runs on the calling thread in index order 0..n-1.
    template <typename T>
    void orderedReduce(int n, const std::function<T(int)>& produce,
                       const std::function<void(int, T&&)>& fold) {
        std::vector<T> values = parallelMap<T>(n, produce);
        for (int i = 0; i < n; ++i) {
            fold(i, std::move(values[static_cast<size_t>(i)]));
        }
    }

    /// Stats accumulated over every region this pool has run.
    [[nodiscard]] const RegionStats& stats() const { return stats_; }

private:
    void runSerial(int n, const std::function<void(int)>& fn);
    void runParallel(int n, const std::function<void(int)>& fn);

    int threads_;
    RegionStats stats_;
    robust::Ticket control_;
    std::unique_ptr<WorkerSet> workers_;  // borrowed by the first region
};

}  // namespace streak::parallel
