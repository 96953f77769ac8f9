#include "parallel/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "check/assert.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "robust/error.hpp"

namespace streak::parallel {

namespace {

double secondsSince(std::chrono::steady_clock::time_point start) {
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - start;
    return d.count();
}

/// Rethrow the lowest-index failure with a note about how many other
/// task failures the region recorded alongside it. Known exception
/// types keep their type (so stage boundaries and tests can still
/// dispatch on it); anything else propagates unchanged — the note is
/// then only visible through the counter.
[[noreturn]] void rethrowWithSuppressedNote(const std::exception_ptr& first,
                                            long suppressed) {
    const std::string note =
        " [+" + std::to_string(suppressed) +
        " suppressed task failure(s), see parallel/exceptions_suppressed]";
    try {
        std::rethrow_exception(first);
    } catch (const robust::StreakException& e) {
        robust::StreakError err = e.error();
        err.message += note;
        robust::raise(std::move(err));
    } catch (const check::CheckFailure& e) {
        throw check::CheckFailure(e.what() + note);
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(e.what() + note);
    } catch (const std::logic_error& e) {
        throw std::logic_error(e.what() + note);
    } catch (const std::exception& e) {
        throw std::runtime_error(e.what() + note);
    }
}

}  // namespace

int hardwareThreads() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

int resolveThreads(int requested) {
    return requested >= 1 ? requested : hardwareThreads();
}

namespace {

/// One parallel region: the task function, the owner's context that
/// workers adopt, and per-index result slots. It lives on the owner's
/// stack for the duration of the region, so nothing of it outlives the
/// region in the worker set.
struct Region {
    Region(const std::function<void(int)>& task, int n,
           const robust::Deadline& deadline)
        : fn(task),
          taskCount(n),
          control(deadline),
          session(obs::session()),
          parentSpan(session.tracer().currentSpan()),
          errors(static_cast<size_t>(n)),
          taskSeconds(static_cast<size_t>(n), 0.0) {}

    const std::function<void(int)>& fn;
    const int taskCount;
    // Run deadline polled before each task (none when the pool owner
    // never called setControl).
    const robust::Deadline& control;
    // Session and span that were current on the owning thread when the
    // region started; workers adopt both so spans opened (and counters
    // flushed) inside tasks land in the owner's session, attached under
    // the owner's span.
    obs::Session& session;
    const int parentSpan;
    std::atomic<int> nextTask{0};
    std::atomic<bool> failed{false};
    std::vector<std::exception_ptr> errors;  // per task index
    std::vector<double> taskSeconds;         // per task index

    /// Pull-and-run loop shared by workers and the owning thread. Each
    /// task's result lands in per-index slots, so completion order never
    /// influences the outcome.
    void drain() {
        for (;;) {
            const int i = nextTask.fetch_add(1, std::memory_order_relaxed);
            if (i >= taskCount) return;
            if (failed.load(std::memory_order_relaxed)) continue;  // fail fast
            // Workers record an expired deadline instead of throwing:
            // the owning thread rethrows it after the region drains,
            // under the same lowest-index rule as task failures.
            if (control.expired()) {
                errors[static_cast<size_t>(i)] =
                    std::make_exception_ptr(robust::StreakException(
                        robust::deadlineError("parallel/task")));
                failed.store(true, std::memory_order_relaxed);
                continue;
            }
            const auto start = std::chrono::steady_clock::now();
            try {
                fn(i);
            } catch (...) {
                errors[static_cast<size_t>(i)] = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
            taskSeconds[static_cast<size_t>(i)] = secondsSince(start);
        }
    }
};

}  // namespace

/// Worker threads that run one region at a time for the pool that owns
/// the set. Between pools the set waits, idle, in its thread's list.
class WorkerSet {
public:
    /// The next set in the idle list this one waits in (null while a
    /// pool owns it). A link, so handing a set back never allocates.
    std::unique_ptr<WorkerSet> nextIdle;

    WorkerSet() = default;
    WorkerSet(const WorkerSet&) = delete;
    WorkerSet& operator=(const WorkerSet&) = delete;

    ~WorkerSet() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            shutdown_ = true;
        }
        wake_.notify_all();
        for (std::thread& w : workers_) w.join();
    }

    /// Start `count` workers; worker t records on trace track t + 1 (0
    /// is the owning thread). If a spawn throws, the destructor joins
    /// the workers already started.
    void spawn(int count) {
        workers_.reserve(static_cast<size_t>(count));
        for (int t = 0; t < count; ++t) {
            workers_.emplace_back([this, t] { workerLoop(t + 1); });
        }
    }

    [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

    /// Run `region` with the calling thread participating. Every task
    /// index is claimed through Region::nextTask, so once the caller's
    /// drain() returns, unfinished tasks can only be held by workers
    /// that joined the region: close it, then wait for those alone.
    void run(Region& region) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            STREAK_REQUIRE(
                open_ == nullptr,
                "parallel regions must not nest (pool of {} threads)",
                size() + 1);
            open_ = &region;
            ++generation_;
        }
        wake_.notify_all();
        region.drain();
        std::unique_lock<std::mutex> lock(mutex_);
        open_ = nullptr;
        done_.wait(lock, [&] { return joined_ == 0; });
    }

private:
    void workerLoop(int track) {
        long seenGeneration = 0;
        for (;;) {
            Region* region = nullptr;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock, [&] {
                    return shutdown_ || generation_ != seenGeneration;
                });
                if (shutdown_) return;
                seenGeneration = generation_;
                // Woke after the owner closed the region: it is over.
                if (open_ == nullptr) continue;
                region = open_;
                ++joined_;
            }
            {
                const obs::WorkerBind ctx(region->session, region->parentSpan,
                                          track);
                region->drain();
            }
            std::lock_guard<std::mutex> lock(mutex_);
            if (--joined_ == 0) done_.notify_one();
        }
    }

    std::mutex mutex_;
    std::condition_variable wake_;  // workers wait here between regions
    std::condition_variable done_;  // the owner waits here to close one
    Region* open_ = nullptr;        // the region workers may still join
    long generation_ = 0;           // bumped per region: none runs twice
    int joined_ = 0;                // workers inside the open region
    bool shutdown_ = false;
    std::vector<std::thread> workers_;
};

namespace {

// Set once the thread's idle list is destroyed: a pool that outlives it
// (a static or later thread_local one) joins its own workers instead.
thread_local bool tlIdleGone = false;

/// Worker sets handed back by destroyed pools of the calling thread,
/// waiting for its next pool. The thread's exit destroys the list, and
/// with it joins every idle worker.
struct IdleSets {
    std::unique_ptr<WorkerSet> first;
    ~IdleSets() { tlIdleGone = true; }
};
thread_local IdleSets tlIdle;

/// An idle set of `size` workers from the calling thread, or a new one.
std::unique_ptr<WorkerSet> borrowWorkers(int size) {
    for (std::unique_ptr<WorkerSet>* link = &tlIdle.first; *link != nullptr;
         link = &(*link)->nextIdle) {
        if ((*link)->size() == size) {
            std::unique_ptr<WorkerSet> set = std::move(*link);
            *link = std::move(set->nextIdle);
            return set;
        }
    }
    auto set = std::make_unique<WorkerSet>();
    set->spawn(size);
    return set;
}

}  // namespace

ThreadPool::ThreadPool(int threads)
    : threads_(threads < 1 ? 1 : threads) {
    stats_.threads = threads_;
}

ThreadPool::~ThreadPool() {
    if (workers_ == nullptr || tlIdleGone) return;
    workers_->nextIdle = std::move(tlIdle.first);
    tlIdle.first = std::move(workers_);
}

void ThreadPool::runSerial(int n, const std::function<void(int)>& fn) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
        control_.checkpoint("parallel/task");
        fn(i);
    }
    const double wall = secondsSince(start);
    ++stats_.regions;
    stats_.tasks += n;
    stats_.wallSeconds += wall;
    stats_.taskSeconds += wall;
}

void ThreadPool::runParallel(int n, const std::function<void(int)>& fn) {
    // Gated region span: tasks that open spans (e.g. per-component ILP
    // solves) nest under it across every worker track.
    STREAK_SPAN("parallel/region");
    if (workers_ == nullptr) workers_ = borrowWorkers(threads_ - 1);
    Region region(fn, n, control_);
    const auto start = std::chrono::steady_clock::now();
    workers_->run(region);

    ++stats_.regions;
    stats_.tasks += n;
    stats_.wallSeconds += secondsSince(start);
    for (const double s : region.taskSeconds) stats_.taskSeconds += s;

    // Rethrow the lowest-index failure so error behaviour is as
    // deterministic as success behaviour; failures beyond the first are
    // tallied (never silently dropped) and noted in the message.
    const std::vector<std::exception_ptr>& errors = region.errors;
    size_t firstError = errors.size();
    long suppressed = 0;
    for (size_t i = 0; i < errors.size(); ++i) {
        if (errors[i] == nullptr) continue;
        if (firstError == errors.size()) {
            firstError = i;
        } else {
            ++suppressed;
        }
    }
    if (firstError == errors.size()) return;
    if (suppressed == 0) std::rethrow_exception(errors[firstError]);
    obs::session().counter("parallel/exceptions_suppressed").add(suppressed);
    rethrowWithSuppressedNote(errors[firstError], suppressed);
}

void ThreadPool::parallelFor(int n, const std::function<void(int)>& fn) {
    if (n <= 0) return;
    if (threads_ == 1 || n == 1) {
        runSerial(n, fn);
    } else {
        runParallel(n, fn);
    }
}

}  // namespace streak::parallel
