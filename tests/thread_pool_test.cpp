#include "parallel/thread_pool.hpp"

#include "obs/session.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

namespace streak::parallel {
namespace {

/// A serial number per OS thread, handed out on the thread's first call.
int threadSerial() {
    static std::atomic<int> next{0};
    thread_local const int serial = next.fetch_add(1);
    return serial;
}

/// Threads of this process, or -1 where /proc/self/task is not there.
long processThreads() {
    std::error_code ec;
    const std::filesystem::directory_iterator it("/proc/self/task", ec);
    if (ec) return -1;
    return std::distance(it, std::filesystem::directory_iterator{});
}

/// Runs tasks 0..n-1 so that each waits until all n have started: the
/// pool owner stays pinned in the task it claimed, so every other task
/// must run on a worker. Records the thread serial of each task.
std::vector<int> rendezvous(ThreadPool& pool, int n) {
    std::atomic<int> arrived{0};
    return pool.parallelMap<int>(n, [&](int) {
        arrived.fetch_add(1);
        while (arrived.load() < n) std::this_thread::yield();
        return threadSerial();
    });
}

TEST(ResolveThreads, PositivePassesThrough) {
    EXPECT_EQ(resolveThreads(1), 1);
    EXPECT_EQ(resolveThreads(5), 5);
}

TEST(ResolveThreads, NonPositiveMeansHardware) {
    EXPECT_EQ(resolveThreads(0), hardwareThreads());
    EXPECT_EQ(resolveThreads(-3), hardwareThreads());
    EXPECT_GE(hardwareThreads(), 1);
}

TEST(ThreadPool, ClampsToAtLeastOneThread) {
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 1);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
    for (const int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        constexpr int kN = 100;
        std::vector<std::atomic<int>> visits(kN);
        pool.parallelFor(kN, [&](int i) {
            visits[static_cast<size_t>(i)].fetch_add(1);
        });
        for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
    }
}

TEST(ThreadPool, ParallelForHandlesEmptyAndSingleRegions) {
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(0, [&](int) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(-2, [&](int) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](int i) { calls += i + 1; });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelMapCollectsInIndexOrder) {
    for (const int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        const std::vector<int> squares =
            pool.parallelMap<int>(50, [](int i) { return i * i; });
        ASSERT_EQ(squares.size(), 50u);
        for (int i = 0; i < 50; ++i) {
            EXPECT_EQ(squares[static_cast<size_t>(i)], i * i);
        }
    }
}

TEST(ThreadPool, OrderedReduceFoldsInStrictIndexOrder) {
    // The fold concatenates, so any reordering would change the string.
    for (const int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        std::string folded;
        pool.orderedReduce<std::string>(
            26, [](int i) { return std::string(1, static_cast<char>('a' + i)); },
            [&](int, std::string&& s) { folded += s; });
        EXPECT_EQ(folded, "abcdefghijklmnopqrstuvwxyz");
    }
}

TEST(ThreadPool, ReusableAcrossRegions) {
    ThreadPool pool(4);
    long total = 0;
    for (int round = 0; round < 10; ++round) {
        const std::vector<int> vals =
            pool.parallelMap<int>(20, [round](int i) { return round + i; });
        total += std::accumulate(vals.begin(), vals.end(), 0L);
    }
    // sum over rounds of (20*round + 0+1+...+19).
    EXPECT_EQ(total, 10L * 190 + 20L * 45);
}

TEST(ThreadPool, LowestIndexExceptionWins) {
    for (const int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        try {
            pool.parallelFor(64, [](int i) {
                if (i % 7 == 3) {  // first failing index is 3
                    throw std::runtime_error("task " + std::to_string(i));
                }
            });
            FAIL() << "expected the region to rethrow";
        } catch (const std::runtime_error& e) {
            // Later failing indices may or may not have thrown before the
            // fail-fast flag stopped them; the winner is always task 3,
            // possibly with a suppressed-failures note appended.
            const std::string what = e.what();
            EXPECT_EQ(what.rfind("task 3", 0), 0u) << what;
            EXPECT_EQ(what.find("task 1"), std::string::npos) << what;
        }
    }
}

TEST(ThreadPool, SuppressedFailuresAreCountedAndNoted) {
    // Two tasks on two threads, each waiting for the other before
    // throwing: both failures are guaranteed recorded, so exactly one is
    // suppressed — deterministically, unlike the fail-fast race above.
    ThreadPool pool(2);
    obs::Session session;
    const obs::SessionBind bind(session);
    std::atomic<int> arrived{0};
    try {
        pool.parallelFor(2, [&](int i) {
            arrived.fetch_add(1);
            // Spin: both tasks are mid-flight before either throws. The
            // pool owner is pinned here in task 0, so the worker thread
            // must claim task 1 — the rendezvous cannot deadlock.
            while (arrived.load() < 2) std::this_thread::yield();
            throw std::runtime_error("task " + std::to_string(i));
        });
        FAIL() << "expected the region to rethrow";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("task 0", 0), 0u) << what;
        EXPECT_NE(what.find("[+1 suppressed task failure(s)"),
                  std::string::npos)
            << what;
    }
    // The owner thread's bound session records the tally.
    EXPECT_EQ(session.counter("parallel/exceptions_suppressed").value(), 1);
}

TEST(ThreadPool, PoolSurvivesAFailedRegion) {
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(8, [](int) { throw std::runtime_error("boom"); }),
        std::runtime_error);
    const std::vector<int> ok =
        pool.parallelMap<int>(8, [](int i) { return i; });
    ASSERT_EQ(ok.size(), 8u);
    EXPECT_EQ(ok[7], 7);
}

TEST(ThreadPool, LaterPoolsOnAThreadReuseItsWorkers) {
    // A fresh thread starts with no idle workers; each pool hands its
    // worker back on destruction and the next one borrows it.
    std::set<int> workers;
    std::thread([&] {
        const int owner = threadSerial();
        for (int p = 0; p < 3; ++p) {
            ThreadPool pool(2);
            for (const int serial : rendezvous(pool, 2)) {
                if (serial != owner) workers.insert(serial);
            }
        }
    }).join();
    EXPECT_EQ(workers.size(), 1u);
}

TEST(ThreadPool, LivePoolsOnOneThreadOwnDistinctWorkers) {
    // A pool owns its worker set until it is destroyed: a second pool
    // alive at the same time on the same thread gets a set of its own.
    std::thread([] {
        ThreadPool first(2);
        ThreadPool second(2);
        const std::vector<int> a = rendezvous(first, 2);
        const std::vector<int> b = rendezvous(second, 2);
        const std::vector<int> again = rendezvous(first, 2);
        const int owner = threadSerial();
        const auto worker = [owner](const std::vector<int>& ran) {
            return ran[0] == owner ? ran[1] : ran[0];
        };
        EXPECT_NE(worker(a), worker(b));
        EXPECT_EQ(worker(a), worker(again));
    }).join();
}

// Counts the threads that ran a task and have since exited.
std::atomic<int> gExitedTaskThreads{0};
struct ExitMark {
    bool ranTask = false;
    ~ExitMark() {
        if (ranTask) gExitedTaskThreads.fetch_add(1);
    }
};
thread_local ExitMark tlExitMark;

TEST(ThreadPool, ThreadExitJoinsItsIdleWorkers) {
    gExitedTaskThreads = 0;
    std::set<int> ran;
    std::thread([&] {
        ThreadPool pool(3);
        std::atomic<int> arrived{0};
        std::mutex m;
        pool.parallelFor(3, [&](int) {
            tlExitMark.ranTask = true;
            {
                const std::lock_guard<std::mutex> lock(m);
                ran.insert(threadSerial());
            }
            arrived.fetch_add(1);
            while (arrived.load() < 3) std::this_thread::yield();
        });
    }).join();
    // The owner and both workers ran a task; the owner's exit joined
    // the idle workers, so all three have exited by now.
    EXPECT_EQ(ran.size(), 3u);
    EXPECT_EQ(gExitedTaskThreads.load(), 3);
}

TEST(ThreadPool, PoolOutlivingItsThreadsIdleListJoinsItsOwnWorkers) {
    std::thread([] {
        // Constructed before the thread's idle list (its first region
        // creates that), so destroyed after it at thread exit.
        thread_local ThreadPool pool(2);
        const std::vector<int> ran = rendezvous(pool, 2);
        EXPECT_NE(ran[0], ran[1]);
    }).join();
}

TEST(ThreadPool, BackToBackTinyRegionsVisitEachIndexOnce) {
    // Regions this short often close before a worker wakes; the worker
    // must then skip that region, never run a task of it late or twice.
    ThreadPool pool(4);
    for (int r = 0; r < 5000; ++r) {
        const int n = 2 + r % 3;
        std::array<std::atomic<int>, 4> visits{};
        pool.parallelFor(n, [&](int i) {
            visits[static_cast<size_t>(i)].fetch_add(1);
        });
        for (int i = 0; i < 4; ++i) {
            ASSERT_EQ(visits[static_cast<size_t>(i)].load(), i < n ? 1 : 0)
                << "region " << r << " index " << i;
        }
    }
}

TEST(ThreadPool, HandedBackSetCarriesNoStaleErrorOrTask) {
    std::thread([] {
        const int owner = threadSerial();
        int failedWorker = -1;
        {
            ThreadPool pool(2);
            std::atomic<int> arrived{0};
            const auto failBoth = [&](int) {
                if (threadSerial() != owner) failedWorker = threadSerial();
                arrived.fetch_add(1);
                while (arrived.load() < 2) std::this_thread::yield();
                throw std::runtime_error("boom");
            };
            EXPECT_THROW(pool.parallelFor(2, failBoth), std::runtime_error);
        }
        ThreadPool pool(2);
        std::vector<int> ran;
        EXPECT_NO_THROW(ran = rendezvous(pool, 2));
        ASSERT_EQ(ran.size(), 2u);
        EXPECT_TRUE(ran[0] == failedWorker || ran[1] == failedWorker)
            << "the new pool did not take the handed-back worker";
        const std::vector<int> squares =
            pool.parallelMap<int>(8, [](int i) { return i * i; });
        for (int i = 0; i < 8; ++i) {
            EXPECT_EQ(squares[static_cast<size_t>(i)], i * i);
        }
    }).join();
}

TEST(ThreadPool, OneThreadPoolRunsEveryTaskOnTheCaller) {
    std::thread([] {
        const long threadsBefore = processThreads();
        const int caller = threadSerial();
        ThreadPool pool(1);
        for (const int serial :
             pool.parallelMap<int>(50, [](int) { return threadSerial(); })) {
            EXPECT_EQ(serial, caller);
        }
        // A one-task region of a larger pool also runs inline.
        ThreadPool wide(4);
        wide.parallelFor(1, [caller](int) { EXPECT_EQ(threadSerial(), caller); });
        EXPECT_EQ(processThreads(), threadsBefore) << "a worker was started";
    }).join();
}

TEST(ThreadPool, StatsCountRegionsAndTasks) {
    ThreadPool pool(2);
    pool.parallelFor(10, [](int) {});
    pool.parallelFor(5, [](int) {});
    const RegionStats& s = pool.stats();
    EXPECT_EQ(s.threads, 2);
    EXPECT_EQ(s.regions, 2);
    EXPECT_EQ(s.tasks, 15);
    EXPECT_GE(s.wallSeconds, 0.0);
    EXPECT_GE(s.taskSeconds, 0.0);
}

TEST(RegionStats, MergeTakesMaxThreadsAndSums) {
    RegionStats a;
    a.threads = 2;
    a.regions = 1;
    a.tasks = 10;
    a.wallSeconds = 1.0;
    a.taskSeconds = 2.0;
    RegionStats b;
    b.threads = 4;
    b.regions = 3;
    b.tasks = 5;
    b.wallSeconds = 0.5;
    b.taskSeconds = 1.0;
    a.merge(b);
    EXPECT_EQ(a.threads, 4);
    EXPECT_EQ(a.regions, 4);
    EXPECT_EQ(a.tasks, 15);
    EXPECT_DOUBLE_EQ(a.wallSeconds, 1.5);
    EXPECT_DOUBLE_EQ(a.taskSeconds, 3.0);
    EXPECT_DOUBLE_EQ(a.speedupEstimate(), 2.0);
}

TEST(RegionStats, SpeedupDefaultsToOneWithoutWallTime) {
    const RegionStats s;
    EXPECT_DOUBLE_EQ(s.speedupEstimate(), 1.0);
}

}  // namespace
}  // namespace streak::parallel
