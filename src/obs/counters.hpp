// Named monotonic counters and value histograms (DESIGN.md
// "Observability").
//
// Counters follow the `stage/subsystem.metric` naming convention
// ("solve/bnb.nodes_explored", "route/maze.pops"). They hold plain
// integers updated by atomic adds — integer addition is commutative, so
// totals are byte-identical for every thread count and schedule. The
// determinism contract of the whole layer: counters never hold
// timestamps or anything else schedule-dependent; wall time lives only
// in spans.
//
// Hot-path usage pattern — resolve the handle once per scope, accumulate
// locally, flush behind the runtime detail gate:
//
//   long long n = 0;
//   ... ++n in the loop ...
//   if (obs::detailEnabled()) obs::session().counter("route/maze.pops").add(n);
//
// Never cache a handle in a `static` local: handles belong to the
// Session (obs/session.hpp) that resolved them, and every run has its
// own session, so a static would dangle once the first run returned.
//
// Histograms bucket values against fixed upper bounds; the last bucket
// is an unbounded overflow bucket (how the per-edge utilization
// distribution represents > 100% overflow).
//
// Handles live in a Registry owned by an obs::Session and are always
// resolved through one: obs::session().counter(...). Registered entries
// are never removed, so references stay valid for the owning session's
// lifetime. runStreak records every run into a session of its own, so a
// run's values are simply that session's snapshot; Snapshot::minus gives
// the delta when a caller shares one session across several operations.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace streak::obs {

/// Monotonic counter; add() is safe from any thread.
class Counter {
public:
    void add(long long n) { value_.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] long long value() const {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<long long> value_{0};
};

/// Fixed-bucket histogram; record() is safe from any thread.
class Histogram {
public:
    explicit Histogram(std::vector<long long> upperBounds);

    /// Count `value` into the first bucket with value <= bound, or the
    /// trailing overflow bucket.
    void record(long long value);

    [[nodiscard]] const std::vector<long long>& upperBounds() const {
        return upperBounds_;
    }
    /// Bucket counts; size() == upperBounds().size() + 1 (overflow last).
    [[nodiscard]] std::vector<long long> counts() const;
    [[nodiscard]] long long total() const {
        return total_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] long long sum() const {
        return sum_.load(std::memory_order_relaxed);
    }

private:
    std::vector<long long> upperBounds_;
    std::vector<std::atomic<long long>> buckets_;
    std::atomic<long long> total_{0};
    std::atomic<long long> sum_{0};
};

/// Point-in-time copy of every registered counter and histogram, plus
/// delta arithmetic for per-run values.
struct Snapshot {
    struct HistogramValues {
        std::vector<long long> upperBounds;
        std::vector<long long> counts;  ///< bounds.size() + 1, overflow last
        long long total = 0;
        long long sum = 0;
    };

    std::map<std::string, long long> counters;
    std::map<std::string, HistogramValues> histograms;

    /// Everything this snapshot accumulated beyond `base` (counters /
    /// histograms absent from `base` count from zero); entries that did
    /// not move are dropped, so minus({}) keeps only the nonzero ones.
    [[nodiscard]] Snapshot minus(const Snapshot& base) const;
};

/// Name -> handle maps for one Session. Handles are heap-allocated once
/// and never freed while the registry lives, so references stay stable
/// while the maps grow under the lock.
class Registry {
public:
    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /// Handle for a counter; creates it on first use. The returned
    /// reference is valid for the registry's lifetime.
    [[nodiscard]] Counter& counter(std::string_view name);

    /// Handle for a histogram; creates it (with these bounds) on first
    /// use. Re-registration with different bounds keeps the original.
    [[nodiscard]] Histogram& histogram(std::string_view name,
                                       std::vector<long long> upperBounds);

    /// Point-in-time copy of every registered counter and histogram.
    [[nodiscard]] Snapshot snapshot() const;

private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace streak::obs
