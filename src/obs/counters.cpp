#include "obs/counters.hpp"

#include "check/assert.hpp"

namespace streak::obs {

Histogram::Histogram(std::vector<long long> upperBounds)
    : upperBounds_(std::move(upperBounds)),
      buckets_(upperBounds_.size() + 1) {
    for (size_t i = 1; i < upperBounds_.size(); ++i) {
        STREAK_REQUIRE(upperBounds_[i - 1] < upperBounds_[i],
                       "histogram bounds must be strictly increasing "
                       "({} then {} at position {})",
                       upperBounds_[i - 1], upperBounds_[i], i);
    }
}

void Histogram::record(long long value) {
    size_t bucket = upperBounds_.size();  // overflow unless a bound fits
    for (size_t i = 0; i < upperBounds_.size(); ++i) {
        if (value <= upperBounds_[i]) {
            bucket = i;
            break;
        }
    }
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<long long> Histogram::counts() const {
    std::vector<long long> out;
    out.reserve(buckets_.size());
    for (const std::atomic<long long>& b : buckets_) {
        out.push_back(b.load(std::memory_order_relaxed));
    }
    return out;
}

Counter& Registry::counter(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(name);
    if (it != counters_.end()) return *it->second;
    return *counters_.emplace(std::string(name), std::make_unique<Counter>())
                .first->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<long long> upperBounds) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) return *it->second;
    return *histograms_
                .emplace(std::string(name),
                         std::make_unique<Histogram>(std::move(upperBounds)))
                .first->second;
}

Snapshot Registry::snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snap;
    for (const auto& [name, c] : counters_) {
        snap.counters.emplace(name, c->value());
    }
    for (const auto& [name, h] : histograms_) {
        Snapshot::HistogramValues v;
        v.upperBounds = h->upperBounds();
        v.counts = h->counts();
        v.total = h->total();
        v.sum = h->sum();
        snap.histograms.emplace(name, std::move(v));
    }
    return snap;
}

Snapshot Snapshot::minus(const Snapshot& base) const {
    // Zero-delta entries are dropped, so a counter registered but never
    // bumped in the measured interval does not show up in a report.
    Snapshot out;
    for (const auto& [name, value] : counters) {
        const auto it = base.counters.find(name);
        const long long delta =
            value - (it == base.counters.end() ? 0 : it->second);
        if (delta != 0) out.counters.emplace(name, delta);
    }
    for (const auto& [name, values] : histograms) {
        HistogramValues v = values;
        const auto it = base.histograms.find(name);
        if (it != base.histograms.end()) {
            STREAK_ASSERT(it->second.counts.size() == v.counts.size(),
                          "histogram {} changed bucket count across "
                          "snapshots ({} vs {})",
                          name, it->second.counts.size(), v.counts.size());
            for (size_t i = 0; i < v.counts.size(); ++i) {
                v.counts[i] -= it->second.counts[i];
            }
            v.total -= it->second.total;
            v.sum -= it->second.sum;
        }
        if (v.total != 0) out.histograms.emplace(name, std::move(v));
    }
    return out;
}

}  // namespace streak::obs
