// Run-wide deadline + cancellation (DESIGN.md "Robustness").
//
// One wall-clock budget governs the whole flow: runStreak() arms a
// Deadline from StreakOptions::deadlineSeconds, pairs it with the
// caller's optional CancelToken, and carries both as a cheap copyable
// Ticket inside the options struct every stage already receives. Hot
// loops poll the ticket at their natural tick points (maze pops, LP
// pivots, B&B nodes, refine waves, PD iterations, clustering rounds)
// through a strided TickGate, so a cancelled or over-budget run unwinds
// cleanly at the next tick via a structured StreakException.
//
// Determinism contract: the ticket never feeds timing back into any
// algorithmic decision — a run that is neither cancelled nor past its
// deadline behaves byte-identically to one with no ticket at all.
//
// Deadline is built on obs::Stopwatch so the raw-std::chrono lint rule
// stays confined to src/obs and src/parallel.
#pragma once

#include <atomic>
#include <memory>

#include "obs/trace.hpp"
#include "robust/error.hpp"

namespace streak::robust {

/// Thread-safe one-way cancellation flag. Hand the same shared_ptr to
/// StreakOptions::cancel and to whatever owns the run (a signal handler,
/// a daemon RPC, a watchdog thread); requestCancel() makes every ticket
/// checkpoint throw from then on.
class CancelToken {
public:
    void requestCancel() { cancelled_.store(true, std::memory_order_relaxed); }
    [[nodiscard]] bool cancelled() const {
        return cancelled_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<bool> cancelled_{false};
};

/// Wall-clock budget armed at construction. A budget of <= 0 seconds
/// means "no deadline" (never expires).
class Deadline {
public:
    explicit Deadline(double seconds) : budget_(seconds) {}

    [[nodiscard]] bool armed() const { return budget_ > 0.0; }
    [[nodiscard]] bool expired() const {
        return armed() && watch_.seconds() > budget_;
    }

private:
    obs::Stopwatch watch_;
    double budget_ = 0.0;
};

enum class Trip { None, Cancelled, DeadlineExpired };

/// Copyable handle over (deadline, cancel) that rides inside
/// StreakOptions — and therefore inside Problem::opts, BnbOptions and
/// MazeOptions, and into every ilp::solveLp call — down to every hot
/// loop. Default-constructed tickets are idle and cost one branch per
/// checkpoint.
class Ticket {
public:
    Ticket() = default;
    Ticket(std::shared_ptr<const Deadline> deadline,
           std::shared_ptr<const CancelToken> cancel)
        : deadline_(std::move(deadline)), cancel_(std::move(cancel)) {}

    [[nodiscard]] bool idle() const {
        return deadline_ == nullptr && cancel_ == nullptr;
    }

    /// Non-throwing poll. Cancellation wins over deadline expiry.
    [[nodiscard]] Trip trip() const {
        if (cancel_ != nullptr && cancel_->cancelled()) return Trip::Cancelled;
        if (deadline_ != nullptr && deadline_->expired()) {
            return Trip::DeadlineExpired;
        }
        return Trip::None;
    }

    /// Throws a StreakException when cancelled or past deadline; no-op
    /// otherwise. `site` names the tick point for the error report.
    void checkpoint(const char* site) const {
        if (idle()) return;
        const Trip t = trip();
        if (t != Trip::None) raise(tripError(t, site));
    }

    /// The structured error a given trip produces (also used by the
    /// thread pool, which records rather than throws inside workers).
    [[nodiscard]] static StreakError tripError(Trip trip, const char* site);

private:
    std::shared_ptr<const Deadline> deadline_;
    std::shared_ptr<const CancelToken> cancel_;
};

/// Strided checkpoint for hot loops: polls the clock only once every
/// `stride` ticks so the per-iteration cost is an increment + compare
/// (and nothing at all for idle tickets).
class TickGate {
public:
    explicit TickGate(const Ticket& ticket, const char* site,
                      int stride = 1024)
        : ticket_(&ticket), site_(site), stride_(ticket.idle() ? 0 : stride) {}

    void tick() {
        if (stride_ == 0) return;
        if (++count_ >= stride_) {
            count_ = 0;
            ticket_->checkpoint(site_);
        }
    }

private:
    const Ticket* ticket_;
    const char* site_;
    int stride_;
    int count_ = 0;
};

}  // namespace streak::robust
