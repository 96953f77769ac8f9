// The bench's yardstick for host speed (see reference.cpp).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace perfbench {

/// Fixed work whose run time follows the host's speed the way the
/// program's does. Owns one worker thread, started by the constructor and
/// joined by the destructor.
class ReferenceKernel {
public:
    ReferenceKernel();
    ~ReferenceKernel();
    ReferenceKernel(const ReferenceKernel&) = delete;
    ReferenceKernel& operator=(const ReferenceKernel&) = delete;
    ReferenceKernel(ReferenceKernel&&) = delete;
    ReferenceKernel& operator=(ReferenceKernel&&) = delete;

    /// One pass of the fixed work; returns a checksum, the same on every
    /// call, so the work cannot be optimised away.
    std::uint64_t run();

private:
    void serve();

    std::mutex mutex_;
    std::condition_variable wake_;  ///< the worker waits here for a round
    std::condition_variable done_;  ///< run() waits here for the worker
    int posted_ = 0;                ///< rounds handed to the worker
    int finished_ = 0;              ///< rounds the worker has finished
    bool stop_ = false;
    std::uint64_t workerSum_ = 0;
    std::thread worker_;  ///< last, so it starts after what it uses
};

}  // namespace perfbench
