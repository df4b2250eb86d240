// Parallel execution layer: a work-stealing-free thread pool with a
// deterministic-by-construction parallel_for, plus per-worker scratch
// storage.
//
// Design rules (see DESIGN.md "Execution layer"):
//  - parallel_for(count, body) invokes body(index, worker) exactly once for
//    every index in [0, count); indices are claimed dynamically from a
//    shared counter, so *scheduling* is non-deterministic but a body that
//    only writes to per-index slots (and per-worker scratch) produces
//    output independent of thread count and interleaving.  All engines
//    follow this discipline and merge per-index results serially, so their
//    RouteResult is bit-identical from 1 to N threads.
//  - The calling thread participates as worker 0; a pool with
//    num_threads() == 1 owns no OS threads and runs everything inline,
//    which keeps 1-thread timings honest (no synchronisation overhead).
//  - Exceptions thrown by a body cancel the remaining indices and the
//    first captured exception is rethrown from parallel_for.
//  - parallel_for does not nest: calling it from inside a body throws
//    std::logic_error.  Engines parallelise exactly one level.
#pragma once

#include <cstdint>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hxsim::exec {

/// Threads the hardware offers (>= 1 even when the runtime reports 0).
[[nodiscard]] std::int32_t hardware_threads();

/// Process-wide default used whenever a component takes `threads = 0`.
/// Starts at hardware_threads(); the bench layer sets it from --threads.
[[nodiscard]] std::int32_t default_threads();
void set_default_threads(std::int32_t threads);

class ThreadPool {
 public:
  /// threads == 0 picks default_threads(); threads == 1 runs inline with
  /// no OS threads.  Worker threads are spawned lazily by the first
  /// parallel_for with more than one index and live until destruction, so
  /// pools that end up doing tiny jobs (one index, or none) never pay the
  /// thread-spawn cost.
  explicit ThreadPool(std::int32_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::int32_t num_threads() const noexcept {
    return num_threads_;
  }

  /// body(index, worker): worker is in [0, num_threads()); worker 0 is the
  /// calling thread.  Blocks until every index ran (or an exception
  /// cancelled the rest); rethrows the first body exception.
  void parallel_for(std::int64_t count,
                    const std::function<void(std::int64_t, std::int32_t)>& body);

 private:
  /// Spawns the num_threads()-1 worker threads if not yet running.  Only
  /// called from parallel_for on the owning thread (the pool is not
  /// reentrant), so no lock is needed around the check.
  void ensure_workers();
  void worker_main(std::int32_t worker);
  /// Claims and runs indices of the current job; returns when none remain.
  void run_indices(const std::function<void(std::int64_t, std::int32_t)>& body,
                   std::int32_t worker);

  const std::int32_t num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable job_posted_;
  std::condition_variable job_drained_;
  std::uint64_t job_id_ = 0;  // bumped per parallel_for; workers track it
  const std::function<void(std::int64_t, std::int32_t)>* body_ = nullptr;
  std::int64_t count_ = 0;
  std::int32_t active_workers_ = 0;  // workers inside run_indices
  bool stop_ = false;

  std::atomic<std::int64_t> next_{0};  // next index to claim
  std::atomic<bool> cancelled_{false};
  std::exception_ptr error_;  // first body exception (guarded by mutex_)
};

/// One default-constructed T per pool worker.  Engines keep SPF /
/// solver scratch here so hot loops stop reallocating; slots are handed
/// out by the worker id parallel_for provides, so no locking is needed.
template <typename T>
class ScratchArena {
 public:
  explicit ScratchArena(const ThreadPool& pool)
      : slots_(static_cast<std::size_t>(pool.num_threads())) {}

  [[nodiscard]] T& local(std::int32_t worker) {
    return slots_[static_cast<std::size_t>(worker)];
  }
  [[nodiscard]] std::int32_t size() const noexcept {
    return static_cast<std::int32_t>(slots_.size());
  }

 private:
  std::vector<T> slots_;
};

}  // namespace hxsim::exec
