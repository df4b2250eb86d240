#include "exec/exec.hpp"

#include <stdexcept>

namespace hxsim::exec {

namespace {

std::atomic<std::int32_t> g_default_threads{0};  // 0: not yet initialised

/// Set while a thread is executing a parallel_for body; used to reject
/// nested parallelism (worker threads would deadlock waiting on a job
/// that can never be posted to them).
thread_local bool tl_in_parallel_region = false;

}  // namespace

std::int32_t hardware_threads() {
  const auto n = static_cast<std::int32_t>(std::thread::hardware_concurrency());
  return n > 0 ? n : 1;
}

std::int32_t default_threads() {
  const std::int32_t n = g_default_threads.load(std::memory_order_relaxed);
  return n > 0 ? n : hardware_threads();
}

void set_default_threads(std::int32_t threads) {
  if (threads < 0)
    throw std::invalid_argument("set_default_threads: negative count");
  g_default_threads.store(threads, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(std::int32_t threads)
    : num_threads_(threads == 0 ? default_threads() : threads) {
  if (num_threads_ < 1)
    throw std::invalid_argument("ThreadPool: thread count must be >= 1");
  // Workers spawn lazily in ensure_workers(): a pool whose parallel_for
  // calls cover one index or none must not pay num_threads-1 thread
  // spawns for them.
}

void ThreadPool::ensure_workers() {
  if (num_threads_ <= 1 || !workers_.empty()) return;
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (std::int32_t w = 1; w < num_threads_; ++w)
    workers_.emplace_back([this, w] { worker_main(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  job_posted_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::run_indices(
    const std::function<void(std::int64_t, std::int32_t)>& body,
    std::int32_t worker) {
  tl_in_parallel_region = true;
  while (!cancelled_.load(std::memory_order_relaxed)) {
    const std::int64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count_) break;
    try {
      body(i, worker);
    } catch (...) {
      cancelled_.store(true, std::memory_order_relaxed);
      std::lock_guard lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }
  tl_in_parallel_region = false;
}

void ThreadPool::worker_main(std::int32_t worker) {
  std::uint64_t seen_job = 0;
  for (;;) {
    const std::function<void(std::int64_t, std::int32_t)>* body = nullptr;
    {
      std::unique_lock lock(mutex_);
      job_posted_.wait(lock, [&] { return stop_ || job_id_ != seen_job; });
      if (stop_) return;
      seen_job = job_id_;
      if (body_ == nullptr) continue;  // woke after the job already drained
      body = body_;
      ++active_workers_;  // under mutex: the drain wait counts us from here
    }
    run_indices(*body, worker);
    {
      std::lock_guard lock(mutex_);
      --active_workers_;
    }
    job_drained_.notify_one();
  }
}

void ThreadPool::parallel_for(
    std::int64_t count,
    const std::function<void(std::int64_t, std::int32_t)>& body) {
  if (tl_in_parallel_region)
    throw std::logic_error(
        "ThreadPool::parallel_for: nested parallel regions are not "
        "supported");
  if (count <= 0) return;
  if (count > 1) ensure_workers();

  {
    std::lock_guard lock(mutex_);
    body_ = &body;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    cancelled_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    ++job_id_;
  }
  job_posted_.notify_all();

  // The caller is worker 0.
  run_indices(body, 0);

  // Wait until no worker is still inside run_indices, then close the job:
  // workers that wake afterwards see body_ == nullptr and go back to
  // sleep, so they can never claim indices from a stale or future job.
  std::unique_lock lock(mutex_);
  job_drained_.wait(lock, [&] { return active_workers_ == 0; });
  body_ = nullptr;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace hxsim::exec
