#include "util/parallel.hpp"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace spooftrack::util {

std::optional<std::size_t> env_worker_override() noexcept {
  if (const char* env = std::getenv("SPOOFTRACK_THREADS")) {
    // Accept only a clean positive integer: the whole string must parse and
    // the value must be in range. "8abc", "", "-3", "0" and overflowing
    // values are all rejected.
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && errno != ERANGE && parsed >= 1 &&
        static_cast<std::size_t>(parsed) <= kMaxWorkers) {
      return static_cast<std::size_t>(parsed);
    }
  }
  return std::nullopt;
}

std::size_t default_worker_count() noexcept {
  if (const auto env = env_worker_override()) return *env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  std::size_t workers) {
  if (count == 0) return;
  OBS_COUNT("parallel.invocations", 1);
  OBS_COUNT("parallel.tasks", count);
  if (workers == 0) workers = default_worker_count();
  // The calling thread is the pool's last worker.
  WorkerPool(std::min(workers, count) - 1).run(count, fn);
}

WorkerPool::WorkerPool(std::size_t threads) : target_threads_(threads) {}

void WorkerPool::ensure_spawned() {
  // First multi-task batch: spawn the workers. run() is documented as
  // driven from one thread at a time, so no lock is needed here.
  if (!threads_.empty()) return;
  threads_.reserve(target_threads_);
  for (std::size_t i = 0; i < target_threads_; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::drain_batch() {
  while (!stop_batch_.load(std::memory_order_acquire)) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= task_count_) return;
    try {
      (*fn_)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
      stop_batch_.store(true, std::memory_order_release);
      return;
    }
  }
}

void WorkerPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock,
                    [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
    }
    drain_batch();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_workers_ == 0) done_cv_.notify_one();
    }
  }
}

void WorkerPool::run(std::size_t tasks,
                     const std::function<void(std::size_t)>& fn) {
  if (tasks == 0) return;
  // Effective worker count 1 (no pool threads, or nothing to share): run
  // the batch inline — no spawns, no wakeups, no cv round-trips.
  if (target_threads_ == 0 || tasks == 1) {
    for (std::size_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  ensure_spawned();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    task_count_ = tasks;
    fn_ = &fn;
    next_.store(0, std::memory_order_relaxed);
    stop_batch_.store(false, std::memory_order_relaxed);
    first_error_ = nullptr;
    pending_workers_ = threads_.size();
    ++generation_;  // publishes the batch to workers under the lock
  }
  work_cv_.notify_all();
  // The caller is a full participant: with small batches it often finishes
  // the whole batch before a worker even wakes.
  drain_batch();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return pending_workers_ == 0; });
    error = first_error_;
    fn_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace spooftrack::util
