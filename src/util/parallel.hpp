// Data-parallel helpers. The blocking parallel_for below runs one batch on
// a short-lived WorkerPool; core::random_ensemble uses it to run its
// independent random schedules side by side. The greedy scheduler
// (core/scheduler) keeps a WorkerPool for its whole run: it dispatches one
// batch of chunk tasks per greedy step, and spawning threads per step
// would dominate the work.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace spooftrack::util {

/// Upper bound on an explicit worker count, from SPOOFTRACK_THREADS or the
/// CLI's --workers; anything larger is a configuration error (and would
/// only oversubscribe the scheduler anyway).
inline constexpr std::size_t kMaxWorkers = std::size_t{1} << 16;

/// Number of workers parallel_for will use (>= 1); honours the environment
/// variable SPOOFTRACK_THREADS when it holds a clean positive integer
/// (no trailing garbage, at most kMaxWorkers), else falls back to
/// hardware_concurrency.
std::size_t default_worker_count() noexcept;

/// The SPOOFTRACK_THREADS override, if the variable is set to a clean
/// positive integer (same validation as default_worker_count); nullopt when
/// unset or malformed. Exposed so CLI flag handling can detect — and reject
/// — a --workers value conflicting with the environment (docs/cli.md,
/// "Worker-count precedence").
std::optional<std::size_t> env_worker_override() noexcept;

/// Runs fn(i) for i in [0, count) across `workers` threads (0 = default),
/// the calling thread among them. Blocks until all iterations complete.
/// Exceptions in tasks are rethrown (first one wins) after all workers have
/// stopped; once a task throws, no worker claims new work (tasks already
/// started still run to completion).
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  std::size_t workers = 0);

/// A pool of persistent worker threads for repeated small batches.
///
/// `run(tasks, fn)` executes fn(i) for i in [0, tasks), the calling thread
/// participating alongside the pool's threads; tasks are claimed dynamically
/// (atomic counter), so callers needing deterministic OUTPUT must make each
/// task index own its output slot — which thread runs it then cannot matter.
/// run() blocks until every task of the batch finished; it is not
/// re-entrant and the pool must be driven from one thread at a time.
/// Exceptions propagate like parallel_for (first wins, batch still drains).
class WorkerPool {
 public:
  /// A pool of `threads` persistent workers (0 is allowed: run() then
  /// executes everything on the calling thread). Threads are spawned
  /// lazily, on the first run() that can actually use them — a pool whose
  /// batches all turn out to be single-task (or a pool constructed on a
  /// single-core host by a worker-count heuristic) never pays thread
  /// creation, wakeups, or join-at-destruction.
  explicit WorkerPool(std::size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// The pool's worker-thread count (the constructor argument), whether or
  /// not the threads have been spawned yet.
  std::size_t threads() const noexcept { return target_threads_; }

  void run(std::size_t tasks, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  void drain_batch();
  void ensure_spawned();

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // Batch state, guarded by mutex_ except where noted. A new batch is
  // published by bumping generation_; workers pick it up, drain the shared
  // atomic task counter, and check out via pending_workers_.
  std::uint64_t generation_ = 0;
  std::size_t task_count_ = 0;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t pending_workers_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> stop_batch_{false};
  std::exception_ptr first_error_;
  bool shutdown_ = false;

  std::size_t target_threads_ = 0;
  std::vector<std::thread> threads_;
};

}  // namespace spooftrack::util
