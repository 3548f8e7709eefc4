#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/obs.hpp"
#include "util/parallel.hpp"

namespace spooftrack::pipeline {

std::size_t effective_workers(const ExecutorOptions& options) noexcept {
  const std::size_t workers = options.workers == 0
                                  ? util::default_worker_count()
                                  : options.workers;
  return std::max<std::size_t>(workers, 1);
}

namespace {

enum class Kind : std::uint8_t { kNone, kProduce, kWork, kCommit };

struct Claim {
  Kind kind = Kind::kNone;
  std::size_t chain = 0;  // produce
  std::size_t step = 0;   // produce
  std::size_t item = 0;   // work / commit
};

/// All scheduler state, guarded by one mutex. Tasks are coarse (a BGP
/// propagation, a full measurement pipeline), so a single lock + condvar
/// is nowhere near contention; the complexity budget goes into the claim
/// priority and the backpressure bound instead.
class Scheduler {
 public:
  Scheduler(const GraphPlan& plan, const Stages& stages,
            std::size_t queue_depth)
      : plan_(plan), stages_(stages), queue_depth_(queue_depth) {
    const std::size_t chains = plan.chains();
    next_step_.assign(chains, 0);
    producing_.assign(chains, 0);
    inflight_steps_.assign(chains, 0);
    unworked_.resize(chains);
    item_chain_.assign(plan.items, 0);
    item_step_.assign(plan.items, 0);
    worked_.assign(plan.items, 0);
    std::vector<char> seen(plan.items, 0);
    std::size_t total = 0;
    for (std::size_t c = 0; c < chains; ++c) {
      unworked_[c].assign(plan.chain_steps[c].size(), 0);
      for (std::size_t s = 0; s < plan.chain_steps[c].size(); ++s) {
        for (std::size_t item : plan.chain_steps[c][s]) {
          if (item >= plan.items || seen[item]) {
            throw std::invalid_argument(
                "pipeline: plan items must form a permutation of [0, items)");
          }
          seen[item] = 1;
          item_chain_[item] = c;
          item_step_[item] = s;
          ++total;
        }
      }
    }
    if (total != plan.items) {
      throw std::invalid_argument(
          "pipeline: plan items must form a permutation of [0, items)");
    }
  }

  void worker(std::size_t worker_index) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      Claim claim = try_claim();
      while (claim.kind == Kind::kNone && !done()) {
        OBS_COUNT("pipeline.stalls", 1);
        cv_.wait(lock);
        claim = try_claim();
      }
      if (claim.kind == Kind::kNone) return;
      ++running_;
      lock.unlock();
      std::exception_ptr error = execute(claim, worker_index);
      lock.lock();
      --running_;
      settle(claim, std::move(error));
      cv_.notify_all();
    }
  }

  void rethrow_if_failed() {
    if (first_error_) std::rethrow_exception(first_error_);
  }

 private:
  bool done() const {
    if (running_ != 0) return false;
    if (aborted_) return true;
    if (next_commit_ != plan_.items) return false;
    for (std::size_t c = 0; c < plan_.chains(); ++c) {
      if (next_step_[c] != plan_.chain_steps[c].size()) return false;
    }
    return true;
  }

  Claim try_claim() {
    if (aborted_) return {};
    // Commits first: they retire the global frontier and unblock nothing
    // downstream of themselves, so deferring one only grows live state.
    if (!committing_ && next_commit_ < plan_.items &&
        worked_[next_commit_]) {
      committing_ = true;
      Claim claim;
      claim.kind = Kind::kCommit;
      claim.item = next_commit_++;
      return claim;
    }
    if (!ready_.empty()) {
      OBS_HIST("pipeline.ready_items", "items", ready_.size());
      Claim claim;
      claim.kind = Kind::kWork;
      claim.item = ready_.front();
      ready_.erase(ready_.begin());
      return claim;
    }
    for (std::size_t c = 0; c < plan_.chains(); ++c) {
      if (producing_[c] || next_step_[c] >= plan_.chain_steps[c].size() ||
          inflight_steps_[c] >= queue_depth_) {
        continue;
      }
      producing_[c] = 1;
      Claim claim;
      claim.kind = Kind::kProduce;
      claim.chain = c;
      claim.step = next_step_[c]++;
      return claim;
    }
    return {};
  }

  /// Runs one task outside the scheduler lock; returns what it threw.
  std::exception_ptr execute(const Claim& claim, std::size_t worker_index) {
    try {
      switch (claim.kind) {
        case Kind::kProduce:
          if (stages_.produce) {
            OBS_TIMER("pipeline.produce_ns");
            stages_.produce(claim.chain, claim.step);
          }
          OBS_COUNT("pipeline.produce_tasks", 1);
          break;
        case Kind::kWork:
          if (stages_.work) {
            OBS_TIMER("pipeline.work_ns");
            stages_.work(claim.item, worker_index);
          }
          OBS_COUNT("pipeline.work_tasks", 1);
          break;
        case Kind::kCommit:
          if (stages_.commit) {
            OBS_TIMER("pipeline.commit_ns");
            stages_.commit(claim.item);
          }
          OBS_COUNT("pipeline.commit_tasks", 1);
          break;
        case Kind::kNone:
          break;
      }
    } catch (...) {
      return std::current_exception();
    }
    return nullptr;
  }

  /// State transition after a task returned, under the scheduler lock. The
  /// first error settled aborts the run: nothing new is claimed after it.
  void settle(const Claim& claim, std::exception_ptr error) {
    if (error && !first_error_) {
      first_error_ = std::move(error);
      aborted_ = true;
    }
    switch (claim.kind) {
      case Kind::kProduce: {
        producing_[claim.chain] = 0;
        const auto& items = plan_.chain_steps[claim.chain][claim.step];
        unworked_[claim.chain][claim.step] = items.size();
        if (!items.empty()) {
          ++inflight_steps_[claim.chain];
          ready_.insert(ready_.end(), items.begin(), items.end());
        }
        break;
      }
      case Kind::kWork: {
        worked_[claim.item] = 1;
        const std::size_t c = item_chain_[claim.item];
        const std::size_t s = item_step_[claim.item];
        if (--unworked_[c][s] == 0) --inflight_steps_[c];
        break;
      }
      case Kind::kCommit:
        committing_ = false;
        break;
      case Kind::kNone:
        break;
    }
  }

  const GraphPlan& plan_;
  const Stages& stages_;
  const std::size_t queue_depth_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::size_t> next_step_;
  std::vector<char> producing_;
  std::vector<std::size_t> inflight_steps_;
  std::vector<std::vector<std::size_t>> unworked_;
  std::vector<std::size_t> item_chain_;
  std::vector<std::size_t> item_step_;
  std::vector<std::size_t> ready_;  // FIFO of workable items
  std::vector<char> worked_;
  std::size_t next_commit_ = 0;
  bool committing_ = false;
  std::size_t running_ = 0;
  bool aborted_ = false;
  std::exception_ptr first_error_;
};

}  // namespace

void run_graph(const GraphPlan& plan, const Stages& stages,
               const ExecutorOptions& options) {
  OBS_COUNT("pipeline.runs", 1);
  OBS_COUNT("pipeline.items", plan.items);
  const std::size_t workers = effective_workers(options);
  const std::size_t queue_depth = std::max<std::size_t>(options.queue_depth, 1);
  OBS_GAUGE("pipeline.workers", workers);
  OBS_GAUGE("pipeline.queue_depth", queue_depth);

  Scheduler scheduler(plan, stages, queue_depth);
  if (workers == 1) {
    // Fully inline: the caller drains the canonical serial schedule
    // (commit > work > produce); no threads, no waits.
    scheduler.worker(0);
    scheduler.rethrow_if_failed();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    pool.emplace_back([&scheduler, w] { scheduler.worker(w); });
  }
  scheduler.worker(0);
  for (auto& t : pool) t.join();
  scheduler.rethrow_if_failed();
}

}  // namespace spooftrack::pipeline
