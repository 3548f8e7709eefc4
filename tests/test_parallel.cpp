#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "helpers.hpp"

namespace spooftrack::util {
namespace {

using test::ThreadsEnvGuard;

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleWorkerFallback) {
  std::vector<int> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
               1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(100,
                   [&](std::size_t i) {
                     if (i == 42) throw std::runtime_error("boom");
                   },
                   4),
      std::runtime_error);
}

TEST(ParallelFor, ResultsMatchSequential) {
  std::vector<std::uint64_t> out(500);
  parallel_for(out.size(), [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelFor, DefaultWorkerCountPositive) {
  EXPECT_GE(default_worker_count(), 1u);
}

TEST(ParallelFor, ThreadsEnvHonoursCleanPositiveInteger) {
  ThreadsEnvGuard guard;
  ThreadsEnvGuard::set("8");
  EXPECT_EQ(default_worker_count(), 8u);
  ThreadsEnvGuard::set("1");
  EXPECT_EQ(default_worker_count(), 1u);
}

TEST(ParallelFor, ThreadsEnvRejectsGarbageAndOutOfRange) {
  ThreadsEnvGuard guard;
  ThreadsEnvGuard::clear();
  const std::size_t fallback = default_worker_count();
  for (const char* bad :
       {"8abc", "abc", "", " ", "-3", "0", "4.5", "0x10",
        "999999999999999999999999999", "9999999999", "1000000"}) {
    ThreadsEnvGuard::set(bad);
    EXPECT_EQ(default_worker_count(), fallback) << "value: '" << bad << "'";
  }
}

TEST(ParallelFor, StopsClaimingNewWorkAfterException) {
  // Regression: termination is signalled through a dedicated stop flag, not
  // by storing a sentinel into the work index where concurrent fetch_adds
  // race with it. After one task throws, peers may finish tasks already
  // claimed but must not keep draining the remaining iterations.
  const std::size_t count = 100000;
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(
      parallel_for(
          count,
          [&](std::size_t i) {
            if (i == 0) throw std::runtime_error("boom");
            executed.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          },
          8),
      std::runtime_error);
  EXPECT_LT(executed.load(), count / 10);
}

TEST(ParallelFor, ConcurrentThrowersReportFirstErrorAndTerminate) {
  // Every task throws from every worker at once: exactly one exception
  // must surface and the call must terminate (no deadlock, no crash).
  EXPECT_THROW(
      parallel_for(
          64, [](std::size_t i) { throw std::domain_error(std::to_string(i)); },
          8),
      std::domain_error);
}

TEST(WorkerPool, RunsEveryTaskExactlyOnce) {
  WorkerPool pool(3);
  EXPECT_EQ(pool.threads(), 3u);
  std::vector<std::atomic<int>> hits(1000);
  pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, ReusableAcrossManyBatches) {
  // The engine dispatches one batch per Jacobi round; the pool must not
  // leak generations or wedge across hundreds of small batches.
  WorkerPool pool(2);
  std::atomic<std::size_t> total{0};
  for (int batch = 0; batch < 500; ++batch) {
    pool.run(7, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 500u * 7u);
}

TEST(WorkerPool, ZeroThreadsRunsOnCaller) {
  WorkerPool pool(0);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(16);
  pool.run(ran.size(),
           [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const auto& id : ran) EXPECT_EQ(id, caller);
}

TEST(WorkerPool, ZeroTasksIsNoop) {
  WorkerPool pool(2);
  bool called = false;
  pool.run(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(WorkerPool, CallerParticipates) {
  // A single-task batch runs on the caller even with threads available
  // (the serial shortcut), and larger batches never lose tasks when the
  // caller drains alongside the pool.
  WorkerPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran;
  pool.run(1, [&](std::size_t) { ran = std::this_thread::get_id(); });
  EXPECT_EQ(ran, caller);
}

TEST(WorkerPool, PropagatesFirstException) {
  WorkerPool pool(4);
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(pool.run(64,
                        [&](std::size_t i) {
                          if (i % 2 == 0) {
                            throw std::runtime_error("boom " +
                                                     std::to_string(i));
                          }
                          executed.fetch_add(1);
                        }),
               std::runtime_error);
  // The pool survives a throwing batch and runs the next one cleanly.
  std::atomic<std::size_t> after{0};
  pool.run(32, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 32u);
}

TEST(WorkerPool, OrderedOutputSlotsAreDeterministic) {
  // The engine's determinism contract: each task writes only its own slot,
  // so the assembled output is identical for any thread count.
  std::vector<std::uint64_t> expected(512);
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i * i + 1;
  for (std::size_t threads : {0u, 1u, 3u, 7u}) {
    WorkerPool pool(threads);
    std::vector<std::uint64_t> out(expected.size(), 0);
    pool.run(out.size(), [&](std::size_t i) { out[i] = i * i + 1; });
    EXPECT_EQ(out, expected) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace spooftrack::util
