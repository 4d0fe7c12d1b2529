#ifndef AIM_COMMON_THREAD_POOL_H_
#define AIM_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fault_injection.h"

namespace aim::common {

/// \brief Fixed-size worker pool behind the parallel what-if engine.
///
/// Tasks are submitted as futures. The fan-out helpers below always
/// identify results by *input index*, never by completion order, so the
/// scheduler cannot leak nondeterminism into pipeline results — the
/// parallel advisor must stay bit-identical to its serial fallback.
///
/// Task hand-off crosses the `common.pool.dispatch` fault point. An
/// injected dispatch failure degrades gracefully: the task runs inline on
/// the submitting thread instead, so a faulty scheduler can slow the
/// pipeline down but can never change or lose results.
///
/// ## Nested fan-out (two-level sharing, no deadlock)
///
/// One pool can be shared between an outer fan-out (e.g. the fleet
/// tuner's per-tenant tasks) and the inner fan-outs those tasks perform
/// (the what-if engine's chunked workers). Naively that deadlocks: every
/// worker blocks in an outer task waiting on inner futures that no free
/// worker exists to run. Instead, each queued task carries its *nesting
/// depth* (submitter depth + 1), and a thread waiting on futures via
/// `WaitHelping` drains queued tasks of strictly greater depth inline.
/// Blocking therefore only happens when every awaited task is actively
/// executing on some thread, and a task only ever waits on deeper tasks
/// — the wait graph is acyclic and bottoms out at leaf compute, so the
/// shared pool can never deadlock. Helping runs tasks to completion on
/// the waiting thread, which is exactly what Submit's inline fallback
/// already does, so results are unchanged.
class ThreadPool {
 public:
  /// Spawns `workers` threads; values <= 1 create no threads at all and
  /// every Submit runs inline (the serial fallback).
  explicit ThreadPool(int workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// The calling thread's current task nesting depth: 0 outside any pool
  /// task, task depth while one runs (including helped and inline runs).
  static int CurrentDepth();

  /// Schedules `fn` and returns its future. Runs inline when the pool has
  /// no workers or dispatch fails (injected fault). The task is tagged
  /// with the submitter's depth + 1 for the nested-helping protocol.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    const int depth = CurrentDepth() + 1;
    const Status dispatch = AIM_FAULT_POINT_STATUS("common.pool.dispatch");
    if (workers_.empty() || !dispatch.ok()) {
      // Degraded dispatch: execute inline, results unchanged. Depth is
      // entered all the same so nested submits keep consistent tags.
      RunWithDepth(depth, [&] { (*task)(); });
      return future;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(Task{depth, [task] { (*task)(); }});
    }
    cv_.notify_one();
    return future;
  }

  /// Runs one queued task of depth greater than the calling thread's
  /// current depth inline; returns whether one ran. This is the
  /// cooperative-helping hook that makes nested fan-out on one shared
  /// pool deadlock-free: only strictly-deeper tasks are eligible, so a
  /// helping chain always descends and stack growth is bounded by the
  /// pipeline's real nesting, never by queue length.
  bool HelpOne();

  /// Blocks until `future` is ready, helping with deeper queued tasks
  /// instead of sleeping while any are available.
  template <typename R>
  void WaitHelping(std::future<R>& future) {
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!HelpOne()) {
        // Nothing deeper is queued: everything this future depends on is
        // actively executing somewhere, so a plain wait cannot deadlock.
        future.wait();
      }
    }
  }

 private:
  struct Task {
    int depth = 1;
    std::function<void()> fn;
  };

  void WorkerLoop();
  /// Runs `fn` with the thread-local depth set to `depth` (restored on
  /// exit, exception-safe via RAII in the implementation).
  static void RunWithDepth(int depth, const std::function<void()>& fn);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// Returns `*slot` resized to `workers` threads, building it on first use
/// or when the width changed. Serial mode (`workers <= 1`) frees the slot
/// and returns nullptr. The one lazy-pool rule for every pool owner.
ThreadPool* EnsurePool(std::unique_ptr<ThreadPool>* slot, int workers);

/// Splits [0, n) into at most `pool->worker_count()` contiguous chunks and
/// runs `fn(begin, end)` for each as one pool task, waiting for all of
/// them in input order. `fn` must produce results that depend only on the
/// item indexes it is given (per-item independence); chunk boundaries are
/// then unobservable. With a null or single-worker pool the whole range
/// runs as one inline chunk. While waiting, the calling thread helps run
/// deeper queued tasks (see ThreadPool::WaitHelping), so nested fan-outs
/// sharing one pool make progress instead of deadlocking. Exceptions
/// propagate to the caller.
template <typename Fn>
void ParallelChunks(ThreadPool* pool, size_t n, const Fn& fn) {
  const size_t workers =
      pool != nullptr ? static_cast<size_t>(pool->worker_count()) : 0;
  if (workers <= 1 || n <= 1) {
    if (n > 0) fn(size_t{0}, n);
    return;
  }
  const size_t chunks = std::min(workers, n);
  const size_t base = n / chunks;
  const size_t extra = n % chunks;  // first `extra` chunks get one more
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  size_t begin = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t end = begin + base + (c < extra ? 1 : 0);
    futures.push_back(pool->Submit([&fn, begin, end] { fn(begin, end); }));
    begin = end;
  }
  for (std::future<void>& f : futures) {
    pool->WaitHelping(f);
    f.get();
  }
}

/// Runs fn(i) for every i in [0, n), fanned out over `pool` in contiguous
/// chunks. fn must be safe to call concurrently for distinct i.
template <typename Fn>
void ParallelFor(ThreadPool* pool, size_t n, const Fn& fn) {
  ParallelChunks(pool, n, [&fn](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace aim::common

#endif  // AIM_COMMON_THREAD_POOL_H_
