#include "common/thread_pool.h"

namespace aim::common {

namespace {

/// Per-thread nesting depth of the currently executing pool task. Global
/// across pool instances on purpose: a task of pool A performing an inner
/// fan-out on pool B is still one level deeper in the wait graph.
thread_local int tls_task_depth = 0;

/// RAII depth scope so exceptions restore the submitter's depth.
struct DepthScope {
  explicit DepthScope(int depth) : saved(tls_task_depth) {
    tls_task_depth = depth;
  }
  ~DepthScope() { tls_task_depth = saved; }
  int saved;
};

}  // namespace

ThreadPool::ThreadPool(int workers) {
  const int count = workers > 1 ? workers : 0;
  workers_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

int ThreadPool::CurrentDepth() { return tls_task_depth; }

void ThreadPool::RunWithDepth(int depth, const std::function<void()>& fn) {
  DepthScope scope(depth);
  fn();
}

bool ThreadPool::HelpOne() {
  Task task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int mine = tls_task_depth;
    auto it = std::find_if(queue_.begin(), queue_.end(),
                           [mine](const Task& t) { return t.depth > mine; });
    if (it == queue_.end()) return false;
    task = std::move(*it);
    queue_.erase(it);
  }
  RunWithDepth(task.depth, task.fn);
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // packaged_task captures exceptions into the future
    RunWithDepth(task.depth, task.fn);
  }
}

ThreadPool* EnsurePool(std::unique_ptr<ThreadPool>* slot, int workers) {
  if (workers <= 1) {
    slot->reset();
    return nullptr;
  }
  if (*slot == nullptr || (*slot)->worker_count() != workers) {
    *slot = std::make_unique<ThreadPool>(workers);
  }
  return slot->get();
}

}  // namespace aim::common
