// Fixed-size thread pool used to run the selected devices of a federated
// round in parallel. The simulation stays deterministic because every
// client draws from its own (seed, round, device)-keyed RNG stream; the
// pool only changes wall-clock time, never results.
//
// Workers register named profiler tracks ("pool-0", "pool-1", ...); when
// the span profiler is enabled each task records one "task" execution
// span. With the profiler disabled the only added cost per task is one
// relaxed atomic load. Pool utilization comes from the round traces
// (obs/trace.h), not from counters here: Σ client solve seconds ÷
// (solve wall seconds × pool size).

#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "support/thread_annotations.h"

namespace fed {

class ThreadPool {
 public:
  // threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueues a task; the returned future rethrows any task exception.
  // Takes mutex_ briefly — never call from a task holding it.
  std::future<void> submit(std::function<void()> task) FED_EXCLUDES(mutex_);

  // Runs fn(i) for i in [0, n) across the pool and waits for completion.
  // Exceptions from tasks are rethrown (the first one encountered).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop(std::size_t index);

  // workers_ is fixed at construction; the queue and the stop flag are
  // the only cross-thread mutable state, guarded by mutex_ with cv_
  // signalling arrivals and shutdown.
  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  std::queue<std::packaged_task<void()>> tasks_ FED_GUARDED_BY(mutex_);
  bool stop_ FED_GUARDED_BY(mutex_) = false;
};

}  // namespace fed
