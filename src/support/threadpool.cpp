#include "support/threadpool.h"

#include <algorithm>
#include <string>

#include "obs/profiler.h"

namespace fed {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> entry(std::move(task));
  std::future<void> fut = entry.get_future();
  {
    MutexLock lock(mutex_);
    tasks_.push(std::move(entry));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::worker_loop(std::size_t index) {
  Profiler::instance().set_thread_name("pool-" + std::to_string(index));
  for (;;) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && tasks_.empty()) cv_.wait(mutex_);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    Span exec("task", "pool");
    task();
  }
}

}  // namespace fed
