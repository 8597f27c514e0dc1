#include "obs/profiler.h"

#include <algorithm>

namespace fed {

std::atomic<bool> Profiler::enabled_{false};

Profiler& Profiler::instance() {
  static Profiler* profiler = new Profiler();  // never destroyed: threads
  return *profiler;                            // may outlive static dtors
}

Profiler::Profiler() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t Profiler::us_at(
    std::chrono::steady_clock::time_point time) const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(time - epoch_)
          .count());
}

Profiler::ThreadBuffer& Profiler::local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (!buffer) {
    auto owned = std::make_unique<ThreadBuffer>();
    buffer = owned.get();
    MutexLock lock(registry_mutex_);
    buffer->tid = static_cast<std::uint32_t>(buffers_.size());
    {
      MutexLock name_lock(buffer->mutex);
      buffer->name = "thread-" + std::to_string(buffer->tid);
    }
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

void Profiler::set_thread_name(std::string name) {
  ThreadBuffer& buffer = local_buffer();
  MutexLock lock(buffer.mutex);
  buffer.name = std::move(name);
}

void Profiler::record(const ProfileEvent& event) {
  ThreadBuffer& buffer = local_buffer();
  MutexLock lock(buffer.mutex);
  ProfileEvent& stored = buffer.events.emplace_back(event);
  stored.tid = buffer.tid;
}

Profiler::Snapshot Profiler::drain() {
  Snapshot snapshot;
  {
    MutexLock registry_lock(registry_mutex_);
    for (auto& buffer : buffers_) {
      MutexLock lock(buffer->mutex);
      snapshot.threads.emplace_back(buffer->tid, buffer->name);
      snapshot.events.insert(snapshot.events.end(), buffer->events.begin(),
                             buffer->events.end());
      buffer->events.clear();
    }
  }
  std::stable_sort(snapshot.events.begin(), snapshot.events.end(),
                   [](const ProfileEvent& a, const ProfileEvent& b) {
                     if (a.start_us != b.start_us) {
                       return a.start_us < b.start_us;
                     }
                     return a.dur_us > b.dur_us;  // parents before children
                   });
  return snapshot;
}

void Profiler::discard() {
  MutexLock registry_lock(registry_mutex_);
  for (auto& buffer : buffers_) {
    MutexLock lock(buffer->mutex);
    buffer->events.clear();
  }
}

void Span::begin(const char* name, const char* category) {
  event_.name = name;
  event_.category = category;
  event_.type = ProfileEvent::Type::kComplete;
  event_.start_us = Profiler::instance().now_us();
  active_ = true;
}

void Span::finish_at(std::uint64_t end_us) {
  if (!active_) return;
  active_ = false;
  // Record even if the profiler was disabled mid-span, so every begun
  // span completes and drained traces never hold half-open events.
  event_.dur_us = end_us - event_.start_us;
  Profiler::instance().record(event_);
}

TimedSpan::TimedSpan(const char* name, const char* category,
                     const char* arg_name, std::int64_t arg_value)
    : Span(name, category, arg_name, arg_value),
      start_(std::chrono::steady_clock::now()) {
  if (active_) event_.start_us = Profiler::instance().us_at(start_);
}

double TimedSpan::stop() {
  const auto end = std::chrono::steady_clock::now();
  if (active_) finish_at(Profiler::instance().us_at(end));
  return std::chrono::duration<double>(end - start_).count();
}

}  // namespace fed
