// Stopwatches for run logging and benchmarks: wall clock, and process
// CPU time.

#pragma once

#include <time.h>

#include <chrono>

namespace fed {

class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

// CPU seconds of the whole process (all threads) since construction,
// from CLOCK_PROCESS_CPUTIME_ID. On a shared host this is the measure
// for comparing runs: wall time also counts other tenants' load, and
// swings with it.
class CpuStopwatch {
 public:
  CpuStopwatch() : start_(now()) {}
  double seconds() const { return now() - start_; }

 private:
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  }
  double start_;
};

}  // namespace fed
