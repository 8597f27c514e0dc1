// Timing decorators the benchmark passes through the Trainer's public
// seams, plus the observer chain that timestamps every round.
//
// Each decorator forwards every call unchanged to the object it wraps
// and only reads a steady clock around it, so a run with decorators
// produces the same TrainHistory, bit for bit, as a run without them
// (fedbench checks this on every traced run and in its own tests).
//
//   Model&                  TimedModel      nn:    loss_and_grad / eval calls
//   TrainerConfig::solver   TimedSolver     optim: per-device solve times
//   TrainerConfig::transport TimedTransport comm:  exchange spans, bytes,
//                                                  captured frames
//   observers               RoundClock      core:  round spans + RoundTrace
//                           TimedObserver   obs:   time spent in observers

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/message.h"
#include "comm/transport.h"
#include "nn/module.h"
#include "obs/observer.h"
#include "optim/solver.h"

namespace fedbench {

// Seconds on the steady clock since the first call in this process.
double now_s();

// CPU seconds used so far by every thread of this process. The kernel
// leaves out time the host took the virtual CPUs away (steal), so on a
// shared host this reads the program's own work, where now_s() also
// reads the neighbours'.
double cpu_s();

// Relaxed counters spread over cache-line-sized slots so that pool
// workers timing their own calls do not contend on one line.
class SlotCounters {
 public:
  void add(std::uint64_t calls, std::uint64_t items, double seconds);
  std::uint64_t calls() const;
  std::uint64_t items() const;
  double seconds() const;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> items{0};
    std::atomic<std::uint64_t> nanos{0};
  };
  static constexpr std::size_t kSlots = 16;
  Slot slots_[kSlots];
};

// nn layer: times training calls (loss_and_grad, per sample) apart from
// evaluation calls (loss and predict, which only global evaluation makes
// with the SGD solver the workloads use).
class TimedModel final : public fed::Model {
 public:
  explicit TimedModel(const fed::Model& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  std::size_t parameter_count() const override {
    return inner_.parameter_count();
  }
  void init_parameters(std::span<double> w, fed::Rng& rng) const override {
    inner_.init_parameters(w, rng);
  }
  double loss_and_grad(std::span<const double> w, const fed::Dataset& data,
                       std::span<const std::size_t> batch,
                       std::span<double> grad) const override;
  double loss(std::span<const double> w, const fed::Dataset& data,
              std::span<const std::size_t> batch) const override;
  void predict(std::span<const double> w, const fed::Dataset& data,
               std::span<const std::size_t> batch,
               std::vector<std::int32_t>& out) const override;

  const SlotCounters& grad() const { return grad_; }  // items = samples
  const SlotCounters& eval() const { return eval_; }  // items = samples

 private:
  const fed::Model& inner_;
  mutable SlotCounters grad_;
  mutable SlotCounters eval_;
};

// optim layer: records the wall time of every local solve.
class TimedSolver final : public fed::LocalSolver {
 public:
  explicit TimedSolver(std::shared_ptr<const fed::LocalSolver> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void solve(const fed::LocalProblem& problem, const fed::SolveBudget& budget,
             fed::Rng& rng, std::span<double> w) const override;

  std::vector<double> durations() const;  // seconds, one per call

 private:
  std::shared_ptr<const fed::LocalSolver> inner_;
  mutable std::mutex mutex_;
  mutable std::vector<double> durations_;  // guarded by mutex_
};

// One exchange attempt as the transport decorator saw it.
struct ExchangeSpan {
  std::size_t round = 0;
  std::size_t device = 0;
  std::size_t attempt = 0;
  double start = 0.0;        // now_s() at entry
  double end = 0.0;          // now_s() at return
  double solve_s = 0.0;      // the update's own solve time (0 if none)
  bool delivered = false;
  std::uint64_t bytes_down = 0;
  std::uint64_t bytes_up = 0;
};

// comm layer: one span per exchange attempt, with the round and device
// ids the broadcast carries, and a bounded capture of the frames that
// crossed it for the replay probes.
class TimedTransport final : public fed::Transport {
 public:
  TimedTransport(std::shared_ptr<const fed::Transport> inner,
                 std::size_t capture_limit)
      : inner_(std::move(inner)), capture_limit_(capture_limit) {}

  fed::ExchangeRecord exchange(const fed::ModelBroadcast& broadcast,
                               const fed::ClientRuntime& client) const override;
  std::string name() const override { return inner_->name(); }

  std::vector<ExchangeSpan> spans() const;
  std::vector<fed::OwnedBroadcast> captured_broadcasts() const;
  std::vector<fed::ClientUpdate> captured_updates() const;

 private:
  std::shared_ptr<const fed::Transport> inner_;
  std::size_t capture_limit_;
  mutable std::mutex mutex_;
  mutable std::vector<ExchangeSpan> spans_;                  // guarded
  mutable std::vector<fed::OwnedBroadcast> broadcasts_;      // guarded
  mutable std::vector<fed::ClientUpdate> updates_;           // guarded
};

// obs layer: forwards every hook to `inner`, adding up the time spent.
class TimedObserver final : public fed::TrainingObserver {
 public:
  explicit TimedObserver(fed::TrainingObserver& inner) : inner_(inner) {}

  void on_run_start(const fed::RunInfo& info) override;
  void on_round_start(std::size_t round,
                      std::span<const std::size_t> selected) override;
  void on_fault(const fed::FaultEvent& event) override;
  void on_client_result(std::size_t round,
                        const fed::ClientResult& result) override;
  void on_aggregate(std::size_t round,
                    std::span<const double> weights) override;
  void on_round_end(const fed::RoundMetrics& metrics,
                    const fed::RoundTrace& trace) override;
  void on_run_end(const fed::TrainHistory& history) override;

  double seconds() const { return seconds_; }

 private:
  fed::TrainingObserver& inner_;
  double seconds_ = 0.0;  // round thread only
};

// One round as the observers saw it. `start` is on_round_start (after
// sampling); `end` is on_round_end (after evaluation and checkpoint).
struct RoundRecord {
  std::size_t round = 0;
  double start = 0.0;
  double end = 0.0;
  double cpu_end = 0.0;  // cpu_s() at on_round_end
  std::vector<std::size_t> selected;
  fed::RoundTrace trace;
  std::optional<double> train_loss;
};

// First observer on the trainer: stamps each round, keeps its RoundTrace
// and forwards every hook to `inner` (may be null).
class RoundClock final : public fed::TrainingObserver {
 public:
  explicit RoundClock(fed::TrainingObserver* inner) : inner_(inner) {}

  void on_run_start(const fed::RunInfo& info) override;
  void on_round_start(std::size_t round,
                      std::span<const std::size_t> selected) override;
  void on_fault(const fed::FaultEvent& event) override;
  void on_client_result(std::size_t round,
                        const fed::ClientResult& result) override;
  void on_aggregate(std::size_t round,
                    std::span<const double> weights) override;
  void on_round_end(const fed::RoundMetrics& metrics,
                    const fed::RoundTrace& trace) override;
  void on_run_end(const fed::TrainHistory& history) override;

  // Round 0 (the initial evaluation) first, then every training round.
  const std::vector<RoundRecord>& rounds() const { return rounds_; }

 private:
  fed::TrainingObserver* inner_;
  double pending_start_ = 0.0;
  std::vector<std::size_t> pending_selected_;
  std::vector<RoundRecord> rounds_;
};

// Checks that every exchange span lies inside the [start, end] of the
// round it names and names a device selected in that round. Returns a
// description of the first violation, or an empty string.
std::string check_span_nesting(std::span<const RoundRecord> rounds,
                               std::span<const ExchangeSpan> spans);

}  // namespace fedbench
