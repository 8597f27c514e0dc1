#include "decorators.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <sstream>
#include <thread>

namespace fedbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

std::size_t slot_index(std::size_t slots) {
  thread_local const std::size_t index =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return index % slots;
}

}  // namespace

void SlotCounters::add(std::uint64_t calls, std::uint64_t items,
                       double seconds) {
  Slot& slot = slots_[slot_index(kSlots)];
  slot.calls.fetch_add(calls, std::memory_order_relaxed);
  slot.items.fetch_add(items, std::memory_order_relaxed);
  slot.nanos.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                       std::memory_order_relaxed);
}

std::uint64_t SlotCounters::calls() const {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) total += s.calls.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t SlotCounters::items() const {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) total += s.items.load(std::memory_order_relaxed);
  return total;
}

double SlotCounters::seconds() const {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) total += s.nanos.load(std::memory_order_relaxed);
  return 1e-9 * static_cast<double>(total);
}

double TimedModel::loss_and_grad(std::span<const double> w,
                                 const fed::Dataset& data,
                                 std::span<const std::size_t> batch,
                                 std::span<double> grad) const {
  const double start = now_s();
  const double value = inner_.loss_and_grad(w, data, batch, grad);
  grad_.add(1, batch.size(), now_s() - start);
  return value;
}

double TimedModel::loss(std::span<const double> w, const fed::Dataset& data,
                        std::span<const std::size_t> batch) const {
  const double start = now_s();
  const double value = inner_.loss(w, data, batch);
  eval_.add(1, batch.size(), now_s() - start);
  return value;
}

void TimedModel::predict(std::span<const double> w, const fed::Dataset& data,
                         std::span<const std::size_t> batch,
                         std::vector<std::int32_t>& out) const {
  const double start = now_s();
  inner_.predict(w, data, batch, out);
  eval_.add(1, batch.size(), now_s() - start);
}

void TimedSolver::solve(const fed::LocalProblem& problem,
                        const fed::SolveBudget& budget, fed::Rng& rng,
                        std::span<double> w) const {
  const double start = now_s();
  inner_->solve(problem, budget, rng, w);
  const double seconds = now_s() - start;
  std::lock_guard lock(mutex_);
  durations_.push_back(seconds);
}

std::vector<double> TimedSolver::durations() const {
  std::lock_guard lock(mutex_);
  return durations_;
}

fed::ExchangeRecord TimedTransport::exchange(
    const fed::ModelBroadcast& broadcast,
    const fed::ClientRuntime& client) const {
  ExchangeSpan span;
  span.round = broadcast.round;
  span.device = broadcast.budget.device;
  span.attempt = broadcast.attempt;
  span.start = now_s();
  fed::ExchangeRecord record = inner_->exchange(broadcast, client);
  span.end = now_s();
  span.delivered = record.delivered();
  if (record.status != fed::ExchangeStatus::kDropped) {
    span.solve_s = record.update.result.solve_seconds;
  }
  span.bytes_down = record.bytes_down;
  span.bytes_up = record.bytes_up;

  std::lock_guard lock(mutex_);
  spans_.push_back(span);
  if (broadcasts_.size() < capture_limit_) {
    const auto& params = broadcast.parameters;
    const auto& correction = broadcast.correction;
    broadcasts_.push_back(
        {.round = broadcast.round,
         .trace = broadcast.trace,
         .config = broadcast.config,
         .budget = broadcast.budget,
         .parameters = fed::Vector(params.begin(), params.end()),
         .correction = fed::Vector(correction.begin(), correction.end())});
  }
  if (record.delivered() && updates_.size() < capture_limit_) {
    updates_.push_back(record.update);
  }
  return record;
}

std::vector<ExchangeSpan> TimedTransport::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<fed::OwnedBroadcast> TimedTransport::captured_broadcasts() const {
  std::lock_guard lock(mutex_);
  return broadcasts_;
}

std::vector<fed::ClientUpdate> TimedTransport::captured_updates() const {
  std::lock_guard lock(mutex_);
  return updates_;
}

namespace {

// Runs one forwarded hook and adds its duration to `total`.
template <typename F>
void timed(double& total, F&& hook) {
  const double start = now_s();
  hook();
  total += now_s() - start;
}

}  // namespace

void TimedObserver::on_run_start(const fed::RunInfo& info) {
  timed(seconds_, [&] { inner_.on_run_start(info); });
}
void TimedObserver::on_round_start(std::size_t round,
                                   std::span<const std::size_t> selected) {
  timed(seconds_, [&] { inner_.on_round_start(round, selected); });
}
void TimedObserver::on_fault(const fed::FaultEvent& event) {
  timed(seconds_, [&] { inner_.on_fault(event); });
}
void TimedObserver::on_client_result(std::size_t round,
                                     const fed::ClientResult& result) {
  timed(seconds_, [&] { inner_.on_client_result(round, result); });
}
void TimedObserver::on_aggregate(std::size_t round,
                                 std::span<const double> weights) {
  timed(seconds_, [&] { inner_.on_aggregate(round, weights); });
}
void TimedObserver::on_round_end(const fed::RoundMetrics& metrics,
                                 const fed::RoundTrace& trace) {
  timed(seconds_, [&] { inner_.on_round_end(metrics, trace); });
}
void TimedObserver::on_run_end(const fed::TrainHistory& history) {
  timed(seconds_, [&] { inner_.on_run_end(history); });
}

void RoundClock::on_run_start(const fed::RunInfo& info) {
  pending_start_ = now_s();
  if (inner_) inner_->on_run_start(info);
}

void RoundClock::on_round_start(std::size_t round,
                                std::span<const std::size_t> selected) {
  pending_start_ = now_s();
  pending_selected_.assign(selected.begin(), selected.end());
  if (inner_) inner_->on_round_start(round, selected);
}

void RoundClock::on_fault(const fed::FaultEvent& event) {
  if (inner_) inner_->on_fault(event);
}

void RoundClock::on_client_result(std::size_t round,
                                  const fed::ClientResult& result) {
  if (inner_) inner_->on_client_result(round, result);
}

void RoundClock::on_aggregate(std::size_t round,
                              std::span<const double> weights) {
  if (inner_) inner_->on_aggregate(round, weights);
}

void RoundClock::on_round_end(const fed::RoundMetrics& metrics,
                              const fed::RoundTrace& trace) {
  RoundRecord record;
  record.round = metrics.round;
  record.start = pending_start_;
  record.end = now_s();
  record.cpu_end = cpu_s();
  record.selected = std::move(pending_selected_);
  record.trace = trace;
  record.train_loss = metrics.train_loss;
  rounds_.push_back(std::move(record));
  pending_selected_.clear();
  if (inner_) inner_->on_round_end(metrics, trace);
}

void RoundClock::on_run_end(const fed::TrainHistory& history) {
  if (inner_) inner_->on_run_end(history);
}

std::string check_span_nesting(std::span<const RoundRecord> rounds,
                               std::span<const ExchangeSpan> spans) {
  for (const ExchangeSpan& span : spans) {
    const auto it = std::find_if(rounds.begin(), rounds.end(),
                                 [&](const RoundRecord& r) {
                                   return r.round == span.round;
                                 });
    std::ostringstream why;
    if (it == rounds.end() || span.round == 0) {
      why << "exchange span names round " << span.round
          << ", which has no round span";
      return why.str();
    }
    if (span.start < it->start || span.end > it->end || span.end < span.start) {
      why << "exchange span of device " << span.device << " in round "
          << span.round << " [" << span.start << ", " << span.end
          << "] lies outside its round span [" << it->start << ", "
          << it->end << "]";
      return why.str();
    }
    if (std::find(it->selected.begin(), it->selected.end(), span.device) ==
        it->selected.end()) {
      why << "exchange span names device " << span.device
          << ", which round " << span.round << " did not select";
      return why.str();
    }
  }
  return {};
}

}  // namespace fedbench
