#include "core/round_driver.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/checkpoint.h"
#include "core/dissimilarity.h"
#include "core/feddane.h"
#include "obs/observer.h"
#include "obs/profiler.h"
#include "obs/trace_context.h"
#include "sim/aggregate.h"
#include "sim/server.h"
#include "sim/sharded.h"
#include "support/log.h"

namespace fed {

namespace {

// One end of a device's flow arrow in the Chrome trace: `kind` names the
// arrow, and both ends derive its id from the round's trace context, so
// they agree without sharing state.
void device_flow(ProfileEvent::Type end, TraceSpanKind kind,
                 const TraceContext& round_ctx, std::size_t device) {
  const char* name =
      kind == TraceSpanKind::kExchange ? "exchange_flow" : "update_flow";
  profile_flow(name, "flow",
               derive_trace_span(round_ctx.trace_id, kind, device), end,
               "device", static_cast<std::int64_t>(device));
}

}  // namespace

RoundDriver::RoundDriver(const Model& model, const FederatedDataset& data,
                         const TrainerConfig& config,
                         const Transport& transport,
                         const ClientRuntime& runtime, ThreadPool* pool,
                         DeviceRegistry& registry,
                         std::span<TrainingObserver* const> observers)
    : model_(model),
      data_(data),
      config_(config),
      transport_(transport),
      runtime_(runtime),
      pool_(pool),
      registry_(registry),
      observers_(observers),
      pk_(data.client_weights()) {
  active_weights();  // the O(N) first build belongs to setup, not round 1
}

void RoundDriver::evaluate(const Vector& w, RoundMetrics& metrics,
                           RoundTrace& trace) {
  TimedSpan span("eval", "phase", "round",
                 static_cast<std::int64_t>(metrics.round));
  const GlobalEval eval = evaluate_global(model_, data_, w, pool_);
  metrics.train_loss = eval.train_loss;
  metrics.train_accuracy = eval.train_accuracy;
  metrics.test_accuracy = eval.test_accuracy;
  if (config_.measure_dissimilarity) {
    const auto dis = measure_dissimilarity(model_, data_, w, pool_);
    metrics.grad_variance = dis.variance;
    metrics.dissimilarity_b = dis.b;
  }
  trace.eval_seconds = span.stop();
  trace.evaluated = true;
}

const std::vector<double>& RoundDriver::active_weights() {
  const std::uint64_t events =
      registry_.total_arrivals() + registry_.total_departures();
  if (events != active_pk_events_) {
    const std::vector<std::size_t>& active = registry_.active_devices();
    active_pk_.resize(active.size());
    for (std::size_t i = 0; i < active.size(); ++i) {
      active_pk_[i] = pk_[active[i]];
    }
    active_pk_events_ = events;
  }
  return active_pk_;
}

RoundDriver::DeviceOutcome RoundDriver::exchange_with_recovery(
    ModelBroadcast& broadcast, std::size_t round, std::size_t device,
    bool departing) const {
  const RecoveryConfig& recovery = config_.recovery;
  DeviceOutcome oc;
  if (departing) {
    oc.events.push_back({FaultEvent::Kind::kDepart, round, device, 0,
                         "device left the federation mid-round"});
  }
  double backoff = recovery.backoff_base_ms;
  for (std::size_t attempt = 0; attempt <= recovery.max_retries; ++attempt) {
    broadcast.attempt = attempt;
    ExchangeRecord record = departing
                                ? lost_in_flight(broadcast)
                                : transport_.exchange(broadcast, runtime_);
    ++oc.attempts;
    oc.bytes_down += record.bytes_down;
    oc.arrival_ms += record.channel_delay_ms;
    switch (record.status) {
      case ExchangeStatus::kDropped:
        oc.events.push_back({FaultEvent::Kind::kDrop, round, device, attempt,
                             "update lost in flight"});
        break;
      case ExchangeStatus::kCorrupt:
        oc.failed_bytes_up += record.bytes_up;
        oc.events.push_back({FaultEvent::Kind::kCorrupt, round, device,
                             attempt, record.error});
        break;
      case ExchangeStatus::kDelivered:
        if (recovery.deadline_ms > 0.0 &&
            record.channel_delay_ms > recovery.deadline_ms) {
          // Arrived past the round window: the server never saw it, so it
          // moves no measured bytes (the FedAvg dropped-straggler rule).
          std::ostringstream detail;
          detail << "delivery took " << record.channel_delay_ms
                 << " ms, past the " << recovery.deadline_ms
                 << " ms deadline";
          oc.events.push_back({FaultEvent::Kind::kTimeout, round, device,
                               attempt, detail.str()});
          break;
        }
        if (record.duplicate) {
          oc.events.push_back({FaultEvent::Kind::kDuplicate, round, device,
                               attempt,
                               "update delivered twice; deduplicated"});
        }
        oc.accepted = true;
        oc.record = std::move(record);
        return oc;
    }
    if (attempt < recovery.max_retries) {
      oc.arrival_ms += backoff;  // simulated wait before the retry
      backoff *= recovery.backoff_factor;
    }
  }
  std::ostringstream detail;
  detail << "no accepted update after " << oc.attempts << " attempts";
  oc.events.push_back({FaultEvent::Kind::kDeviceFailed, round, device,
                       oc.attempts, detail.str()});
  return oc;
}

void RoundDriver::cut_quorum(std::vector<DeviceOutcome>& outcomes,
                             std::span<const std::size_t> selected,
                             std::size_t round) const {
  const double quorum = config_.recovery.quorum;
  if (quorum >= 1.0) return;
  std::vector<std::size_t> successes;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].accepted) successes.push_back(i);
  }
  const auto needed = static_cast<std::size_t>(
      std::ceil(quorum * static_cast<double>(selected.size())));
  if (successes.size() <= needed || needed == 0) return;
  std::stable_sort(successes.begin(), successes.end(),
                   [&](std::size_t a, std::size_t b) {
                     return outcomes[a].arrival_ms < outcomes[b].arrival_ms;
                   });
  // Ties with the q-th earliest arrival are kept.
  const double cutoff = outcomes[successes[needed - 1]].arrival_ms;
  for (std::size_t i : successes) {
    DeviceOutcome& oc = outcomes[i];
    if (oc.arrival_ms <= cutoff) continue;
    oc.accepted = false;
    oc.quorum_dropped = true;
    std::ostringstream detail;
    detail << "arrived at " << oc.arrival_ms << " ms, after the quorum "
           << "cutoff of " << cutoff << " ms (" << needed << "/"
           << selected.size() << " reported)";
    oc.events.push_back({FaultEvent::Kind::kQuorumDrop, round, selected[i],
                         oc.attempts - 1, detail.str()});
  }
}

RoundDriver::RoundOutput RoundDriver::run_round(std::size_t round, double mu,
                                                Vector& w) {
  RoundOutput out;
  RoundTrace& trace = out.trace;
  trace.round = round;
  const std::size_t t = round - 1;  // the key of this round's streams
  const auto round_arg = static_cast<std::int64_t>(round);

  // 1. Select S_t from the live population, and assign each selected
  //    device its systems budget (who straggles, how much work it gets).
  //    Both are deterministic in (seed, round) and identical across
  //    algorithms under the same seed. The churn draws come first:
  //    arrivals are selectable at once; departing devices stay selectable
  //    but fail mid-round (exchange_with_recovery).
  TimedSpan sampling("sampling", "phase", "round", round_arg);
  // The round's trace context: deterministic in (seed, round), stamped
  // into every message this round moves so device- and shard-side spans
  // correlate back to it across the wire (obs/trace_context.h). Minted
  // unconditionally — wire bytes must not depend on profiler state.
  const TraceContext round_ctx = make_round_trace_context(config_.seed, round);
  const std::uint64_t arrivals_before = registry_.total_arrivals();
  registry_.begin_round(round);
  trace.active_devices = registry_.active_count();
  trace.arrivals =
      static_cast<std::size_t>(registry_.total_arrivals() - arrivals_before);
  trace.departures = registry_.departing_count();
  const std::vector<std::size_t>& active = registry_.active_devices();
  std::vector<std::size_t> selected = select_devices(
      config_.sampling, active_weights(),
      std::min(config_.devices_per_round, active.size()), config_.seed, t);
  std::vector<std::size_t> train_sizes(selected.size());
  for (std::size_t i = 0; i < selected.size(); ++i) {
    selected[i] = active[selected[i]];
    train_sizes[i] = data_.clients[selected[i]].train.size();
  }
  const std::vector<DeviceBudget> budgets =
      assign_budgets(config_.systems, config_.seed, t, selected, train_sizes,
                     config_.batch_size);
  trace.sampling_seconds = sampling.stop();

  for (auto* o : observers_) o->on_round_start(round, selected);

  // 2. FedDane: estimate the full gradient from the sampled devices. The
  //    per-device corrections ride in the broadcasts below.
  std::vector<Vector> corrections;
  if (config_.algorithm == Algorithm::kFedDane) {
    TimedSpan correction("feddane_correction", "phase", "round", round_arg);
    corrections = feddane_corrections(model_, data_, selected, w, pool_);
    trace.correction_seconds = correction.stop();
  }

  // 3. Send w^t, let each device return its gamma-inexact solution, and
  //    collect, in parallel across devices: each worker drives one
  //    device's exchange through the transport under the recovery policy
  //    — bounded retries with simulated exponential backoff, deadline
  //    classification — recording every channel incident as a typed
  //    event. Workers only touch their own outcome slot, and every fault
  //    decision comes from a counter-keyed stream, so determinism is
  //    untouched; events, byte counts, and the quorum cut are processed
  //    after the barrier on the round thread.
  const RoundConfig round_config = config_.round_config(mu);
  std::vector<DeviceOutcome> outcomes(selected.size());
  TimedSpan solve("solve_parallel", "phase", "round", round_arg);
  solve.add_arg("devices", static_cast<std::int64_t>(selected.size()));
  solve.add_arg("trace_id", static_cast<std::int64_t>(round_ctx.trace_id));
  // One flow arrow per device leaves the round thread here and lands in
  // that device's worker-side exchange span below. Ids are derived, not
  // counted, so both ends agree without synchronization.
  for (std::size_t i = 0; i < selected.size(); ++i) {
    device_flow(ProfileEvent::Type::kFlowStart, TraceSpanKind::kExchange,
                round_ctx, selected[i]);
  }
  pool_->parallel_for(selected.size(), [&](std::size_t i) {
    // Worker-side span: lands on the pool thread's track. Recording
    // draws no randomness, so determinism is untouched.
    Span exchange_span("exchange", "comm", "round", round_arg, "device",
                       static_cast<std::int64_t>(selected[i]), "iterations",
                       static_cast<std::int64_t>(budgets[i].iterations));
    const std::uint64_t exchange_span_id = derive_trace_span(
        round_ctx.trace_id, TraceSpanKind::kExchange, selected[i]);
    device_flow(ProfileEvent::Type::kFlowEnd, TraceSpanKind::kExchange,
                round_ctx, selected[i]);
    ModelBroadcast broadcast{.round = round,
                             .trace = {round_ctx.trace_id, exchange_span_id},
                             .config = round_config,
                             .budget = budgets[i],
                             .parameters = w,
                             .correction = {}};
    if (!corrections.empty()) broadcast.correction = corrections[i];
    outcomes[i] = exchange_with_recovery(broadcast, round, selected[i],
                                         registry_.departing(selected[i]));
    if (outcomes[i].accepted) {
      // The update's journey to aggregation: starts in the worker that
      // produced it, lands in the round thread's aggregate span (which
      // closes it even for updates the quorum cut or the FedAvg
      // straggler rule later discards — the message still arrived).
      device_flow(ProfileEvent::Type::kFlowStart, TraceSpanKind::kUpdateFlow,
                  round_ctx, selected[i]);
    }
  });
  trace.solve_wall_seconds = solve.stop();

  cut_quorum(outcomes, selected, round);

  // Fault fan-out: per-device incidents in (selection order, attempt)
  // order — quorum drops ride at the end of their device's list — all on
  // the round thread. A healthy round emits nothing. Every event fanned
  // out is also folded into the trace, so the trace's incident columns
  // are the events, counted.
  const auto report = [&](const FaultEvent& event) {
    count_fault(trace, event);
    for (auto* o : observers_) o->on_fault(event);
  };
  for (const auto& oc : outcomes) {
    for (const auto& event : oc.events) report(event);
  }

  for (auto* o : observers_) {
    for (const auto& oc : outcomes) {
      if (oc.accepted) o->on_client_result(round, oc.record.result());
    }
  }

  // 4. Aggregate, hierarchically: the selected devices are split into
  //    contiguous selection-order slices, one per aggregator shard, each
  //    shard folds its accepted updates into an exact partial sum, and
  //    the root merges the FPS1-encoded partials (sim/sharded.h). The
  //    partials are exact, so the shard count cannot change the model.
  //    FedAvg drops stragglers; FedProx/FedDane keep them. One pass over
  //    the outcomes feeds the shards and fills the trace. Upload bytes
  //    are charged per delivery that reached the server in the round
  //    window: accepted updates (twice when duplicated) and corrupt
  //    arrivals, but not FedAvg-dropped stragglers, timeouts, or quorum
  //    drops — those never report back within the window, so their
  //    updates move no measured bytes.
  TimedSpan aggregate("aggregate", "phase", "round", round_arg);
  const std::vector<ShardSlice> slices =
      plan_shards(selected.size(), config_.shards);
  aggregate.add_arg("shards", static_cast<std::int64_t>(slices.size()));
  aggregate.add_arg("trace_id", static_cast<std::int64_t>(round_ctx.trace_id));
  ShardedServer server(config_.sampling, w.size(), slices.size());
  CommFaultStats& faults = trace.faults;
  faults.up_deliveries = faults.corruptions;  // corrupt arrivals, charged
  double gamma_sum = 0.0;
  std::size_t gamma_count = 0;
  trace.selected = selected.size();
  trace.shards.resize(slices.size());
  for (std::size_t s = 0; s < slices.size(); ++s) {
    ShardStat& shard = trace.shards[s];
    shard.shard = s;
    shard.devices = slices[s].size();
    for (std::size_t i = slices[s].begin; i < slices[s].end; ++i) {
      const DeviceOutcome& oc = outcomes[i];
      // Close the update flow for every update that reached the server —
      // including those the quorum cut revoked or the FedAvg straggler
      // rule discards below — so each worker-side "s" has exactly one "f".
      if (oc.accepted || oc.quorum_dropped) {
        device_flow(ProfileEvent::Type::kFlowEnd, TraceSpanKind::kUpdateFlow,
                    round_ctx, selected[i]);
      }
      faults.attempts += oc.attempts;
      faults.delay_ms += oc.arrival_ms;
      shard.bytes_down += oc.bytes_down;
      shard.bytes_up += oc.failed_bytes_up;  // corrupt arrivals, per attempt
      if (!oc.accepted) continue;
      const ClientResult& r = oc.record.result();
      trace.client_solve_seconds.push_back(r.solve_seconds);
      if (r.gamma_measured) {
        gamma_sum += r.gamma;
        ++gamma_count;
      }
      if (r.straggler) ++trace.stragglers;
      if (config_.algorithm == Algorithm::kFedAvg && r.straggler) continue;
      server.accumulate(s, {r.device, &r.update,
                            static_cast<double>(r.num_samples)});
      shard.bytes_up += oc.record.bytes_up;
      faults.up_deliveries += oc.record.duplicate ? 2 : 1;
    }
    trace.bytes_down += shard.bytes_down;
    trace.bytes_up += shard.bytes_up;
  }
  if (config_.crash.armed() && config_.crash.at_round == round) {
    // Fault injection for the soak harness: die mid-aggregation, after
    // the partials are staged but before the global model moves — the
    // worst spot for a naive recovery story. Nothing from this round
    // commits (no on_round_end, no checkpoint, no registry end_round),
    // so a resume from the last checkpoint replays it bit-identically.
    throw ServerCrashed(round);
  }
  const bool updated = server.reduce(round, w, round_ctx);
  trace.aggregate_seconds = aggregate.stop();
  for (std::size_t s = 0; s < slices.size(); ++s) {
    trace.shards[s].contributors = server.contributors(s);
    trace.shards[s].partial_bytes = server.partial_bytes(s);
  }
  trace.contributors = server.total_contributors();
  faults.retries = faults.attempts - selected.size();
  trace.solve = SolveStats::from_samples(trace.client_solve_seconds);
  if (!updated) {
    // Degraded round: zero accepted updates survived to aggregation
    // (every device failed, timed out, missed quorum, or — under FedAvg —
    // straggled). The global model is kept unchanged; the round is marked
    // degraded in the trace and reported as a single typed incident, not
    // an error.
    std::ostringstream detail;
    detail << "0 of " << selected.size()
           << " selected devices contributed an update; keeping w";
    report({FaultEvent::Kind::kRoundDegraded, round, 0, 0, detail.str()});
    log_debug() << "round " << round << ": " << detail.str();
  }

  for (auto* o : observers_) {
    o->on_aggregate(round, std::span<const double>(w));
  }

  // 5. Record metrics (evaluation, if due, is the caller's), and let the
  //    departures drawn at the top of the round take effect.
  RoundMetrics& m = out.metrics;
  m.round = round;
  m.mu = mu;
  m.contributors = trace.contributors;
  m.stragglers = trace.stragglers;
  if (gamma_count > 0) {
    m.mean_gamma = gamma_sum / static_cast<double>(gamma_count);
  }
  registry_.end_round(round);
  return out;
}

}  // namespace fed
