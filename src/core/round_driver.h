// The server side of a federated round, speaking only in messages.
//
// run_round executes one training round of Algorithm 1/2: sample devices
// from the live population, assign systems budgets, broadcast the global
// model through the Transport, collect the returned updates, and
// aggregate them into `w` — recording transport-measured bytes and
// per-phase wall times in the RoundTrace. evaluate() runs the global
// evaluation (plus dissimilarity when configured). The Trainer owns
// everything *across* rounds — the mu policies, evaluation cadence,
// history, and observer lifecycle — and drives this class once per round.

#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "comm/client_runtime.h"
#include "comm/transport.h"
#include "core/trainer.h"
#include "obs/trace.h"
#include "support/threadpool.h"

namespace fed {

class RoundDriver {
 public:
  // All references must outlive the driver; `pool` must be non-null.
  // run_round drives `registry` (sim/churn.h): begin_round before
  // selection, end_round after the trace is filled, selection, sharding
  // and quorum over its live population only. A registry with a zero
  // ChurnConfig is inert, and every device is live every round.
  RoundDriver(const Model& model, const FederatedDataset& data,
              const TrainerConfig& config, const Transport& transport,
              const ClientRuntime& runtime, ThreadPool* pool,
              DeviceRegistry& registry,
              std::span<TrainingObserver* const> observers);

  struct RoundOutput {
    RoundMetrics metrics;
    RoundTrace trace;
  };

  // Executes training round `round` (1-based, already offset by
  // first_round; its selection, straggler and fault streams are keyed by
  // round - 1) under proximal coefficient `mu`, updating `w` in place.
  // Fills every metric/trace field except the evaluation ones and
  // round_seconds, which the caller charges (evaluation cadence is its
  // call).
  RoundOutput run_round(std::size_t round, double mu, Vector& w);

  // Global evaluation + optional dissimilarity, charged to
  // trace.eval_seconds.
  void evaluate(const Vector& w, RoundMetrics& metrics, RoundTrace& trace);

 private:
  // One device's journey through the recovery policy: the accepted
  // exchange (when any attempt succeeded), byte charges, the simulated
  // clock, and the typed incidents to fan out (the trace counts them by
  // folding `events`). Filled by exactly one pool worker, read after the
  // barrier.
  struct DeviceOutcome {
    ExchangeRecord record;   // the accepted exchange; meaningful iff accepted
    bool accepted = false;
    bool quorum_dropped = false;        // revoked by the quorum cut
    std::size_t attempts = 0;
    std::uint64_t bytes_down = 0;       // broadcast bytes, charged per attempt
    std::uint64_t failed_bytes_up = 0;  // corrupt arrivals, charged per attempt
    double arrival_ms = 0.0;  // simulated delays + backoffs through last attempt
    std::vector<FaultEvent> events;     // in attempt order
  };

  // The p_k of the live devices, in active_devices() order. Rebuilt only
  // when an arrival or departure has happened since the last call, so a
  // round of an unchanging population does no O(N) work.
  const std::vector<double>& active_weights();

  // Runs the exchange for one device under config_.recovery: retry failed
  // attempts (drop / corrupt / past-deadline) with simulated exponential
  // backoff, up to max_retries extra attempts. A `departing` device (it
  // left the federation mid-round) never touches the transport: each
  // attempt is lost in flight with its broadcast bytes charged, like a
  // crashed phone, so it runs the same retry and failure accounting as
  // any other device. Mutates broadcast.attempt only. Called concurrently
  // from pool workers; everything it touches is worker-local.
  DeviceOutcome exchange_with_recovery(ModelBroadcast& broadcast,
                                       std::size_t round, std::size_t device,
                                       bool departing) const;

  // The quorum cut, on the round thread: aggregation proceeds once
  // ceil(quorum * selected) devices have reported by simulated arrival
  // time; successes arriving after the cutoff are revoked like any other
  // lost update, with a kQuorumDrop event. With a faultless channel every
  // arrival is at 0 ms, so the cutoff keeps everyone.
  void cut_quorum(std::vector<DeviceOutcome>& outcomes,
                  std::span<const std::size_t> selected,
                  std::size_t round) const;

  const Model& model_;
  const FederatedDataset& data_;
  const TrainerConfig& config_;
  const Transport& transport_;
  const ClientRuntime& runtime_;
  ThreadPool* pool_;
  DeviceRegistry& registry_;
  std::span<TrainingObserver* const> observers_;
  std::vector<double> pk_;  // client weights p_k, fixed for the run
  std::vector<double> active_pk_;  // active_weights()' cache
  // Arrivals + departures when active_pk_ was built; the initial value is
  // no reachable count, so the first call (in the constructor) builds it.
  std::uint64_t active_pk_events_ = std::numeric_limits<std::uint64_t>::max();
};

}  // namespace fed
