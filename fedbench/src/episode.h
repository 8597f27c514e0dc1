// One episode: a fixed-round FedProx run of a workload through the
// public Trainer API, untraced or traced (decorators attached).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "decorators.h"
#include "support/serialize.h"
#include "support/threadpool.h"
#include "workloads.h"

namespace fedbench {

struct EpisodeSettings {
  std::string workload;
  std::uint64_t seed = 0;
  std::string run_dir;      // traced episodes' telemetry files land here
  std::size_t rounds = 0;   // 0 = the workload's episode length
  // Episode w trains rounds w*R+1 .. (w+1)*R of the seed's schedule
  // (TrainerConfig::first_round), each from the same initial model, so
  // successive episodes sample different devices and stragglers.
  std::size_t window = 0;
};

// What the decorators of one traced episode measured.
struct LayerReadings {
  std::uint64_t grad_calls = 0;
  std::uint64_t grad_samples = 0;
  double grad_s = 0.0;
  std::uint64_t eval_calls = 0;
  double eval_s = 0.0;
  std::vector<double> solve_s;        // one per local solve
  std::vector<ExchangeSpan> spans;    // one per exchange attempt
  double observer_s = 0.0;            // time inside the telemetry
  std::vector<fed::OwnedBroadcast> broadcasts;  // captured frames
  std::vector<fed::ClientUpdate> updates;
};

struct Episode {
  fed::TrainHistory history;
  std::vector<RoundRecord> rounds;  // round 0 (initial eval) first
  double run_start = 0.0;           // now_s() just before Trainer::run
  double run_start_cpu = 0.0;       // cpu_s() just before Trainer::run
  fed::TrainerConfig config;        // as the workload defines it
  std::optional<LayerReadings> layers;  // set on traced episodes
};

// Runs one episode on `pool`. A traced episode passes TimedModel,
// TimedSolver and TimedTransport through the Trainer's seams, attaches
// the Telemetry inside a TimedObserver, and keeps up to `capture_limit`
// broadcast and update frames for the replay probes.
Episode run_episode(const EpisodeSettings& settings, const BuiltWorkload& built,
                    fed::ThreadPool& pool, bool traced,
                    std::size_t capture_limit = 0);

// Bit-for-bit equality of every recorded field and the final model.
bool same_history(const fed::TrainHistory& a, const fed::TrainHistory& b);

// The FPC1 payload a checkpoint after the episode's last round holds.
fed::CheckpointState checkpoint_state(const Episode& episode,
                                      std::size_t population);

}  // namespace fedbench
