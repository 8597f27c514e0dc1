#include "episode.h"

#include <bit>
#include <memory>

#include "optim/sgd.h"

namespace fedbench {

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::optional<double>& a, const std::optional<double>& b) {
  return a.has_value() == b.has_value() && (!a || same_bits(*a, *b));
}

}  // namespace

Episode run_episode(const EpisodeSettings& settings, const BuiltWorkload& built,
                    fed::ThreadPool& pool, bool traced,
                    std::size_t capture_limit) {
  Episode episode;
  fed::TrainerConfig config =
      make_config(settings.workload, built, settings.seed, pool.size());
  if (settings.rounds > 0) config.rounds = settings.rounds;
  config.first_round = settings.window * config.rounds;
  episode.config = config;

  std::optional<TimedModel> model;
  std::shared_ptr<TimedSolver> solver;
  std::shared_ptr<TimedTransport> transport;
  if (traced) {
    model.emplace(*built.model);
    solver = std::make_shared<TimedSolver>(
        config.solver ? config.solver : std::make_shared<fed::SgdSolver>());
    config.solver = solver;
    transport = std::make_shared<TimedTransport>(config.transport,
                                                 capture_limit);
    config.transport = transport;
  }

  std::optional<Telemetry> telemetry;
  std::optional<TimedObserver> timed_telemetry;
  if (traced) {
    telemetry.emplace(settings.run_dir);
    timed_telemetry.emplace(telemetry->observer());
  }
  RoundClock clock(traced ? &*timed_telemetry : nullptr);

  fed::Trainer trainer(model ? static_cast<const fed::Model&>(*model)
                             : *built.model,
                       built.data, config, &pool);
  trainer.add_observer(clock);
  episode.run_start = now_s();
  episode.run_start_cpu = cpu_s();
  episode.history = trainer.run();
  episode.rounds = clock.rounds();

  if (traced) {
    LayerReadings r;
    r.grad_calls = model->grad().calls();
    r.grad_samples = model->grad().items();
    r.grad_s = model->grad().seconds();
    r.eval_calls = model->eval().calls();
    r.eval_s = model->eval().seconds();
    r.solve_s = solver->durations();
    r.spans = transport->spans();
    r.observer_s = timed_telemetry->seconds();
    r.broadcasts = transport->captured_broadcasts();
    r.updates = transport->captured_updates();
    episode.layers = std::move(r);
  }
  return episode;
}

bool same_history(const fed::TrainHistory& a, const fed::TrainHistory& b) {
  if (a.rounds.size() != b.rounds.size() ||
      a.final_parameters.size() != b.final_parameters.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    const fed::RoundMetrics& x = a.rounds[i];
    const fed::RoundMetrics& y = b.rounds[i];
    if (x.round != y.round || !same_bits(x.train_loss, y.train_loss) ||
        !same_bits(x.train_accuracy, y.train_accuracy) ||
        !same_bits(x.test_accuracy, y.test_accuracy) ||
        !same_bits(x.grad_variance, y.grad_variance) ||
        !same_bits(x.dissimilarity_b, y.dissimilarity_b) ||
        !same_bits(x.mu, y.mu) || !same_bits(x.mean_gamma, y.mean_gamma) ||
        x.contributors != y.contributors || x.stragglers != y.stragglers) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.final_parameters.size(); ++i) {
    if (!same_bits(a.final_parameters[i], b.final_parameters[i])) return false;
  }
  return true;
}

fed::CheckpointState checkpoint_state(const Episode& episode,
                                      std::size_t population) {
  fed::CheckpointState state;
  state.seed = episode.config.seed;
  state.next_round = episode.config.first_round + episode.config.rounds + 1;
  state.first_round = episode.config.first_round;
  state.mu = episode.config.mu;
  state.parameters = episode.history.final_parameters;
  state.population = population;
  state.active.assign((population + 7) / 8, 0);
  for (std::size_t k = 0; k < population; ++k) {
    state.active[k / 8] |= static_cast<std::uint8_t>(1u << (k % 8));
  }
  state.rounds = episode.history.rounds;
  return state;
}

}  // namespace fedbench
