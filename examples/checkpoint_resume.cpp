// Checkpoint/resume demo: train half the rounds, save the global model,
// reload it, and finish training in a second Trainer. Because every
// random stream is keyed by (seed, round, device), the resumed run
// continues the exact same trajectory: the split run ends bit-identical
// to an unbroken run.
//
//   ./checkpoint_resume [--rounds 40]

#include <iostream>

#include "core/registry.h"
#include "core/trainer.h"
#include "support/cli.h"
#include "support/csv.h"
#include "support/serialize.h"
#include "support/temp_dir.h"

int main(int argc, char** argv) {
  using namespace fed;
  CliFlags flags(argc, argv);
  const auto rounds = static_cast<std::size_t>(flags.get_int("rounds", 40));
  flags.exit_on_unused();
  const std::size_t half = rounds / 2;
  // A directory of this run's own: concurrent runs never share the file.
  const TempDir dir("fedprox_checkpoint");
  const std::string path = dir.file("checkpoint.bin");

  const Workload w = make_workload("synthetic_1_1", /*seed=*/8);
  auto base = [&] {
    TrainerConfig c = fedprox_config(/*mu=*/1.0);
    c.devices_per_round = 10;
    c.systems.epochs = 20;
    c.systems.straggler_fraction = 0.5;
    c.learning_rate = w.learning_rate;
    c.seed = 8;
    c.eval_every = rounds;
    return c;
  };

  // Unbroken reference run.
  TrainerConfig whole = base();
  whole.rounds = rounds;
  const TrainHistory reference = Trainer(*w.model, w.data, whole).run();

  // First half, then checkpoint.
  TrainerConfig first = base();
  first.rounds = half;
  const TrainHistory part1 = Trainer(*w.model, w.data, first).run();
  save_checkpoint(path, part1.final_parameters);
  std::cout << "saved " << part1.final_parameters.size()
            << "-parameter checkpoint after round " << half << " to " << path
            << "\n";

  // Resume: load, warm-start, continue with the round counter offset so
  // the (seed, round, device) streams line up with the unbroken run.
  TrainerConfig second = base();
  second.rounds = rounds - half;
  second.first_round = half;
  second.initial_parameters =
      load_checkpoint(path, w.model->parameter_count());
  const TrainHistory part2 = Trainer(*w.model, w.data, second).run();

  double max_diff = 0.0;
  for (std::size_t i = 0; i < reference.final_parameters.size(); ++i) {
    max_diff = std::max(max_diff,
                        std::abs(reference.final_parameters[i] -
                                 part2.final_parameters[i]));
  }
  std::cout << "final loss (unbroken run):  "
            << *reference.final_metrics().train_loss << "\n"
            << "final loss (resumed run):   "
            << *part2.final_metrics().train_loss << "\n"
            << "max |param difference|:     " << max_diff << "\n"
            << (max_diff == 0.0 ? "resume is bit-exact\n"
                                : "WARNING: trajectories diverged\n");
  return max_diff == 0.0 ? 0 : 1;
}
