// Systems heterogeneity demo: the same network, the same stragglers —
// FedAvg drops them, FedProx aggregates their partial work. Reproduces
// the qualitative Figure 1 story on one dataset in under a minute.
//
//   ./straggler_tolerance [--stragglers 0.9] [--rounds 60]

#include <iostream>

#include "core/registry.h"
#include "core/trainer.h"
#include "support/cli.h"
#include "support/csv.h"
#include "support/sparkline.h"

int main(int argc, char** argv) {
  using namespace fed;
  CliFlags flags(argc, argv);
  const double stragglers = flags.get_double("stragglers", 0.9);
  const auto rounds = static_cast<std::size_t>(flags.get_int("rounds", 60));
  flags.exit_on_unused();

  const Workload w = make_workload("synthetic_1_1", /*seed=*/2);

  auto run = [&](Algorithm algorithm, double mu) {
    TrainerConfig config;
    config.algorithm = algorithm;
    config.mu = mu;
    config.rounds = rounds;
    config.devices_per_round = 10;
    config.systems.epochs = 20;
    config.systems.straggler_fraction = stragglers;
    config.learning_rate = w.learning_rate;
    config.eval_every = std::max<std::size_t>(1, rounds / 25);
    config.seed = 2;             // identical selection/stragglers/batches
    return Trainer(*w.model, w.data, config).run();
  };

  std::cout << "Synthetic(1,1), " << static_cast<int>(stragglers * 100)
            << "% stragglers, " << rounds << " rounds, E=20\n\n";

  const auto fedavg = run(Algorithm::kFedAvg, 0.0);
  const auto prox0 = run(Algorithm::kFedProx, 0.0);
  const auto prox1 = run(Algorithm::kFedProx, 1.0);

  TablePrinter table({"method", "straggler policy", "final loss",
                      "final test accuracy", "loss trajectory"});
  auto row = [&](const std::string& name, const std::string& policy,
                 const TrainHistory& h) {
    std::vector<double> losses;
    for (const auto& [_, loss] : h.loss_series()) losses.push_back(loss);
    table.add_row({name, policy,
                   TablePrinter::fmt(*h.final_metrics().train_loss),
                   TablePrinter::fmt(*h.final_metrics().test_accuracy),
                   sparkline(losses)});
  };
  row("FedAvg", "drop stragglers", fedavg);
  row("FedProx (mu=0)", "keep partial work", prox0);
  row("FedProx (mu=1)", "keep partial work + prox", prox1);
  std::cout << table.render()
            << "\nAll three runs saw the *same* device selections, straggler\n"
               "assignments, and mini-batch orders (the paper's paired-run\n"
               "protocol) — only the aggregation policy and mu differ.\n";
  return 0;
}
