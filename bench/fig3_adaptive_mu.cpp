// Figure 3: adaptively setting mu (+0.1 when the loss rises, -0.1 after 5
// consecutive falls) on Synthetic-IID (mu starts at 1 — adversarial) and
// Synthetic(1,1) (mu starts at 0 — adversarial). Expected shape: the
// heuristic tracks the hand-tuned mu>0 curve closely on the heterogeneous
// data and recovers from the bad initial mu on IID data.

#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace fed;
  using namespace fed::bench;
  const BenchOptions options = parse_options(argc, argv);
  print_banner("Figure 3", "adaptive mu heuristic (adversarial initial mu)");

  CsvWriter csv(options.out_dir + "/fig3_adaptive_mu.csv",
                history_csv_header());

  const std::vector<std::pair<std::string, double>> datasets{
      {"synthetic_iid", 1.0},  // adversarial init for IID
      {"synthetic_1_1", 0.0},  // adversarial init for non-IID
  };
  for (const auto& [name, initial_mu] : datasets) {
    const Workload w = load_workload(name, options);
    std::vector<VariantSpec> specs;
    {
      TrainerConfig c = base_config(w, Algorithm::kFedProx, 0.0, 0.0,
                                    options.epochs, options.seed);
      apply_rounds(c, w, options);
      specs.push_back({"FedAvg (FedProx, mu=0)", c});
    }
    {
      TrainerConfig c = base_config(w, Algorithm::kFedProx, 0.0, 0.0,
                                    options.epochs, options.seed);
      apply_rounds(c, w, options);
      c.adaptive_mu.enabled = true;
      c.adaptive_mu.initial_mu = initial_mu;
      specs.push_back(
          {"FedProx, dynamic mu (mu0=" + std::to_string(initial_mu) + ")", c});
    }
    {
      TrainerConfig c = base_config(w, Algorithm::kFedProx, 1.0, 0.0,
                                    options.epochs, options.seed);
      apply_rounds(c, w, options);
      specs.push_back({"FedProx, mu>0 (mu=1)", c});
    }
    auto results = run_variants(w, specs, options);
    std::cout << "\n--- " << w.name << ": training loss ---\n"
              << render_series(results, Metric::kTrainLoss)
              << "\n--- " << w.name << ": mu trajectory ---\n"
              << render_series(results, Metric::kMu);
    append_history_csv(csv, w.name, results);
  }
  std::cout << "\nCSV written to " << csv.path() << "\n";
  return 0;
}
