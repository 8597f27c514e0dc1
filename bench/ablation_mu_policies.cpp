// Ablation (beyond the paper; motivated by its future-work note on
// automatically tuning mu "based on the theoretical groundwork"):
// compares three mu policies on the four synthetic datasets —
//   fixed      mu = 1                (the paper's grid-tuned constant)
//   adaptive   +/- 0.1 loss heuristic (the paper's Figure 3)
//   theory     mu_t = c (B_t^2 - 1)   (Corollary 7 suggests mu ~ 6 L B^2)
// Expected shape: on IID data fixed mu=1 pays a convergence penalty while
// adaptive and theory decay toward 0; on heterogeneous data theory
// matches or beats the hand-tuned constant without any grid search.

#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace fed;
  using namespace fed::bench;
  const BenchOptions options = parse_options(argc, argv);
  print_banner("Ablation", "mu policies: fixed vs adaptive vs theory-guided");

  CsvWriter csv(options.out_dir + "/ablation_mu_policies.csv",
                history_csv_header());

  for (const auto& name : synthetic_workload_names()) {
    const Workload w = load_workload(name, options);
    std::vector<VariantSpec> specs;
    {
      TrainerConfig c = base_config(w, Algorithm::kFedProx, 1.0, 0.0,
                                    options.epochs, options.seed);
      apply_rounds(c, w, options);
      specs.push_back({"fixed (mu=1)", c});
    }
    {
      TrainerConfig c = base_config(w, Algorithm::kFedProx, 0.0, 0.0,
                                    options.epochs, options.seed);
      apply_rounds(c, w, options);
      c.adaptive_mu.enabled = true;
      c.adaptive_mu.initial_mu = (name == "synthetic_iid") ? 1.0 : 0.0;
      specs.push_back({"adaptive (loss heuristic)", c});
    }
    {
      TrainerConfig c = base_config(w, Algorithm::kFedProx, 0.0, 0.0,
                                    options.epochs, options.seed);
      apply_rounds(c, w, options);
      c.theory_mu.enabled = true;
      c.theory_mu.coefficient = 0.05;
      specs.push_back({"theory (mu ~ B^2-1)", c});
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
