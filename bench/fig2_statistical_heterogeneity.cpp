// Figure 2: effect of statistical heterogeneity, no systems
// heterogeneity (every device runs E = 20 epochs). Four synthetic
// datasets of increasing heterogeneity; top row training loss, bottom row
// the gradient-variance dissimilarity metric. FedProx mu=0 here reduces
// to FedAvg. Expected shape: convergence degrades left to right for
// mu=0; mu>0 combats it; the variance metric tracks the loss.

#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace fed;
  using namespace fed::bench;
  const BenchOptions options = parse_options(argc, argv);
  print_banner("Figure 2",
               "statistical heterogeneity: loss and gradient variance on "
               "synthetic datasets");

  CsvWriter csv(options.out_dir + "/fig2_statistical_heterogeneity.csv",
                history_csv_header());

  for (const auto& name : synthetic_workload_names()) {
    const Workload w = load_workload(name, options);
    std::vector<VariantSpec> specs;
    for (double mu : {0.0, 1.0}) {
      TrainerConfig c = base_config(w, Algorithm::kFedProx, mu,
                                    /*stragglers=*/0.0, options.epochs,
                                    options.seed);
      apply_rounds(c, w, options);
      c.measure_dissimilarity = true;
      const std::string label =
          mu == 0.0 ? "FedAvg (FedProx, mu=0)" : "FedProx, mu>0 (mu=1)";
      specs.push_back({label, c});
    }
    auto results = run_variants(w, specs, options);
    std::cout << "\n--- " << w.name << ": training loss ---\n"
              << render_series(results, Metric::kTrainLoss)
              << "\n--- " << w.name << ": variance of local gradients ---\n"
              << render_series(results, Metric::kGradVariance);
    append_history_csv(csv, w.name, results);
  }
  std::cout << "\nCSV written to " << csv.path() << "\n";
  return 0;
}
