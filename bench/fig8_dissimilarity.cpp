// Figure 8 (Appendix C.3.2): the gradient-variance dissimilarity metric
// tracked on all five Figure-1 datasets with no systems heterogeneity
// (no dropped devices). Expected shape: mu > 0 keeps the dissimilarity
// lower than mu = 0, consistent with the loss curves.

#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace fed;
  using namespace fed::bench;
  const BenchOptions options = parse_options(argc, argv);
  print_banner("Figure 8", "dissimilarity measurement on five datasets");

  CsvWriter csv(options.out_dir + "/fig8_dissimilarity.csv",
                history_csv_header());

  for (const auto& name : figure1_workload_names()) {
    const Workload w = load_workload(name, options);
    std::vector<VariantSpec> specs;
    {
      TrainerConfig c = base_config(w, Algorithm::kFedProx, 0.0, 0.0,
                                    options.epochs, options.seed);
      apply_rounds(c, w, options);
      c.measure_dissimilarity = true;
      specs.push_back({"FedAvg (FedProx, mu=0)", c});
    }
    {
      TrainerConfig c = base_config(w, Algorithm::kFedProx, w.best_mu, 0.0,
                                    options.epochs, options.seed);
      apply_rounds(c, w, options);
      c.measure_dissimilarity = true;
      specs.push_back({"FedProx (mu>0)", c});
    }
    auto results = run_variants(w, specs, options);
    std::cout << "\n--- " << w.name << ": variance of local gradients ---\n"
              << render_series(results, Metric::kGradVariance);
    append_history_csv(csv, w.name, results);
  }
  std::cout << "\nCSV written to " << csv.path() << "\n";
  return 0;
}
