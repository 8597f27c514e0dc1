// Figure 11 (Appendix C.3.3): the adaptive-mu heuristic on all four
// synthetic datasets, with adversarial initial mu (1 for IID, 0 for the
// non-IID sets). Expected shape: dynamic mu is competitive with the best
// hand-tuned mu everywhere.

#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace fed;
  using namespace fed::bench;
  const BenchOptions options = parse_options(argc, argv);
  print_banner("Figure 11", "adaptive mu on all synthetic datasets");

  CsvWriter csv(options.out_dir + "/fig11_adaptive_mu_full.csv",
                history_csv_header());

  for (const auto& name : synthetic_workload_names()) {
    const Workload w = load_workload(name, options);
    const double initial_mu = (name == "synthetic_iid") ? 1.0 : 0.0;
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
              << render_series(results, Metric::kTrainLoss);
    append_history_csv(csv, w.name, results);
  }
  std::cout << "\nCSV written to " << csv.path() << "\n";
  return 0;
}
