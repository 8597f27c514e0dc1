// Figures 9 and 10 (Appendix C.3.2): the E = 1 partial-work study. Every
// device can run at most one local epoch; stragglers complete a uniform
// fraction of that epoch. Loss (Fig 9) and testing accuracy (Fig 10)
// under 0% / 50% / 90% stragglers. Expected shape: local updates deviate
// little at E = 1, so statistical heterogeneity bites less, but keeping
// partial solutions (FedProx mu=0) still beats dropping them (FedAvg).

#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace fed;
  using namespace fed::bench;
  BenchOptions options = parse_options(argc, argv);
  options.epochs = 1;  // the defining setting of this figure
  print_banner("Figures 9-10", "partial work with E = 1");

  CsvWriter csv(options.out_dir + "/fig9_partial_work_e1.csv",
                history_csv_header());

  for (const auto& name : figure1_workload_names()) {
    const Workload w = load_workload(name, options);
    for (double stragglers : {0.0, 0.5, 0.9}) {
      std::vector<VariantSpec> specs;
      {
        TrainerConfig c = base_config(w, Algorithm::kFedAvg, 0.0, stragglers,
                                      options.epochs, options.seed);
        apply_rounds(c, w, options);
        specs.push_back({"FedAvg", c});
      }
      {
        TrainerConfig c = base_config(w, Algorithm::kFedProx, 0.0, stragglers,
                                      options.epochs, options.seed);
        apply_rounds(c, w, options);
        specs.push_back({"FedProx (mu=0)", c});
      }
      {
        TrainerConfig c =
            base_config(w, Algorithm::kFedProx, w.best_mu, stragglers,
                        options.epochs, options.seed);
        apply_rounds(c, w, options);
        specs.push_back({"FedProx (best mu)", c});
      }
      auto results = run_variants(w, specs, options);
      const std::string tag =
          std::to_string(static_cast<int>(stragglers * 100)) + "% stragglers";
      std::cout << "\n--- " << w.name << " (" << tag
                << ", E=1): training loss ---\n"
                << render_series(results, Metric::kTrainLoss)
                << "\n--- " << w.name << " (" << tag
                << ", E=1): testing accuracy ---\n"
                << render_series(results, Metric::kTestAccuracy);
      append_history_csv(csv, w.name + "@" + tag, results);
    }
  }
  std::cout << "\nCSV written to " << csv.path() << "\n";
  return 0;
}
