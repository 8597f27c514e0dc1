// Figure 5 (Appendix C.3.1): on perfectly IID data, FedAvg is robust to
// dropping stragglers — keeping partial work (FedProx mu=0) brings little
// improvement. Straggler rates 0% / 10% / 50% / 90%; loss and accuracy.

#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace fed;
  using namespace fed::bench;
  const BenchOptions options = parse_options(argc, argv);
  print_banner("Figure 5", "IID data: FedAvg robustness to stragglers");

  CsvWriter csv(options.out_dir + "/fig5_iid_stragglers.csv",
                history_csv_header());
  const Workload w = load_workload("synthetic_iid", options);

  for (double stragglers : {0.0, 0.1, 0.5, 0.9}) {
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
    auto results = run_variants(w, specs, options);
    const std::string tag =
        std::to_string(static_cast<int>(stragglers * 100)) + "% stragglers";
    std::cout << "\n--- Synthetic IID (" << tag << "): training loss ---\n"
              << render_series(results, Metric::kTrainLoss)
              << "\n--- Synthetic IID (" << tag << "): testing accuracy ---\n"
              << render_series(results, Metric::kTestAccuracy);
    append_history_csv(csv, w.name + "@" + tag, results);
  }
  std::cout << "\nCSV written to " << csv.path() << "\n";
  return 0;
}
