// Figure 4 (Appendix B): FedDane vs FedProx on the four synthetic
// datasets. Top block: K=10 of 30 devices sampled for both methods.
// Bottom block: FedDane with increasing participation (K = 10, 20, 30)
// to narrow the gradient-estimation gap. Expected shape: FedDane tracks
// FedProx on IID data but degrades/diverges on the non-IID sets, and more
// participation only partially helps.

#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace fed;
  using namespace fed::bench;
  const BenchOptions options = parse_options(argc, argv);
  print_banner("Figure 4", "FedDane gradient correction vs FedProx");

  CsvWriter csv(options.out_dir + "/fig4_feddane.csv", history_csv_header());

  for (const auto& name : synthetic_workload_names()) {
    const Workload w = load_workload(name, options);
    // Top: FedProx vs FedDane at K = 10, mu in {0, 1}.
    std::vector<VariantSpec> specs;
    for (double mu : {0.0, 1.0}) {
      TrainerConfig c = base_config(w, Algorithm::kFedProx, mu, 0.0,
                                    options.epochs, options.seed);
      apply_rounds(c, w, options);
      specs.push_back({"FedProx (mu=" + std::to_string(static_cast<int>(mu)) +
                           ", K=10)",
                       c});
    }
    for (double mu : {0.0, 1.0}) {
      TrainerConfig c = base_config(w, Algorithm::kFedDane, mu, 0.0,
                                    options.epochs, options.seed);
      apply_rounds(c, w, options);
      specs.push_back({"FedDane (mu=" + std::to_string(static_cast<int>(mu)) +
                           ", K=10)",
                       c});
    }
    // Bottom: FedDane with more participating devices.
    for (std::size_t k : {20u, 30u}) {
      if (k > w.data.num_clients()) continue;
      TrainerConfig c = base_config(w, Algorithm::kFedDane, 0.0, 0.0,
                                    options.epochs, options.seed);
      apply_rounds(c, w, options);
      c.devices_per_round = k;
      specs.push_back({"FedDane (mu=0, K=" + std::to_string(k) + ")", c});
    }
    auto results = run_variants(w, specs, options);
    std::cout << "\n--- " << w.name << ": training loss ---\n"
              << render_series(results, Metric::kTrainLoss);
    append_history_csv(csv, w.name, results);
  }
  std::cout << "\nCSV written to " << csv.path() << "\n";
  return 0;
}
