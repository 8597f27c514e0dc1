// Ablation of the "any local solver" claim (Section 3.2): FedProx run
// with three different local solvers under the same per-round iteration
// budget on Synthetic(1,1), with realized gamma-inexactness measured.
// The framework's guarantees are stated in terms of gamma alone; this
// driver shows how solver choice maps onto gamma and onto end-to-end
// convergence.

#include <iostream>

#include "bench_common.h"
#include "optim/adam.h"
#include "optim/gd.h"
#include "optim/sgd.h"

int main(int argc, char** argv) {
  using namespace fed;
  using namespace fed::bench;
  const BenchOptions options = parse_options(argc, argv);
  print_banner("Ablation", "local solvers: SGD vs GD vs Adam under FedProx");

  CsvWriter csv(options.out_dir + "/ablation_local_solvers.csv",
                history_csv_header());

  const Workload w = load_workload("synthetic_1_1", options);
  for (double mu : {0.0, 1.0}) {
    std::vector<VariantSpec> specs;
    auto push = [&](const std::string& label,
                    std::shared_ptr<const LocalSolver> solver,
                    double learning_rate) {
      TrainerConfig c = base_config(w, Algorithm::kFedProx, mu, 0.0,
                                    options.epochs, options.seed);
      apply_rounds(c, w, options);
      c.solver = std::move(solver);
      c.learning_rate = learning_rate;
      c.measure_gamma = true;
      specs.push_back({label + " (mu=" + std::to_string(static_cast<int>(mu)) +
                           ")",
                       c});
    };
    push("sgd", std::make_shared<SgdSolver>(), w.learning_rate);
    push("gd", std::make_shared<GdSolver>(), w.learning_rate);
    // Adam needs a smaller step; its per-coordinate scaling is ~unit.
    push("adam", std::make_shared<AdamSolver>(), 0.003);
    auto results = run_variants(w, specs, options);
    std::cout << "\n--- " << w.name << " (mu=" << mu
              << "): training loss ---\n"
              << render_series(results, Metric::kTrainLoss);
    // Report the realized mean gamma of the final rounds.
    for (const auto& r : results) {
      double gamma = 0.0;
      std::size_t count = 0;
      for (const auto& m : r.history.rounds) {
        if (m.mean_gamma) {
          gamma += *m.mean_gamma;
          ++count;
        }
      }
      if (count) {
        std::cout << r.label << ": mean realized gamma "
                  << TablePrinter::fmt(gamma / static_cast<double>(count))
                  << "\n";
      }
    }
    append_history_csv(csv, w.name + "@mu=" + std::to_string(mu), results);
  }
  std::cout << "\nCSV written to " << csv.path() << "\n";
  return 0;
}
