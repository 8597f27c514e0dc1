// Figure 7 (Appendix C.3.2): testing accuracy for the Figure 1 settings,
// plus the paper's headline number — the average absolute testing-accuracy
// improvement of FedProx (best mu) over FedAvg in the highly heterogeneous
// 90%-straggler environment (paper: 22% absolute, on average across the
// five datasets). Accuracies are read off with the paper's convergence /
// divergence rule (Appendix C.3.2).

#include <iomanip>
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace fed;
  using namespace fed::bench;
  const BenchOptions options = parse_options(argc, argv);
  print_banner("Figure 7",
               "testing accuracy under systems heterogeneity + the 22% claim");

  CsvWriter csv(options.out_dir + "/fig7_test_accuracy.csv",
                history_csv_header());
  CsvWriter summary(options.out_dir + "/fig7_summary.csv",
                    {"dataset", "stragglers", "fedavg_acc", "fedprox_mu0_acc",
                     "fedprox_best_acc", "improvement_best_vs_fedavg"});

  double improvement_sum_90 = 0.0;
  std::size_t improvement_count_90 = 0;

  for (const auto& name : figure1_workload_names()) {
    const Workload w = load_workload(name, options);
    for (double stragglers : {0.0, 0.5, 0.9}) {
      std::vector<VariantSpec> specs;
      auto push = [&](Algorithm algorithm, double mu, const std::string& label) {
        TrainerConfig c = base_config(w, algorithm, mu, stragglers,
                                      options.epochs, options.seed);
        apply_rounds(c, w, options);
        specs.push_back({label, c});
      };
      push(Algorithm::kFedAvg, 0.0, "FedAvg");
      push(Algorithm::kFedProx, 0.0, "FedProx (mu=0)");
      push(Algorithm::kFedProx, w.best_mu, "FedProx (best mu)");
      auto results = run_variants(w, specs, options);

      const double acc_avg = settled_accuracy(results[0].history);
      const double acc_mu0 = settled_accuracy(results[1].history);
      const double acc_best = settled_accuracy(results[2].history);
      const double improvement = acc_best - acc_avg;
      if (stragglers == 0.9) {
        improvement_sum_90 += improvement;
        ++improvement_count_90;
      }
      const std::string tag =
          std::to_string(static_cast<int>(stragglers * 100)) + "%";
      std::cout << "\n--- " << w.name << " @ " << tag
                << " stragglers: testing accuracy ---\n"
                << render_series(results, Metric::kTestAccuracy)
                << "settled accuracies: FedAvg " << TablePrinter::fmt(acc_avg)
                << " | FedProx(mu=0) " << TablePrinter::fmt(acc_mu0)
                << " | FedProx(best mu) " << TablePrinter::fmt(acc_best)
                << " | improvement " << TablePrinter::fmt(improvement) << "\n";
      append_history_csv(csv, w.name + "@" + tag, results);
      summary.write_row({w.name, tag, std::to_string(acc_avg),
                         std::to_string(acc_mu0), std::to_string(acc_best),
                         std::to_string(improvement)});
    }
  }

  if (improvement_count_90 > 0) {
    const double mean =
        improvement_sum_90 / static_cast<double>(improvement_count_90);
    std::cout << "\n=== Average absolute testing-accuracy improvement of "
                 "FedProx (best mu) over FedAvg at 90% stragglers: "
              << std::fixed << std::setprecision(1) << 100.0 * mean
              << "% (paper reports 22%) ===\n";
  }
  std::cout << "\nCSVs written to " << csv.path() << " and " << summary.path()
            << "\n";
  return 0;
}
