// Figure 12 (Appendix C.3.4): comparing the two device-sampling schemes
// on the four synthetic datasets with uniform local work (E = 20):
//   uniform sampling + n_k-weighted aggregation (experiments' scheme)
//   p_k-weighted sampling + simple average       (analysis' scheme)
// each with mu = 0 and mu = 1. Expected shape: the weighted-sampling
// scheme is slightly better/more stable; mu = 1 is more stable than
// mu = 0 under either scheme.

#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace fed;
  using namespace fed::bench;
  const BenchOptions options = parse_options(argc, argv);
  print_banner("Figure 12", "two device sampling schemes");

  CsvWriter csv(options.out_dir + "/fig12_sampling_schemes.csv",
                history_csv_header());

  for (const auto& name : synthetic_workload_names()) {
    const Workload w = load_workload(name, options);
    std::vector<VariantSpec> specs;
    for (auto scheme : {SamplingScheme::kUniformThenWeightedAverage,
                        SamplingScheme::kWeightedThenSimpleAverage}) {
      for (double mu : {0.0, 1.0}) {
        TrainerConfig c = base_config(w, Algorithm::kFedProx, mu, 0.0,
                                      options.epochs, options.seed);
        apply_rounds(c, w, options);
        c.sampling = scheme;
        c.measure_dissimilarity = true;
        specs.push_back({"mu=" + std::to_string(static_cast<int>(mu)) + ", " +
                             to_string(scheme),
                         c});
      }
    }
    auto results = run_variants(w, specs, options);
    std::cout << "\n--- " << w.name << ": training loss ---\n"
              << render_series(results, Metric::kTrainLoss)
              << "\n--- " << w.name << ": testing accuracy ---\n"
              << render_series(results, Metric::kTestAccuracy);
    append_history_csv(csv, w.name, results);
  }
  std::cout << "\nCSV written to " << csv.path() << "\n";
  return 0;
}
