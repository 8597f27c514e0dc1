// LEAF-format interchange: export a federated dataset to the JSON layout
// used by the LEAF benchmark suite (the source of the paper's real
// datasets), re-import it, and verify training proceeds identically. To
// run on *real* LEAF data, tokenize/flatten it into the same layout plus
// a `<prefix>_meta.json` and point --prefix at it. Without --prefix the
// files go to a fresh temporary directory of this run.
//
//   ./leaf_interchange [--prefix <dir>/leaf_demo] [--rounds 10]

#include <filesystem>
#include <iostream>

#include "core/registry.h"
#include "core/trainer.h"
#include "data/leaf_json.h"
#include "data/stats.h"
#include "support/cli.h"
#include "support/temp_dir.h"

int main(int argc, char** argv) {
  using namespace fed;
  CliFlags flags(argc, argv);
  const TempDir dir("fedprox_leaf_demo");
  const std::string prefix = flags.get_string("prefix", dir.file("leaf_demo"));
  const auto rounds = static_cast<std::size_t>(flags.get_int("rounds", 10));
  flags.exit_on_unused();

  const Workload w = make_workload("synthetic_1_1", /*seed=*/12);
  export_leaf(w.data, prefix);
  std::cout << "exported " << w.data.num_clients() << " devices to "
            << prefix << "_{train,test,meta}.json\n";

  const FederatedDataset imported = import_leaf(prefix);
  std::cout << format_stats_table({compute_stats(imported)}) << "\n";

  // Train on the imported copy; with identical data and seeds the
  // trajectory matches training on the original exactly.
  TrainerConfig config = fedprox_config(1.0);
  config.rounds = rounds;
  config.devices_per_round = 10;
  config.systems.epochs = 5;
  config.learning_rate = w.learning_rate;
  config.eval_every = config.rounds;
  config.seed = 12;

  const auto original = Trainer(*w.model, w.data, config).run();
  const auto roundtrip = Trainer(*w.model, imported, config).run();
  std::cout << "final loss on original: "
            << *original.final_metrics().train_loss << "\n"
            << "final loss on imported: "
            << *roundtrip.final_metrics().train_loss << "\n"
            << (original.final_parameters == roundtrip.final_parameters
                    ? "round-trip training is bit-exact\n"
                    : "WARNING: trajectories differ\n");
  std::filesystem::remove(prefix + "_train.json");
  std::filesystem::remove(prefix + "_test.json");
  std::filesystem::remove(prefix + "_meta.json");
  return original.final_parameters == roundtrip.final_parameters ? 0 : 1;
}
