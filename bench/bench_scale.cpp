// Registered-device scale sweep: server-side throughput and memory as
// the federation grows from 10k to 1M registered devices.
//
// Each sweep point builds a synthetic federation with a deliberately
// tiny per-device footprint (input_dim 20, 5 classes, min 2 samples) so
// the registry itself — not the local solves — dominates, samples at
// least 1k devices per round, trains a few FedProx rounds with
// evaluation only on the first and final round, and records
//
//   rounds/sec     training rounds per second of non-eval round time
//                  (from the round traces, so eval cost is excluded)
//   peak RSS       VmHWM from /proc/self/status after the point ran
//                  (a process-lifetime high-water mark: points run in
//                  ascending order, so each row's value is the peak so
//                  far and the last row is the sweep's true peak)
//
// into BENCH_scale.json. Not a ctest — run it like micro_kernels:
//
//   ./bench_scale [--max-devices 1000000] [--rounds 5] [--shards N]
//                 [--sampled 1000] [--quick]

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "obs/observer.h"
#include "support/json.h"
#include "support/stopwatch.h"

namespace {

using namespace fed;
using namespace fed::bench;

// Peak resident set size of this process in kilobytes (VmHWM), or 0
// when /proc is unavailable.
std::size_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    std::size_t kb = 0;
    fields >> kb;
    return kb;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const auto max_devices =
      static_cast<std::size_t>(flags.get_int("max-devices", 1000000));
  const auto sampled = static_cast<std::size_t>(flags.get_int("sampled", 1000));
  const std::string json_path = flags.get_string("bench-json",
                                                 "BENCH_scale.json");
  BenchOptions options = parse_options(flags);
  const std::size_t rounds =
      options.rounds_override ? options.rounds_override : 5;

  print_banner("bench_scale",
               "registered-device scale sweep (throughput + peak RSS)");

  std::vector<std::size_t> sweep;
  for (std::size_t n = options.quick ? 1000 : 10000; n <= max_devices;
       n *= 10) {
    sweep.push_back(n);
  }
  if (sweep.empty()) sweep.push_back(max_devices);

  TraceCapture capture(options);  // one trace across the sweep points
  JsonArray points;
  TablePrinter table({"devices", "sampled", "rounds/sec", "round_s",
                      "peak_rss_mb"});
  for (const std::size_t devices : sweep) {
    SyntheticConfig synth = synthetic_config(1.0, 1.0, options.seed);
    synth.num_devices = devices;
    synth.input_dim = 20;
    synth.num_classes = 5;
    // Tiny per-device shards: 2 + floor(exp(N(0.5, 0.5))) samples, so a
    // million devices fit in memory and the sweep stresses the registry
    // and the per-round selection/aggregation path, not the solves.
    synth.min_samples = 2;
    synth.mean_log = 0.5;
    synth.sigma_log = 0.5;

    Stopwatch build_timer;
    const FederatedDataset data = make_synthetic(synth);
    const double build_seconds = build_timer.seconds();
    LogisticRegression model(synth.input_dim, synth.num_classes);

    TrainerConfig config = fedprox_config(/*mu=*/1.0);
    config.rounds = rounds;
    config.devices_per_round = std::min(sampled, data.num_clients());
    config.systems.epochs = 1;
    config.batch_size = 10;
    config.learning_rate = 0.05;
    config.eval_every = rounds;  // evaluate only the first + final round
    config.seed = options.seed;
    apply_common_flags(config, options);

    TraceCollector collector;
    Trainer trainer(model, data, config);
    trainer.add_observer(collector);
    if (capture.observer()) trainer.add_observer(*capture.observer());
    Stopwatch train_timer;
    const TrainHistory history = trainer.run();
    const double train_seconds = train_timer.seconds();

    // Throughput over the training rounds only: skip the eval-only round
    // 0 and subtract the eval phase from the final round's wall time.
    double train_round_seconds = 0.0;
    std::size_t train_rounds = 0;
    for (const auto& t : collector.traces()) {
      if (t.selected == 0) continue;
      train_round_seconds += t.round_seconds - t.eval_seconds;
      ++train_rounds;
    }
    const double rounds_per_sec =
        train_round_seconds > 0.0 ? train_rounds / train_round_seconds : 0.0;
    const std::size_t rss_kb = peak_rss_kb();

    JsonObject point;
    point["registered_devices"] = devices;
    point["sampled_per_round"] = config.devices_per_round;
    point["train_rounds"] = train_rounds;
    point["rounds_per_sec"] = rounds_per_sec;
    point["train_round_seconds_mean"] =
        train_rounds ? train_round_seconds / train_rounds : 0.0;
    point["dataset_build_seconds"] = build_seconds;
    point["train_wall_seconds"] = train_seconds;
    point["total_train_samples"] = data.total_train_samples();
    point["peak_rss_kb"] = rss_kb;
    point["final_train_loss"] = *history.final_metrics().train_loss;
    points.push_back(JsonValue(std::move(point)));

    table.add_row({std::to_string(devices),
                   std::to_string(config.devices_per_round),
                   TablePrinter::fmt(rounds_per_sec, 3),
                   TablePrinter::fmt(train_rounds
                                         ? train_round_seconds / train_rounds
                                         : 0.0, 4),
                   TablePrinter::fmt(rss_kb / 1024.0, 1)});
  }

  JsonObject out;
  out["benchmark"] = "scale_sweep";
  out["model"] = "logistic 20x5";
  out["rounds"] = rounds;
  out["shards"] = options.shards;
  out["transport"] = options.transport;
  out["threads_note"] = "0 = hardware concurrency";
  out["points"] = std::move(points);
  save_json_file(json_path, JsonValue(std::move(out)));

  std::cout << table.render() << "\nwrote " << json_path << "\n";
  return 0;
}
