// The benchmark's two FedProx workloads: how each is built (the timed
// set-up) and configured, and the telemetry traced episodes attach.
//
//   mnist_logreg      make_workload("mnist"): 1000 devices, 784->10
//                     logistic, K=10, E=20, 50% stragglers, mu=1
//   shakespeare_lstm  make_workload("shakespeare"): 32 devices, 2-layer
//                     LSTM, K=10, E=4, 50% stragglers, mu=0.001

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "data/dataset.h"
#include "nn/module.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/trace_sink.h"

namespace fedbench {

std::vector<std::string> workload_names();
bool is_workload(const std::string& name);

// Per-workload run shape (not tunable from the command line).
struct WorkloadShape {
  std::size_t rounds = 0;       // training rounds per measured episode
  std::size_t spot_rounds = 0;  // rounds of the 1-thread determinism spot run
  std::size_t eval_every = 0;
};
WorkloadShape workload_shape(const std::string& name);

// Everything the set-up builds: the federation and the model.
struct BuiltWorkload {
  fed::FederatedDataset data;
  std::shared_ptr<const fed::Model> model;
  double learning_rate = 0.0;
  std::size_t batch_size = 10;
};

// The timed set-up: builds the dataset and the model. The datasets are
// fixed per workload (one data seed for all runs); the run's seed only
// reaches the TrainerConfig.
BuiltWorkload build_workload(const std::string& name);

// Wall time of the data module's generator alone for this workload.
double time_data_build(const std::string& name);

// The TrainerConfig of one episode.
fed::TrainerConfig make_config(const std::string& name,
                               const BuiltWorkload& built, std::uint64_t seed,
                               std::size_t threads);

// The repo's telemetry stack as a user attaches it: the JSONL trace sink
// behind a TraceObserver, a MetricsObserver, and the Prometheus exporter
// rewriting its file every round, all writing under `run_dir`. Traced
// episodes run it inside the observer wrapper, which times the obs layer.
class Telemetry {
 public:
  explicit Telemetry(const std::string& run_dir);
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  fed::TrainingObserver& observer() { return *composite_; }

 private:
  std::unique_ptr<fed::JsonlTraceSink> sink_;
  std::unique_ptr<fed::TraceObserver> tracer_;
  std::unique_ptr<fed::MetricsRegistry> registry_;
  std::unique_ptr<fed::MetricsObserver> metrics_;
  std::unique_ptr<fed::MetricsExporter> exporter_;
  std::unique_ptr<fed::CompositeObserver> composite_;
};

}  // namespace fedbench
