#include "workloads.h"

#include <algorithm>
#include <stdexcept>

#include "comm/transport.h"
#include "core/registry.h"
#include "data/image_like.h"
#include "data/sequence.h"
#include "support/stopwatch.h"

namespace fedbench {

namespace {

// Every workload's federation is drawn from this one data seed, so all
// runs see the same datasets; --seed drives the training randomness
// (model init, selection, stragglers, mini-batches).
constexpr std::uint64_t kDataSeed = 1;

}  // namespace

std::vector<std::string> workload_names() {
  return {"mnist_logreg", "shakespeare_lstm"};
}

bool is_workload(const std::string& name) {
  const auto names = workload_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

WorkloadShape workload_shape(const std::string& name) {
  if (name == "mnist_logreg") {
    return {.rounds = 30, .spot_rounds = 5, .eval_every = 5};
  }
  if (name == "shakespeare_lstm") {
    return {.rounds = 20, .spot_rounds = 3, .eval_every = 5};
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

BuiltWorkload build_workload(const std::string& name) {
  workload_shape(name);  // rejects unknown names
  BuiltWorkload built;
  fed::Workload workload = fed::make_workload(
      name == "mnist_logreg" ? "mnist" : "shakespeare", kDataSeed, 1.0);
  built.data = std::move(workload.data);
  built.model = std::move(workload.model);
  built.learning_rate = workload.learning_rate;
  built.batch_size = workload.batch_size;
  return built;
}

double time_data_build(const std::string& name) {
  fed::Stopwatch timer;
  fed::FederatedDataset data;
  if (name == "mnist_logreg") {
    data = fed::make_image_like(fed::mnist_like_config(kDataSeed, 1.0));
  } else {
    data = fed::make_next_char(fed::shakespeare_like_config(kDataSeed, 1.0));
  }
  return timer.seconds();
}

fed::TrainerConfig make_config(const std::string& name,
                               const BuiltWorkload& built, std::uint64_t seed,
                               std::size_t threads) {
  const WorkloadShape shape = workload_shape(name);
  fed::TrainerConfig config;
  config.algorithm = fed::Algorithm::kFedProx;
  config.rounds = shape.rounds;
  config.eval_every = shape.eval_every;
  config.batch_size = built.batch_size;
  config.learning_rate = built.learning_rate;
  config.seed = seed;
  config.threads = threads;
  config.devices_per_round = 10;
  config.systems.straggler_fraction = 0.5;
  config.transport = fed::make_transport(fed::TransportKind::kInProcess);
  if (name == "mnist_logreg") {
    config.mu = 1.0;
    config.systems.epochs = 20;
  } else {
    config.mu = 0.001;
    // E=4 keeps a round at 0.15-0.2 s on 4 shared vCPUs, so one 40 s run
    // holds about 12 episodes for its medians; E=5 holds a fifth fewer.
    config.systems.epochs = 4;
  }
  return config;
}

Telemetry::Telemetry(const std::string& run_dir) {
  sink_ = std::make_unique<fed::JsonlTraceSink>(run_dir + "/trace.jsonl");
  tracer_ = std::make_unique<fed::TraceObserver>(*sink_);
  registry_ = std::make_unique<fed::MetricsRegistry>();
  metrics_ = std::make_unique<fed::MetricsObserver>(*registry_);
  exporter_ = std::make_unique<fed::MetricsExporter>(
      *registry_, run_dir + "/metrics.prom", 1);
  composite_ = std::make_unique<fed::CompositeObserver>();
  composite_->add(*tracer_);
  composite_->add(*metrics_);
  composite_->add(*exporter_);
}

}  // namespace fedbench
