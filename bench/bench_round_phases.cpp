// Round-phase timing benchmark: where a federated round's time goes, and
// what the observability layer costs.
//
// Runs FedProx on Synthetic(1,1) for 20 rounds in five modes —
// observer-free baseline, full observers (JSONL trace sink + collector),
// observers + span profiler, the Prometheus telemetry stack (metrics
// feeder + file exporter, obs/exposition.h), and the serialized
// transport (every broadcast/update round-trips the binary wire format)
// — and writes BENCH_trainer_round.json with per-phase means, pool
// utilization, the observer/profiler/telemetry/serialization overheads
// and the exact transport-measured bytes moved per round. Run costs are
// process CPU seconds (every pool thread included), the minimum over the
// reps: wall time on a shared host swings with other tenants' load. Pool
// utilization is Σ client solve seconds ÷ (Σ solve wall seconds × pool
// size) over the observed run's traces: the share of worker time the
// stragglers' partial work keeps busy. The
// telemetry rep's history is checked bit-identical against the baseline
// ("history_bit_identical"); its registry is published as Prometheus
// text next to the CSVs (override with --metrics-out). The observed
// run's JSONL trace lands there too (override with --trace-out); each
// file holds one run, so `trace_lint --jsonl <trace> --metrics <prom>`
// reconciles them. Pass --profile-out to also keep one rep's Chrome
// trace.
//
//   ./bench_round_phases [--rounds 20] [--reps 3] [--stragglers 0.5]

#include <algorithm>
#include <iostream>
#include <sstream>

#include "bench_common.h"
#include "comm/transport.h"
#include "obs/chrome_trace.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/profiler.h"
#include "obs/trace_sink.h"
#include "support/json.h"
#include "support/stopwatch.h"

namespace {

using namespace fed;
using namespace fed::bench;

// Process CPU seconds of one training run.
double run_once(const Workload& workload, const TrainerConfig& config,
                ThreadPool& pool, TrainingObserver* observer,
                TrainHistory* history = nullptr) {
  Trainer trainer(*workload.model, workload.data, config, &pool);
  if (observer) trainer.add_observer(*observer);
  CpuStopwatch timer;
  TrainHistory h = trainer.run();
  const double seconds = timer.seconds();
  if (history) *history = std::move(h);
  return seconds;
}

// The observed modes' observers: a JSONL trace sink and a collector.
// Each run gets its own stack, so each trace holds exactly one run.
struct ObserverStack {
  explicit ObserverStack(JsonlTraceSink& sink) : tracer(sink) {
    stack.add(tracer);
    stack.add(collector);
  }
  TraceObserver tracer;
  TraceCollector collector;
  CompositeObserver stack;
};

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::size_t reps = static_cast<std::size_t>(
      std::max<std::int64_t>(1, flags.get_int("reps", 3)));
  const double stragglers = flags.get_double("stragglers", 0.5);
  const std::string json_path =
      flags.get_string("bench-json", "BENCH_trainer_round.json");
  BenchOptions options = parse_options(flags);
  const std::size_t rounds = options.rounds_override ? options.rounds_override
                                                     : 20;
  const std::string trace_path =
      options.trace_out.empty() ? options.out_dir + "/trainer_round_trace.jsonl"
                                : options.trace_out;

  print_banner("bench_round_phases",
               "per-phase round timing + observability overhead");

  const Workload workload = load_workload("synthetic_1_1", options);
  TrainerConfig config = base_config(workload, Algorithm::kFedProx,
                                     workload.best_mu, stragglers,
                                     options.epochs, options.seed);
  config.rounds = rounds;
  config.eval_every = 1;
  config.devices_per_round =
      std::min(config.devices_per_round, workload.data.num_clients());
  // Transport is this benchmark's independent variable (baseline vs
  // serialized reps below), so install only the remaining shared flags.
  config.shards = options.shards ? options.shards : 1;
  apply_faults(config, options);

  // Warm-up (thread pool, page cache), then alternate the modes rep by
  // rep and keep the minimum CPU time of each. Every mode shares the one
  // pool, whose size is the utilization denominator.
  ThreadPool pool(config.threads);
  run_once(workload, config, pool, nullptr);

  const std::string metrics_path =
      options.metrics_out.empty()
          ? options.out_dir + "/trainer_round_metrics.prom"
          : options.metrics_out;

  double baseline = 0.0;
  double observed = 0.0;
  double profiled = 0.0;
  double telemetry = 0.0;
  double serialized = 0.0;
  std::size_t profiled_events = 0;
  bool history_identical = true;
  TrainerConfig serialized_config = config;
  serialized_config.transport = make_transport(TransportKind::kSerialized);
  std::vector<RoundTrace> traces;  // the last observed run's rounds
  TraceCollector serialized_collector;
  Profiler& profiler = Profiler::instance();
  profiler.set_thread_name("main");
  for (std::size_t rep = 0; rep < reps; ++rep) {
    TrainHistory baseline_history;
    const double b = run_once(workload, config, pool, nullptr,
                              &baseline_history);
    baseline = rep ? std::min(baseline, b) : b;

    {
      JsonlTraceSink sink(trace_path);
      ObserverStack observers(sink);
      const double o = run_once(workload, config, pool, &observers.stack);
      observed = rep ? std::min(observed, o) : o;
      traces = observers.collector.traces();
    }

    // The same observers, a stack of their own (its trace goes to
    // memory), with the span profiler hot. Events from all but the last
    // rep are discarded so a kept --profile-out trace only shows one run.
    std::ostringstream profiled_trace;
    JsonlTraceSink profiled_sink(profiled_trace);
    ObserverStack profiled_observers(profiled_sink);
    profiler.discard();
    profiler.enable();
    const double p =
        run_once(workload, config, pool, &profiled_observers.stack);
    profiler.disable();
    profiled = rep ? std::min(profiled, p) : p;
    if (rep + 1 == reps) {
      if (options.profile_out.empty()) {
        profiled_events = profiler.drain().events.size();
      } else {
        const auto snapshot = profiler.drain();
        profiled_events = snapshot.events.size();
        save_json_file(options.profile_out, chrome_trace_json(snapshot));
        std::cout << "kept last profiled rep's Chrome trace at "
                  << options.profile_out << "\n";
      }
    }

    // Telemetry rep: metrics feeder + Prometheus file exporter, the
    // --metrics-out stack. Trace contexts ride the wire either way, so
    // this rep's history must be bit-identical to the baseline's.
    {
      MetricsRegistry registry;
      MetricsObserver metrics(registry);
      MetricsExporter exporter(registry, metrics_path,
                               options.metrics_every);
      CompositeObserver telemetry_stack;
      telemetry_stack.add(metrics);
      telemetry_stack.add(exporter);
      TrainHistory telemetry_history;
      const double m = run_once(workload, config, pool, &telemetry_stack,
                                &telemetry_history);
      telemetry = rep ? std::min(telemetry, m) : m;
      history_identical =
          history_identical &&
          telemetry_history.final_parameters ==
              baseline_history.final_parameters;
    }

    // Serialized-transport rep: same run, every payload through the wire
    // codecs. Its collector records the exact measured bytes per round.
    serialized_collector.clear();
    const double s = run_once(workload, serialized_config, pool,
                              &serialized_collector);
    serialized = rep ? std::min(serialized, s) : s;
  }

  const double overhead_pct =
      baseline > 0.0 ? 100.0 * (observed - baseline) / baseline : 0.0;
  const double profiler_overhead_pct =
      baseline > 0.0 ? 100.0 * (profiled - baseline) / baseline : 0.0;

  RoundTrace sum;  // phase seconds and bytes summed over the observed run
  for (const auto& t : traces) {
    sum.sampling_seconds += t.sampling_seconds;
    sum.solve_wall_seconds += t.solve_wall_seconds;
    sum.aggregate_seconds += t.aggregate_seconds;
    sum.eval_seconds += t.eval_seconds;
    sum.solve.total_seconds += t.solve.total_seconds;
    sum.solve.count += t.solve.count;
    sum.bytes_down += t.bytes_down;
    sum.bytes_up += t.bytes_up;
  }
  const double n = traces.empty() ? 1.0 : static_cast<double>(traces.size());
  const double pool_utilization =
      sum.solve_wall_seconds > 0.0
          ? sum.solve.total_seconds /
                (sum.solve_wall_seconds * static_cast<double>(pool.size()))
          : 0.0;

  JsonObject phases;
  phases["sampling_mean_s"] = sum.sampling_seconds / n;
  phases["solve_wall_mean_s"] = sum.solve_wall_seconds / n;
  phases["aggregate_mean_s"] = sum.aggregate_seconds / n;
  phases["eval_mean_s"] = sum.eval_seconds / n;
  phases["client_solve_mean_s"] =
      sum.solve.count ? sum.solve.total_seconds /
                            static_cast<double>(sum.solve.count)
                      : 0.0;

  JsonObject out;
  out["benchmark"] = "trainer_round_phases";
  out["workload"] = workload.name;
  out["algorithm"] = "FedProx";
  out["rounds"] = rounds;
  out["devices_per_round"] = config.devices_per_round;
  out["straggler_fraction"] = stragglers;
  out["reps"] = reps;
  out["baseline_cpu_seconds"] = baseline;
  out["observed_cpu_seconds"] = observed;
  out["overhead_pct"] = overhead_pct;
  out["profiled_cpu_seconds"] = profiled;
  out["profiler_overhead_pct"] = profiler_overhead_pct;
  out["profiled_events"] = profiled_events;
  out["profile_kernels_compiled"] = kProfileKernels;
  out["threads"] = pool.size();
  out["pool_utilization"] = pool_utilization;
  out["phases"] = std::move(phases);
  out["bytes_down_total"] = sum.bytes_down;
  out["bytes_up_total"] = sum.bytes_up;

  // Serialized-transport rep: CPU cost of round-tripping every
  // payload through the wire codecs, plus the exact bytes it measured
  // per round (identical to the in-process transport's analytical
  // accounting — asserted in tests/comm_transport_test.cpp).
  // Telemetry rep: cost of the metrics feeder + Prometheus exporter, and
  // proof it did not perturb training. Its registry, histogram buckets
  // included, is the exposition file at metrics_path.
  const double telemetry_overhead_pct =
      baseline > 0.0 ? 100.0 * (telemetry - baseline) / baseline : 0.0;
  out["telemetry_cpu_seconds"] = telemetry;
  out["telemetry_overhead_pct"] = telemetry_overhead_pct;
  out["history_bit_identical"] = history_identical;
  out["metrics_path"] = metrics_path;

  const double serialized_overhead_pct =
      baseline > 0.0 ? 100.0 * (serialized - baseline) / baseline : 0.0;
  out["serialized_cpu_seconds"] = serialized;
  out["serialized_overhead_pct"] = serialized_overhead_pct;
  JsonArray bytes_down_rounds;
  JsonArray bytes_up_rounds;
  for (const auto& t : serialized_collector.traces()) {
    if (t.round == 0) continue;  // round 0 is evaluation-only
    bytes_down_rounds.push_back(t.bytes_down);
    bytes_up_rounds.push_back(t.bytes_up);
  }
  out["serialized_bytes_down_per_round"] = std::move(bytes_down_rounds);
  out["serialized_bytes_up_per_round"] = std::move(bytes_up_rounds);
  out["trace_path"] = trace_path;
  save_json_file(json_path, JsonValue(std::move(out)));

  std::cout << "\npool utilization "
            << TablePrinter::fmt(pool_utilization, 3) << " over "
            << pool.size() << " threads\nCPU time: baseline " << baseline
            << "s, observers " << observed
            << "s (overhead " << TablePrinter::fmt(overhead_pct, 2)
            << "%), observers+profiler " << profiled << "s (overhead "
            << TablePrinter::fmt(profiler_overhead_pct, 2) << "%, "
            << profiled_events << " events, kernel spans "
            << (kProfileKernels ? "compiled" : "off")
            << "), telemetry " << telemetry << "s (overhead "
            << TablePrinter::fmt(telemetry_overhead_pct, 2) << "%, history "
            << (history_identical ? "bit-identical" : "DIVERGED")
            << "), serialized transport " << serialized << "s (overhead "
            << TablePrinter::fmt(serialized_overhead_pct, 2) << "%)\nwrote "
            << json_path << ", " << trace_path << ", and " << metrics_path
            << "\n";
  return 0;
}
