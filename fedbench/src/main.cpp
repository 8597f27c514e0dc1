// fedbench: one FedProx benchmark run.
//
//   fedbench --workload mnist_logreg --seed 1 --seconds 30 --trace 0
//            [--reference fedbench/reference.json]
//            [--manifest BENCHMARK.json] [--run-dir DIR] [--spans-out FILE]
//
// Builds the workload's fixed dataset and model (the timed set-up,
// repeated and reported as a median), then runs fixed-round FedProx
// episodes, with --seed as the training seed, through the public Trainer
// API until --seconds have passed. Successive episodes train successive
// windows of the seed's round schedule. --trace 0 reports the end-to-end
// metrics from untraced episodes; their round timings are CPU time of the
// whole process (cpu_s()), which a shared host's neighbours do not
// inflate the way they inflate wall time. --trace 1 runs every window
// untraced and traced (decorators and the repo's telemetry attached, see
// decorators.h and workloads.h), replays captured inputs through the
// layers without a seam (probes.h), and reports the per-layer metrics.
// Every run checks its outputs:
//
//   - the metric catalogue matches BENCHMARK.json's metric lists;
//   - a short spot run on 1 thread matches the same run on the pool;
//   - traced: each traced episode's TrainHistory is bit-identical to the
//     untraced episode of the same window;
//   - every episode's train loss reaches the target; the first window's
//     final train loss and test accuracy lie in the workload's band;
//   - traced: every exchange span nests in its round span, attempts and
//     bytes reconcile with the RoundTrace, every decode re-encodes to its
//     source.
//
// The last line of stdout is the JSON result. A failed check makes the
// run print correct=false and exit 1.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <thread>

#include "catalog.h"
#include "episode.h"
#include "probes.h"
#include "support/cli.h"
#include "support/json.h"
#include "support/log.h"
#include "workloads.h"

namespace {

using namespace fedbench;

struct Reference {
  double target_loss = 0.0;
  double loss_lo = 0.0, loss_hi = 0.0;
  double acc_lo = 0.0, acc_hi = 0.0;
};

Reference load_reference(const std::string& path, const std::string& workload) {
  const fed::JsonValue all = fed::load_json_file(path);
  const fed::JsonValue& w = all.at(workload);
  const auto band = [&](const char* key, double& lo, double& hi) {
    const fed::JsonArray& pair = w.at(key).as_array();
    if (pair.size() != 2) {
      throw std::runtime_error(path + ": " + workload + "." + key +
                               " must be [low, high]");
    }
    lo = pair[0].as_number();
    hi = pair[1].as_number();
  };
  Reference ref;
  ref.target_loss = w.at("target_loss").as_number();
  band("final_train_loss", ref.loss_lo, ref.loss_hi);
  band("final_test_acc", ref.acc_lo, ref.acc_hi);
  return ref;
}

// Linear interpolation between closest ranks, over sorted samples.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kb = 0.0;
    fields >> kb;
    return kb / 1024.0;
  }
  return 0.0;
}

// Counts operations (episodes and checks) and the ones that failed.
struct Checks {
  std::size_t attempted = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

// Training rounds of an episode: every record after the round-0 eval.
std::span<const RoundRecord> training_rounds(const Episode& e) {
  return std::span<const RoundRecord>(e.rounds).subspan(1);
}

// Rounds per wall second and wall ms per round, from consecutive
// on_round_end stamps. On a shared host these read the neighbours' load
// too, so they are per-layer readings only.
double rounds_per_s(const Episode& e) {
  return static_cast<double>(e.rounds.size() - 1) /
         (e.rounds.back().end - e.rounds.front().end);
}

std::vector<double> round_ms(const Episode& e) {
  std::vector<double> ms;
  for (std::size_t i = 1; i < e.rounds.size(); ++i) {
    ms.push_back(1e3 * (e.rounds[i].end - e.rounds[i - 1].end));
  }
  return ms;
}

// The same in CPU time of the whole process (every pool worker), which
// the end-to-end metrics use.
double rounds_per_cpu_s(const Episode& e) {
  return static_cast<double>(e.rounds.size() - 1) /
         (e.rounds.back().cpu_end - e.rounds.front().cpu_end);
}

std::vector<double> round_cpu_ms(const Episode& e) {
  std::vector<double> ms;
  for (std::size_t i = 1; i < e.rounds.size(); ++i) {
    ms.push_back(1e3 * (e.rounds[i].cpu_end - e.rounds[i - 1].cpu_end));
  }
  return ms;
}

// CPU seconds from Trainer::run until the first evaluation at or below
// the target loss; negative when the target is never reached.
double cpu_s_to_target(const Episode& e, double target) {
  for (const RoundRecord& r : training_rounds(e)) {
    if (r.train_loss && *r.train_loss <= target) {
      return r.cpu_end - e.run_start_cpu;
    }
  }
  return -1.0;
}

Metrics end_to_end(const std::vector<Episode>& episodes,
                   const std::vector<double>& setup_s, const Reference& ref) {
  Metrics m;
  std::vector<double> rps, ttt, ms, wall_rps, wall_ms;
  for (const Episode& e : episodes) {
    rps.push_back(rounds_per_cpu_s(e));
    ttt.push_back(cpu_s_to_target(e, ref.target_loss));
    const std::vector<double> per_round = round_cpu_ms(e);
    ms.insert(ms.end(), per_round.begin(), per_round.end());
    wall_rps.push_back(rounds_per_s(e));
    const std::vector<double> per_round_wall = round_ms(e);
    wall_ms.insert(wall_ms.end(), per_round_wall.begin(), per_round_wall.end());
  }
  const Episode& first = episodes.front();
  double bytes = 0.0, selected = 0.0, failed = 0.0;
  for (const RoundRecord& r : training_rounds(first)) {
    bytes += static_cast<double>(r.trace.bytes_down + r.trace.bytes_up);
    for (const fed::ShardStat& s : r.trace.shards) {
      bytes += static_cast<double>(s.partial_bytes);
    }
    selected += static_cast<double>(r.trace.selected);
    failed += static_cast<double>(r.trace.faults.failed_devices);
  }
  const double rounds = static_cast<double>(first.rounds.size() - 1);
  const fed::RoundMetrics& fin = first.history.final_metrics();
  m["setup_s"] = median(setup_s);
  m["rounds_per_cpu_s"] = median(rps);
  m["round_cpu_ms.p50"] = percentile(ms, 0.5);
  m["round_cpu_ms.p90"] = percentile(ms, 0.9);
  m["cpu_s_to_target"] = median(ttt);
  m["final_train_loss"] = *fin.train_loss;
  m["final_test_acc"] = *fin.test_accuracy;
  m["wire_mb_per_round"] = bytes / rounds * 1e-6;
  m["peak_rss_mb"] = peak_rss_mb();
  m["exchange_ok_ratio"] = 1.0 - failed / selected;
  std::cout << "round_cpu_ms: " << ms.size() << " samples over "
            << episodes.size() << " episodes\nrounds_per_cpu_s by episode:";
  for (const double r : rps) std::cout << " " << r;
  std::cout << "\nwall clock (not a metric): rounds_per_s " << median(wall_rps)
            << ", round_ms p50 " << percentile(wall_ms, 0.5) << " p90 "
            << percentile(wall_ms, 0.9) << "\ncpu_s_to_target by episode:";
  for (const double t : ttt) std::cout << " " << t;
  std::cout << "\ntrain loss by round:";
  for (const fed::RoundMetrics& r : first.history.rounds) {
    if (r.evaluated()) std::cout << " " << r.round << ":" << *r.train_loss;
  }
  std::cout << "\n";
  return m;
}

// Checks a traced episode's decorator readings against its RoundTrace.
void check_traced(const Episode& e, Checks& checks) {
  const LayerReadings& l = *e.layers;
  const std::string nesting = check_span_nesting(e.rounds, l.spans);
  checks.expect(nesting.empty(), "span nesting: " + nesting);

  std::size_t attempts = 0;
  std::uint64_t down = 0, up = 0;
  for (const RoundRecord& r : training_rounds(e)) {
    attempts += r.trace.faults.attempts;
    down += r.trace.bytes_down;
    up += r.trace.bytes_up;
  }
  checks.expect(l.spans.size() == attempts,
                "transport decorator saw " + std::to_string(l.spans.size()) +
                    " attempts, RoundTrace counts " + std::to_string(attempts));
  std::uint64_t span_down = 0, span_up = 0;
  for (const ExchangeSpan& s : l.spans) {
    span_down += s.bytes_down;
    span_up += s.bytes_up;
  }
  checks.expect(span_down == down && span_up == up,
                "transport decorator bytes disagree with the RoundTrace");
}

Metrics per_layer(const std::vector<Episode>& traced,
                  const std::vector<Episode>& plain, std::size_t threads,
                  std::size_t population) {
  Metrics m;
  double rounds = 0, evaluated = 0, sampling = 0, solve_wall = 0,
         aggregate = 0, eval = 0, other = 0, selected = 0, failed = 0,
         partial_bytes = 0;
  double grad_calls = 0, grad_samples = 0, grad_s = 0, eval_s = 0,
         eval_devices = 0, observer_s = 0, exchange_s = 0,
         solve_in_exchange = 0, span_down = 0, span_up = 0, spans = 0;
  std::vector<double> solves;
  for (const Episode& e : traced) {
    const LayerReadings& l = *e.layers;
    for (std::size_t i = 1; i < e.rounds.size(); ++i) {
      const fed::RoundTrace& t = e.rounds[i].trace;
      const double wall = e.rounds[i].end - e.rounds[i - 1].end;
      rounds += 1;
      sampling += t.sampling_seconds;
      solve_wall += t.solve_wall_seconds;
      aggregate += t.aggregate_seconds;
      if (t.evaluated) {
        evaluated += 1;
        eval += t.eval_seconds;
      }
      other += wall - t.sampling_seconds - t.correction_seconds -
               t.solve_wall_seconds - t.aggregate_seconds - t.eval_seconds;
      selected += static_cast<double>(t.selected);
      failed += static_cast<double>(t.faults.failed_devices);
      for (const fed::ShardStat& s : t.shards) {
        partial_bytes += static_cast<double>(s.partial_bytes);
      }
    }
    grad_calls += static_cast<double>(l.grad_calls);
    grad_samples += static_cast<double>(l.grad_samples);
    grad_s += l.grad_s;
    eval_s += l.eval_s;
    // Round 0 evaluates too; every evaluation covers every device.
    std::size_t evals = 0;
    for (const RoundRecord& r : e.rounds) evals += r.trace.evaluated ? 1 : 0;
    eval_devices += static_cast<double>(evals * population);
    observer_s += l.observer_s;
    solves.insert(solves.end(), l.solve_s.begin(), l.solve_s.end());
    for (const ExchangeSpan& s : l.spans) {
      exchange_s += s.end - s.start;
      solve_in_exchange += s.solve_s;
      span_down += static_cast<double>(s.bytes_down);
      span_up += static_cast<double>(s.bytes_up);
    }
    spans += static_cast<double>(l.spans.size());
  }
  const double episodes = static_cast<double>(traced.size());
  const double solve_total = std::accumulate(solves.begin(), solves.end(), 0.0);

  m["core.phase.sampling_ms"] = 1e3 * sampling / rounds;
  m["core.phase.solve_wall_ms"] = 1e3 * solve_wall / rounds;
  m["core.phase.aggregate_ms"] = 1e3 * aggregate / rounds;
  m["core.phase.eval_ms"] = 1e3 * eval / evaluated;
  m["core.phase.other_ms"] = 1e3 * other / rounds;
  m["optim.solve.calls"] = static_cast<double>(solves.size()) / episodes;
  m["optim.solve.ms.p50"] = 1e3 * median(solves);
  m["optim.solve.ms.max"] =
      1e3 * *std::max_element(solves.begin(), solves.end());
  m["optim.solve.busy_s"] = solve_total / episodes;
  m["pool.utilization"] =
      solve_total / (solve_wall * static_cast<double>(threads));
  m["nn.loss_grad.calls"] = grad_calls / episodes;
  m["nn.loss_grad.us_per_sample"] = 1e6 * grad_s / grad_samples;
  m["nn.eval.us_per_device"] = 1e6 * eval_s / eval_devices;
  m["comm.attempts_per_device"] = spans / selected;
  m["comm.overhead_us_per_exchange"] =
      1e6 * (exchange_s - solve_in_exchange) / spans;
  m["comm.bytes_down_per_round"] = span_down / rounds;
  m["comm.bytes_up_per_round"] = span_up / rounds;
  m["comm.failed_ratio"] = failed / selected;
  m["sim.sharded.partial_bytes"] = partial_bytes / rounds;
  m["obs.observer_us_per_round"] = 1e6 * observer_s / rounds;

  std::vector<double> wall_ms, plain_rps, traced_rps;
  for (const Episode& e : plain) {
    const std::vector<double> per_round = round_ms(e);
    wall_ms.insert(wall_ms.end(), per_round.begin(), per_round.end());
    plain_rps.push_back(rounds_per_cpu_s(e));
  }
  for (const Episode& e : traced) traced_rps.push_back(rounds_per_cpu_s(e));
  m["core.round.wall_ms.p50"] = percentile(wall_ms, 0.5);
  m["core.round.wall_ms.p90"] = percentile(wall_ms, 0.9);
  m["obs.trace_overhead_pct"] =
      100.0 * (median(plain_rps) / median(traced_rps) - 1.0);
  return m;
}

// Chrome trace-event JSON of one traced episode: a span per round on the
// round thread and a span per exchange attempt, linked by round id.
void write_spans(const std::string& path, const Episode& e) {
  std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path);
  const double t0 = e.run_start;
  const auto us = [&](double s) {
    return static_cast<long long>(1e6 * (s - t0));
  };
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (const RoundRecord& r : e.rounds) {
    out << (first ? "" : ",\n") << "{\"name\": \"round\", \"ph\": \"X\", "
        << "\"pid\": 1, \"tid\": 0, \"ts\": " << us(r.start)
        << ", \"dur\": " << us(r.end) - us(r.start)
        << ", \"args\": {\"round\": " << r.round << "}}";
    first = false;
  }
  for (const ExchangeSpan& s : e.layers->spans) {
    out << ",\n{\"name\": \"exchange\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": 1, \"ts\": " << us(s.start)
        << ", \"dur\": " << us(s.end) - us(s.start)
        << ", \"args\": {\"round\": " << s.round << ", \"device\": "
        << s.device << ", \"attempt\": " << s.attempt << "}}";
  }
  out << "\n]}\n";
}

int run(int argc, char** argv) {
  const fed::CliFlags flags(argc, argv);
  const std::string workload = flags.get_string("workload", "");
  const std::int64_t seed_arg = flags.get_int("seed", -1);
  const double seconds = flags.get_double("seconds", 20.0);
  const std::int64_t trace_arg = flags.get_int("trace", 0);
  const std::string reference_path =
      flags.get_string("reference", "fedbench/reference.json");
  const std::string manifest_path =
      flags.get_string("manifest", "BENCHMARK.json");
  const std::string run_dir = flags.get_string("run-dir", ".bench_build/run");
  const std::string spans_out = flags.get_string("spans-out", "");
  // A pool of at most 4 workers, never more than the machine has.
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  if (!flags.unused().empty() || !is_workload(workload) || seed_arg < 0 ||
      seconds <= 0.0 || (trace_arg != 0 && trace_arg != 1)) {
    std::cerr << "usage: fedbench --workload {mnist_logreg|shakespeare_lstm} "
                 "--seed N --seconds S --trace {0|1}\n";
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(seed_arg);
  const bool trace = trace_arg == 1;
  fed::set_log_level(fed::LogLevel::kWarn);
  const Reference ref = load_reference(reference_path, workload);
  const std::vector<std::string> manifest_diff =
      manifest_mismatches(fed::load_json_file(manifest_path));
  std::filesystem::remove_all(run_dir);
  std::filesystem::create_directories(run_dir);

  // Set-up: build dataset + model; repeated, reported as the median.
  std::vector<double> setup_s;
  BuiltWorkload built;
  const double setup_start = now_s();
  while (setup_s.size() < 3 ||
         (now_s() - setup_start < 1.0 && setup_s.size() < 50)) {
    built = {};
    const double t = now_s();
    built = build_workload(workload);
    setup_s.push_back(now_s() - t);
  }
  const std::size_t population = built.data.num_clients();

  Checks checks;
  checks.expect(manifest_diff.empty(),
                "BENCHMARK.json disagrees with the metric catalogue: " +
                    (manifest_diff.empty() ? "" : manifest_diff.front()));
  fed::ThreadPool pool(threads);
  const EpisodeSettings settings{.workload = workload, .seed = seed,
                                 .run_dir = run_dir};
  EpisodeSettings spot = settings;
  spot.rounds = workload_shape(workload).spot_rounds;

  // The spot run on the pool doubles as the warm-up.
  const Episode spot_pool = run_episode(spot, built, pool, false);

  // Untraced: one episode per window. Traced: each window runs untraced,
  // then traced, and the two histories must match bit for bit.
  std::vector<Episode> plain, traced;
  const double measure_start = now_s();
  for (std::size_t window = 0;
       now_s() - measure_start < seconds || plain.empty(); ++window) {
    EpisodeSettings s = settings;
    s.window = window;
    Episode e = run_episode(s, built, pool, false);
    checks.expect(cpu_s_to_target(e, ref.target_loss) > 0.0,
                  "window " + std::to_string(window) +
                      ": train loss never reached the target " +
                      std::to_string(ref.target_loss));
    if (trace) {
      Episode t = run_episode(s, built, pool, true, traced.empty() ? 64 : 0);
      checks.expect(same_history(t.history, e.history),
                    "window " + std::to_string(window) +
                        ": traced history differs from the untraced one");
      check_traced(t, checks);
      traced.push_back(std::move(t));
    }
    plain.push_back(std::move(e));
  }

  fed::ThreadPool single(1);
  checks.expect(same_history(run_episode(spot, built, single, false).history,
                             spot_pool.history),
                "1-thread spot run differs from the " +
                    std::to_string(threads) + "-thread one");

  const fed::RoundMetrics& fin = plain.front().history.final_metrics();
  checks.expect(
      *fin.train_loss >= ref.loss_lo && *fin.train_loss <= ref.loss_hi,
      "final train loss " + std::to_string(*fin.train_loss) +
          " outside the reference band");
  checks.expect(
      *fin.test_accuracy >= ref.acc_lo && *fin.test_accuracy <= ref.acc_hi,
      "final test accuracy " + std::to_string(*fin.test_accuracy) +
          " outside the reference band");

  Metrics metrics;
  const std::vector<MetricSpec>* specs = &end_to_end_metrics();
  if (!trace) {
    metrics = end_to_end(plain, setup_s, ref);
  } else {
    specs = &per_layer_metrics();
    metrics = per_layer(traced, plain, threads, population);
    const Episode& first_traced = traced.front();
    ProbeInputs in;
    in.workload = workload;
    in.seed = seed;
    in.devices_per_round = first_traced.config.devices_per_round;
    in.pk = built.data.client_weights();
    in.broadcasts = first_traced.layers->broadcasts;
    in.updates = first_traced.layers->updates;
    in.checkpoint = checkpoint_state(first_traced, population);
    in.run_dir = run_dir;
    checks.expect(!in.broadcasts.empty() && !in.updates.empty(),
                  "the transport decorator captured no frames to replay");
    if (!in.broadcasts.empty() && !in.updates.empty()) {
      ProbeResult probes = run_probes(in);
      metrics.merge(probes.metrics);
      checks.attempted += probes.checks;
      for (std::string& f : probes.failures) {
        checks.failures.push_back(std::move(f));
      }
    }
    metrics["data.build_s"] = time_data_build(workload);
    if (!spans_out.empty()) write_spans(spans_out, first_traced);
  }
  // The episodes and the two spot runs are operations in their own right.
  checks.attempted += plain.size() + traced.size() + 2;
  for (const std::string& name : missing_metrics(metrics, *specs)) {
    checks.expect(false, "metric " + name + " was not measured");
  }
  std::filesystem::remove_all(run_dir);

  std::cout << workload << " seed " << seed << (trace ? " traced" : "")
            << ": " << plain.size() << " untraced + " << traced.size()
            << " traced episodes\n";
  for (const MetricSpec& spec : *specs) {
    const auto it = metrics.find(spec.name);
    if (it != metrics.end()) {
      std::cout << "  " << spec.name << " = " << it->second << " " << spec.unit
                << "\n";
    }
  }
  for (const std::string& f : checks.failures) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
  const bool correct = checks.failures.empty();
  std::cout << result_line(correct, checks.attempted, checks.failures.size(),
                           metrics, *specs)
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "fedbench: " << e.what() << "\n";
    return 2;
  }
}
