#include "catalog.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

namespace fedbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"rounds_per_cpu_s", "1/s"},
      {"round_cpu_ms.p50", "ms"},
      {"round_cpu_ms.p90", "ms"},
      {"cpu_s_to_target", "s"},
      {"final_train_loss", "nats"},
      {"final_test_acc", "fraction"},
      {"wire_mb_per_round", "MB"},
      {"peak_rss_mb", "MB"},
      {"exchange_ok_ratio", "fraction"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"core.round.wall_ms.p50", "ms"},
      {"core.round.wall_ms.p90", "ms"},
      {"core.phase.sampling_ms", "ms"},
      {"core.phase.solve_wall_ms", "ms"},
      {"core.phase.aggregate_ms", "ms"},
      {"core.phase.eval_ms", "ms"},
      {"core.phase.other_ms", "ms"},
      {"core.checkpoint.write_ms", "ms"},
      {"core.checkpoint.bytes", "bytes"},
      {"optim.solve.calls", "count"},
      {"optim.solve.ms.p50", "ms"},
      {"optim.solve.ms.max", "ms"},
      {"optim.solve.busy_s", "s"},
      {"pool.utilization", "fraction"},
      {"nn.loss_grad.calls", "count"},
      {"nn.loss_grad.us_per_sample", "us"},
      {"nn.eval.us_per_device", "us"},
      {"comm.attempts_per_device", "count"},
      {"comm.overhead_us_per_exchange", "us"},
      {"comm.bytes_down_per_round", "bytes"},
      {"comm.bytes_up_per_round", "bytes"},
      {"comm.failed_ratio", "fraction"},
      {"codec.fpb1.encode_mb_s", "MB/s"},
      {"codec.fpb1.decode_mb_s", "MB/s"},
      {"codec.fpu1.encode_mb_s", "MB/s"},
      {"codec.fpu1.decode_mb_s", "MB/s"},
      {"codec.fps1.encode_mb_s", "MB/s"},
      {"codec.fps1.decode_mb_s", "MB/s"},
      {"codec.fpc1.encode_mb_s", "MB/s"},
      {"codec.fpc1.decode_mb_s", "MB/s"},
      {"sim.sampling.select_us", "us"},
      {"sim.sampling.select_us_1m", "us"},
      {"sim.churn.begin_round_us", "us"},
      {"sim.aggregate.ns_per_coord", "ns"},
      {"sim.sharded.partial_bytes", "bytes"},
      {"tensor.gemv.gflops", "GFLOP/s"},
      {"tensor.gemm.gflops", "GFLOP/s"},
      {"tensor.exact_sum.ns_per_add", "ns"},
      {"data.build_s", "s"},
      {"obs.observer_us_per_round", "us"},
      {"obs.trace_overhead_pct", "%"},
  };
  return specs;
}

std::vector<std::string> manifest_mismatches(const fed::JsonValue& manifest) {
  std::vector<std::string> out;
  const auto compare = [&](const char* key,
                           const std::vector<MetricSpec>& specs) {
    const fed::JsonArray& listed = manifest.at(key).as_array();
    if (listed.size() != specs.size()) {
      out.push_back(std::string(key) + ": BENCHMARK.json lists " +
                    std::to_string(listed.size()) + " metrics, fedbench " +
                    std::to_string(specs.size()));
    }
    for (std::size_t i = 0; i < std::min(listed.size(), specs.size()); ++i) {
      const std::string& name = listed[i].at("name").as_string();
      const std::string& unit = listed[i].at("unit").as_string();
      if (name != specs[i].name || unit != specs[i].unit) {
        out.push_back(std::string(key) + "[" + std::to_string(i) + "]: " +
                      name + " (" + unit + ") in BENCHMARK.json, " +
                      specs[i].name + " (" + specs[i].unit + ") in fedbench");
      }
    }
  };
  compare("end_to_end", end_to_end_metrics());
  compare("per_layer", per_layer_metrics());
  return out;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

std::vector<std::string> missing_metrics(const Metrics& values,
                                         const std::vector<MetricSpec>& specs) {
  std::vector<std::string> missing;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      missing.push_back(spec.name);
    }
  }
  return missing;
}

std::string result_line(bool correct, std::size_t attempted,
                        std::size_t failed, const Metrics& values,
                        const std::vector<MetricSpec>& specs) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    if (it == values.end() || !std::isfinite(it->second)) continue;
    out << (first ? "" : ", ") << '"' << spec.name << "\": {\"value\": "
        << it->second << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace fedbench
