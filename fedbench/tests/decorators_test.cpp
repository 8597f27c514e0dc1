// Tests for the benchmark's own instruments: the timing decorators must
// not change what training computes, the spans they record must nest
// and name their round and device, and every metric name the benchmark
// can emit must be well-formed and listed in BENCHMARK.json.
//
//   cmake -S fedbench -B build-fedbench -DFEDBENCH_TESTS=ON
//   cmake --build build-fedbench -j 4 && ctest --test-dir build-fedbench

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "catalog.h"
#include "episode.h"
#include "probes.h"
#include "workloads.h"

namespace fedbench {
namespace {

class DecoratorTest : public ::testing::TestWithParam<std::string> {
 protected:
  EpisodeSettings settings() const {
    EpisodeSettings s;
    s.workload = GetParam();
    s.seed = 3;
    s.run_dir = (std::filesystem::temp_directory_path() /
                 ("fedbench-test-" + GetParam()))
                    .string();
    s.rounds = 4;
    return s;
  }
  void TearDown() override { std::filesystem::remove_all(settings().run_dir); }
};

TEST_P(DecoratorTest, TracedHistoryIsBitIdentical) {
  const BuiltWorkload built = build_workload(GetParam());
  fed::ThreadPool pool(4);
  const Episode plain = run_episode(settings(), built, pool, false);
  const Episode traced = run_episode(settings(), built, pool, true, 8);
  EXPECT_TRUE(same_history(plain.history, traced.history));
  ASSERT_TRUE(traced.layers.has_value());
  EXPECT_GT(traced.layers->grad_calls, 0u);
  EXPECT_FALSE(traced.layers->solve_s.empty());
  // The telemetry ran inside the observer wrapper and wrote its trace.
  EXPECT_GT(traced.layers->observer_s, 0.0);
  EXPECT_TRUE(std::filesystem::exists(settings().run_dir + "/trace.jsonl"));
}

TEST_P(DecoratorTest, ExchangeSpansNestInTheirRounds) {
  const BuiltWorkload built = build_workload(GetParam());
  fed::ThreadPool pool(4);
  const Episode traced = run_episode(settings(), built, pool, true);
  const std::vector<ExchangeSpan>& spans = traced.layers->spans;
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(check_span_nesting(traced.rounds, spans), "");
  std::set<std::size_t> rounds;
  for (const ExchangeSpan& s : spans) rounds.insert(s.round);
  EXPECT_EQ(rounds.size(), settings().rounds);  // every training round
  EXPECT_EQ(*rounds.begin(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, DecoratorTest,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) { return info.param; });

TEST(SpanNesting, ReportsASpanOutsideItsRound) {
  RoundRecord round;
  round.round = 1;
  round.start = 1.0;
  round.end = 2.0;
  round.selected = {7};
  const std::vector<RoundRecord> rounds = {RoundRecord{}, round};
  const ExchangeSpan inside{.round = 1, .device = 7, .start = 1.1, .end = 1.9};
  EXPECT_EQ(check_span_nesting(rounds, std::vector{inside}), "");
  ExchangeSpan late = inside;
  late.end = 2.5;
  EXPECT_NE(check_span_nesting(rounds, std::vector{late}), "");
  ExchangeSpan stranger = inside;
  stranger.device = 8;
  EXPECT_NE(check_span_nesting(rounds, std::vector{stranger}), "");
  ExchangeSpan orphan = inside;
  orphan.round = 2;
  EXPECT_NE(check_span_nesting(rounds, std::vector{orphan}), "");
}

TEST(MetricNames, CatalogueNamesAreWellFormedAndUnique) {
  std::set<std::string> seen;
  for (const auto* specs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& spec : *specs) {
      EXPECT_TRUE(valid_metric_name(spec.name)) << spec.name;
      EXPECT_TRUE(seen.insert(spec.name).second) << spec.name;
    }
  }
  EXPECT_FALSE(valid_metric_name("codec.fpb1 encode"));
  EXPECT_FALSE(valid_metric_name(".leading_dot"));
  EXPECT_FALSE(valid_metric_name("pool/utilization"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricNames, CatalogueMatchesBenchmarkJson) {
  // ctest runs from the repository root, where BENCHMARK.json lives.
  const fed::JsonValue manifest = fed::load_json_file("BENCHMARK.json");
  EXPECT_EQ(manifest_mismatches(manifest), std::vector<std::string>{});

  fed::JsonValue renamed = manifest;
  renamed.as_object()["per_layer"].as_array()[0].as_object()["name"] =
      fed::JsonValue(std::string("core.phase.renamed_ms"));
  EXPECT_EQ(manifest_mismatches(renamed).size(), 1u);
}

TEST(MetricNames, ProbesEmitOnlyCataloguedNames) {
  const BuiltWorkload built = build_workload("shakespeare_lstm");
  fed::ThreadPool pool(2);
  EpisodeSettings s;
  s.workload = "shakespeare_lstm";
  s.seed = 3;
  s.rounds = 2;
  s.run_dir = (std::filesystem::temp_directory_path() / "fedbench-probes")
                  .string();
  const Episode traced = run_episode(s, built, pool, true, 4);
  ProbeInputs in;
  in.workload = s.workload;
  in.seed = s.seed;
  in.devices_per_round = traced.config.devices_per_round;
  in.pk = built.data.client_weights();
  in.broadcasts = traced.layers->broadcasts;
  in.updates = traced.layers->updates;
  in.checkpoint = checkpoint_state(traced, built.data.num_clients());
  in.run_dir = s.run_dir;
  const ProbeResult result = run_probes(in);
  std::filesystem::remove_all(in.run_dir);
  EXPECT_TRUE(result.failures.empty());
  std::set<std::string> catalogued;
  for (const MetricSpec& spec : per_layer_metrics()) {
    catalogued.insert(spec.name);
  }
  for (const auto& [name, value] : result.metrics) {
    EXPECT_TRUE(valid_metric_name(name)) << name;
    EXPECT_TRUE(catalogued.contains(name)) << name;
    EXPECT_GT(value, 0.0) << name;
  }
}

}  // namespace
}  // namespace fedbench
