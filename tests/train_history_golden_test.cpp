// Golden hashes of whole training runs: every RoundMetrics field (and
// which optionals are engaged) plus the final parameters, over the
// algorithm, sampling, mu-policy, fault, churn, shard and resume matrix,
// and one golden over the JSONL trace lines with their timing fields
// zeroed. The other determinism suites compare two runs of the current
// code with each other; these pin the current code against its own past,
// so a refactor of the round path that changes any bit fails here.

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <string>

#include "core/checkpoint.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "support/json.h"
#include "support/log.h"
#include "test_util.h"

namespace fed {
namespace {

class TrainHistoryGolden : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  static const FederatedDataset& data() {
    static const FederatedDataset d = [] {
      SyntheticConfig c = synthetic_config(0.5, 0.5, 41);
      c.num_devices = 14;
      c.min_samples = 15;
      c.mean_log = 2.5;
      c.sigma_log = 0.5;
      return make_synthetic(c);
    }();
    return d;
  }

  static TrainerConfig base(TrainerConfig c) {
    c.rounds = 10;
    c.devices_per_round = 4;
    c.systems.epochs = 3;
    c.systems.straggler_fraction = 0.5;
    c.learning_rate = 0.03;
    c.seed = 41;
    c.eval_every = 5;
    c.threads = 2;
    return c;
  }

  static TrainerConfig faulty(TrainerConfig c) {
    c.faults.drop = 0.1;
    c.faults.corrupt = 0.05;
    c.faults.duplicate = 0.1;
    c.faults.delay_ms = 40.0;
    c.recovery.quorum = 0.6;
    return c;
  }

  static TrainerConfig churning(TrainerConfig c) {
    c.churn.arrive = 0.15;
    c.churn.depart = 0.15;
    return c;
  }

  static std::uint64_t hash(const TrainHistory& history) {
    std::uint64_t h = testing::bit_hash({});
    const auto mix = [&h](double value) {
      h = testing::bit_hash(std::span(&value, 1), h);
    };
    const auto mix_optional = [&mix](const std::optional<double>& value) {
      mix(value ? 1.0 : 0.0);
      if (value) mix(*value);
    };
    for (const RoundMetrics& m : history.rounds) {
      mix(static_cast<double>(m.round));
      mix_optional(m.train_loss);
      mix_optional(m.train_accuracy);
      mix_optional(m.test_accuracy);
      mix_optional(m.grad_variance);
      mix_optional(m.dissimilarity_b);
      mix(m.mu);
      mix_optional(m.mean_gamma);
      mix(static_cast<double>(m.contributors));
      mix(static_cast<double>(m.stragglers));
    }
    return testing::bit_hash(history.final_parameters, h);
  }

  static std::uint64_t run(const TrainerConfig& c) {
    LogisticRegression model(data().input_dim, data().num_classes);
    return hash(Trainer(model, data(), c).run());
  }
};

TEST_F(TrainHistoryGolden, FedAvgUniform) {
  EXPECT_EQ(run(base(fedavg_config())), 0xe7be8ead7c2dc73dull);
}

TEST_F(TrainHistoryGolden, FedProxUniformWithGamma) {
  TrainerConfig c = base(fedprox_config(0.5));
  c.measure_gamma = true;
  EXPECT_EQ(run(c), 0x66a84efe62fc2715ull);
}

TEST_F(TrainHistoryGolden, FedDaneUniform) {
  EXPECT_EQ(run(base(feddane_config(0.5))), 0xa82118a11121d281ull);
}

TEST_F(TrainHistoryGolden, FedProxWeighted) {
  TrainerConfig c = base(fedprox_config(0.5));
  c.sampling = SamplingScheme::kWeightedThenSimpleAverage;
  EXPECT_EQ(run(c), 0x73972252f5746c7bull);
}

TEST_F(TrainHistoryGolden, AdaptiveMu) {
  TrainerConfig c = base(fedprox_config(0.0));
  c.adaptive_mu.enabled = true;
  c.adaptive_mu.initial_mu = 0.5;
  c.adaptive_mu.patience = 2;
  c.eval_every = 1;
  EXPECT_EQ(run(c), 0xe8b95512ebd2d12cull);
}

TEST_F(TrainHistoryGolden, TheoryMuEvalEvery3) {
  TrainerConfig c = base(fedprox_config(0.0));
  c.theory_mu.enabled = true;
  c.eval_every = 3;
  EXPECT_EQ(run(c), 0x989379480d712a0full);
}

TEST_F(TrainHistoryGolden, FaultsWithQuorum) {
  EXPECT_EQ(run(faulty(base(fedprox_config(0.5)))), 0xfc2d133a8e9dac89ull);
}

TEST_F(TrainHistoryGolden, Churn) {
  EXPECT_EQ(run(churning(base(fedprox_config(0.5)))), 0xf6bf269192e91174ull);
}

TEST_F(TrainHistoryGolden, ThreeShards) {
  TrainerConfig c = base(fedprox_config(0.5));
  c.shards = 3;
  EXPECT_EQ(run(c), 0x14faba88482365eeull);
}

// Crash mid-run, resume from the newest checkpoint: the combined history
// hashes like the uninterrupted run of the same config.
TEST_F(TrainHistoryGolden, CheckpointResumeSplit) {
  TrainerConfig c = churning(faulty(base(fedprox_config(0.0))));
  c.adaptive_mu.enabled = true;
  c.adaptive_mu.initial_mu = 0.5;
  c.adaptive_mu.patience = 2;
  c.eval_every = 2;
  const std::uint64_t uninterrupted = run(c);

  testing::ScopedTempDir dir;
  c.checkpoint.dir = dir.path();
  c.checkpoint.every = 3;
  c.crash.at_round = 8;
  LogisticRegression model(data().input_dim, data().num_classes);
  EXPECT_THROW(Trainer(model, data(), c).run(), ServerCrashed);
  const auto newest = latest_checkpoint(dir.path());
  ASSERT_TRUE(newest.has_value());
  c.crash = {};
  const std::uint64_t resumed =
      hash(Trainer(model, data(), c).resume(*newest));
  EXPECT_EQ(resumed, uninterrupted);
  EXPECT_EQ(resumed, 0xe5ed38ff422c60feull);
}

// The JSONL trace lines, wall-time fields zeroed: every count, byte,
// shard, fault, churn and checkpoint column of every round.
TEST_F(TrainHistoryGolden, TraceJsonLines) {
  TrainerConfig c = churning(faulty(base(feddane_config(0.5))));
  c.shards = 3;
  testing::ScopedTempDir dir;
  c.checkpoint.dir = dir.path();
  c.checkpoint.every = 4;
  LogisticRegression model(data().input_dim, data().num_classes);
  Trainer trainer(model, data(), c);
  TraceCollector collector;
  trainer.add_observer(collector);
  trainer.run();

  std::uint64_t h = 14695981039346656037ull;
  for (RoundTrace trace : collector.traces()) {
    trace.sampling_seconds = 0.0;
    trace.correction_seconds = 0.0;
    trace.solve.total_seconds = 0.0;
    trace.solve.min_seconds = 0.0;
    trace.solve.mean_seconds = 0.0;
    trace.solve.max_seconds = 0.0;
    trace.solve_wall_seconds = 0.0;
    trace.aggregate_seconds = 0.0;
    trace.eval_seconds = 0.0;
    trace.round_seconds = 0.0;
    trace.checkpoint.write_seconds = 0.0;
    for (const char ch : serialize_json(trace_to_json(trace)) + "\n") {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ull;
    }
  }
  EXPECT_EQ(collector.traces().size(), c.rounds + 1);
  EXPECT_EQ(h, 0x8139f07db02855a2ull);
}

}  // namespace
}  // namespace fed
