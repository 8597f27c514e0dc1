// Tests for the theory-guided mu controller (mu ~ B^2 - 1, Corollary 7)
// and its integration with the Trainer, plus checkpoint/resume
// bit-exactness (which relies on the same round-keyed determinism).

#include <gtest/gtest.h>

#include <cmath>

#include "core/adaptive_mu.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/logistic.h"
#include "support/log.h"
#include "support/serialize.h"
#include "test_util.h"

namespace fed {
namespace {

TEST(DissimilarityMuTest, IidMapsToZeroMu) {
  DissimilarityMu controller(0.1);
  EXPECT_DOUBLE_EQ(controller.update(1.0), 0.0);  // B = 1: no penalty
}

TEST(DissimilarityMuTest, MuScalesWithBSquared) {
  DissimilarityMu controller(0.5, /*max_mu=*/100.0, /*smoothing=*/0.0);
  EXPECT_DOUBLE_EQ(controller.update(2.0), 0.5 * (4.0 - 1.0));
  EXPECT_DOUBLE_EQ(controller.update(3.0), 0.5 * (9.0 - 1.0));
}

TEST(DissimilarityMuTest, ClampedAtMaxMu) {
  DissimilarityMu controller(1.0, /*max_mu=*/2.0, /*smoothing=*/0.0);
  EXPECT_DOUBLE_EQ(controller.update(100.0), 2.0);
}

TEST(DissimilarityMuTest, SmoothingAveragesEstimates) {
  DissimilarityMu controller(1.0, 100.0, /*smoothing=*/0.5);
  controller.update(1.0);  // ema = 1
  // ema = 0.5*1 + 0.5*9 = 5 -> mu = 4.
  EXPECT_DOUBLE_EQ(controller.update(3.0), 4.0);
}

TEST(DissimilarityMuTest, BBelowOneFloorsAtZero) {
  DissimilarityMu controller(1.0, 10.0, 0.0);
  EXPECT_DOUBLE_EQ(controller.update(0.5), 0.0);
}

TEST(DissimilarityMuTest, RejectsBadInput) {
  EXPECT_THROW(DissimilarityMu(0.0), std::invalid_argument);
  EXPECT_THROW(DissimilarityMu(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(DissimilarityMu(1.0, 1.0, 1.0), std::invalid_argument);
  DissimilarityMu ok(1.0);
  EXPECT_THROW(ok.update(-1.0), std::invalid_argument);
  EXPECT_THROW(ok.update(std::nan("")), std::invalid_argument);
}

class TheoryMuTrainerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  static const FederatedDataset& data() {
    static const FederatedDataset d = [] {
      SyntheticConfig c = synthetic_config(1.0, 1.0, 13);
      c.num_devices = 12;
      c.min_samples = 20;
      c.mean_log = 3.0;
      c.sigma_log = 0.5;
      return make_synthetic(c);
    }();
    return d;
  }
};

TEST_F(TheoryMuTrainerTest, TheoryPolicyRaisesMuOnHeterogeneousData) {
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig c;
  c.rounds = 10;
  c.devices_per_round = 5;
  c.systems.epochs = 5;
  c.learning_rate = 0.03;
  c.seed = 13;
  c.theory_mu.enabled = true;
  c.theory_mu.coefficient = 0.05;
  auto h = Trainer(model, data(), c).run();
  // The controller must have measured B > 1 and produced a positive mu.
  bool positive_mu = false;
  for (const auto& m : h.rounds) {
    if (m.mu > 0.0) positive_mu = true;
    if (m.evaluated()) {
      EXPECT_TRUE(m.dissimilarity_b.has_value());
    }
  }
  EXPECT_TRUE(positive_mu);
}

TEST_F(TheoryMuTrainerTest, MutuallyExclusiveWithAdaptive) {
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig c;
  c.rounds = 2;
  c.devices_per_round = 2;
  c.adaptive_mu.enabled = true;
  c.theory_mu.enabled = true;
  EXPECT_THROW(Trainer(model, data(), c), std::invalid_argument);
}

TEST_F(TheoryMuTrainerTest, CheckpointResumeIsBitExact) {
  LogisticRegression model(data().input_dim, data().num_classes);
  auto base = [&] {
    TrainerConfig c;
    c.mu = 0.5;
    c.devices_per_round = 5;
    c.systems.epochs = 5;
    c.systems.straggler_fraction = 0.5;
    c.learning_rate = 0.03;
    c.seed = 13;
    c.eval_every = 100;
    return c;
  };
  TrainerConfig whole = base();
  whole.rounds = 12;
  const auto reference = Trainer(model, data(), whole).run();

  TrainerConfig first = base();
  first.rounds = 7;
  const auto part1 = Trainer(model, data(), first).run();

  const testing::ScopedTempDir tmp;
  save_checkpoint(tmp.file("ckpt.bin"), part1.final_parameters);
  TrainerConfig second = base();
  second.rounds = 5;
  second.first_round = 7;
  second.initial_parameters =
      load_checkpoint(tmp.file("ckpt.bin"));
  const auto part2 = Trainer(model, data(), second).run();

  EXPECT_EQ(reference.final_parameters, part2.final_parameters);
}

TEST_F(TheoryMuTrainerTest, WarmStartDimensionValidated) {
  LogisticRegression model(data().input_dim, data().num_classes);
  TrainerConfig c;
  c.rounds = 1;
  c.devices_per_round = 2;
  c.initial_parameters = Vector{1.0, 2.0};  // wrong dimension
  EXPECT_THROW(Trainer(model, data(), c).run(), std::invalid_argument);
}

}  // namespace
}  // namespace fed
