#include "nn/lstm.h"

#include <gtest/gtest.h>

#include "nn/grad_check.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace fed {
namespace {

LstmConfig tiny_config(std::size_t layers, bool trainable) {
  LstmConfig c;
  c.vocab_size = 7;
  c.embed_dim = 3;
  c.hidden_dim = 4;
  c.num_layers = layers;
  c.num_classes = 3;
  c.trainable_embedding = trainable;
  if (!trainable) {
    c.frozen_embedding = std::make_shared<EmbeddingTable>(7, 3, /*seed=*/9);
  }
  return c;
}

TEST(LstmModel, ParameterCountTrainableEmbedding) {
  LstmClassifier model(tiny_config(2, true));
  const std::size_t h = 4, e = 3, v = 7, c = 3;
  const std::size_t layer0 = 4 * h * e + 4 * h * h + 4 * h;
  const std::size_t layer1 = 4 * h * h + 4 * h * h + 4 * h;
  EXPECT_EQ(model.parameter_count(), v * e + layer0 + layer1 + c * h + c);
}

TEST(LstmModel, ParameterCountFrozenEmbedding) {
  LstmClassifier trainable(tiny_config(1, true));
  LstmClassifier frozen(tiny_config(1, false));
  EXPECT_EQ(trainable.parameter_count() - frozen.parameter_count(), 7u * 3u);
}

class LstmGradCheck
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool,
                                                 std::size_t>> {};

TEST_P(LstmGradCheck, AnalyticMatchesNumeric) {
  const auto [layers, trainable, seq_len] = GetParam();
  LstmClassifier model(tiny_config(layers, trainable));
  Rng gen = make_stream(21, StreamKind::kTest, layers, seq_len);
  Dataset data = testing::make_random_sequences(3, seq_len, 7, 3, gen);
  Vector w(model.parameter_count());
  model.init_parameters(w, gen);
  const auto batch = full_batch(3);
  // Probe a subset of coordinates: full probing of every weight is slow
  // and redundant — the probe set includes the largest-gradient entries.
  const auto result = check_gradients(model, w, data, batch, 1e-5, 160);
  EXPECT_TRUE(result.passed(1e-5))
      << "max rel err " << result.max_relative_error << " at index "
      << result.worst_index << " (analytic " << result.analytic_at_worst
      << " numeric " << result.numeric_at_worst << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LstmGradCheck,
    ::testing::Values(std::make_tuple(1, true, 1),
                      std::make_tuple(1, true, 5),
                      std::make_tuple(2, true, 4),
                      std::make_tuple(1, false, 5),
                      std::make_tuple(2, false, 6)));

// Golden bit patterns: the loss, gradient, eval loss and predictions of
// fixed models on a fixed dataset, hashed bit for bit. Sequence lengths
// come in runs of 1 to 6 equal lengths, so batched kernels see full and
// partial lane groups and every change of length. Odd embed, hidden and
// class sizes exercise the kernels' remainder paths. The expected values
// were produced by the one-sequence-at-a-time implementation and are
// never edited: a kernel change must reproduce it exactly.
struct LstmGolden {
  std::size_t layers;
  bool trainable;
  std::size_t batch;
  std::uint64_t loss_and_grad;
  std::uint64_t loss;
  std::uint64_t predict;
};

class LstmGoldenTest : public ::testing::TestWithParam<LstmGolden> {};

TEST_P(LstmGoldenTest, BitsMatchReference) {
  const LstmGolden& g = GetParam();
  LstmConfig config;
  config.vocab_size = 9;
  config.embed_dim = 3;
  config.hidden_dim = 5;
  config.num_layers = g.layers;
  config.num_classes = 6;
  config.trainable_embedding = g.trainable;
  if (!g.trainable) {
    config.frozen_embedding = std::make_shared<EmbeddingTable>(9, 3, 17);
  }
  LstmClassifier model(config);
  constexpr std::size_t kLengths[] = {4, 4, 4, 4, 4, 4, 2, 7, 7, 1, 3, 3, 3};
  Rng gen = make_stream(31, StreamKind::kTest, g.layers, g.trainable ? 1 : 0);
  Dataset data;
  for (std::size_t i = 0; i < 37; ++i) {
    std::vector<std::int32_t> seq(kLengths[i % std::size(kLengths)]);
    for (auto& t : seq) t = static_cast<std::int32_t>(gen.uniform_int(9));
    data.tokens.push_back(std::move(seq));
    data.labels.push_back(static_cast<std::int32_t>(gen.uniform_int(6)));
  }
  Vector w(model.parameter_count()), grad(w.size(), 7.0);
  model.init_parameters(w, gen);
  const auto batch = full_batch(g.batch);

  const double value = model.loss_and_grad(w, data, batch, grad);
  const std::uint64_t grad_hash =
      testing::bit_hash(grad, testing::bit_hash(std::span(&value, 1)));
  const double eval = model.loss(w, data, batch);
  std::vector<std::int32_t> predicted;
  model.predict(w, data, batch, predicted);
  Vector classes(predicted.begin(), predicted.end());
  EXPECT_EQ(grad_hash, g.loss_and_grad) << std::hex << grad_hash;
  EXPECT_EQ(testing::bit_hash(std::span(&eval, 1)), g.loss)
      << std::hex << testing::bit_hash(std::span(&eval, 1));
  EXPECT_EQ(testing::bit_hash(classes), g.predict)
      << std::hex << testing::bit_hash(classes);
}

INSTANTIATE_TEST_SUITE_P(
    Reference, LstmGoldenTest,
    ::testing::Values(
        LstmGolden{1, true, 1, 0xad6c1e1b52b556cbull, 0x197983522ffd867aull,
                   0xa884403227e0e751ull},
        LstmGolden{1, true, 3, 0xbe6e58e52567885cull, 0x248e299cc3422c2full,
                   0xd685aa83ee5187dull},
        LstmGolden{1, true, 4, 0x24c34bb2cccfbc44ull, 0x60abeaffffd44a10ull,
                   0xf674741a1366d025ull},
        LstmGolden{1, true, 5, 0xe6b05663cd0b7380ull, 0xcbf87b7491df0ac8ull,
                   0xc1dc662fcdfda3dull},
        LstmGolden{1, true, 10, 0xeaa36b0af03e8807ull, 0xee4658b8e0c95a11ull,
                   0x229b95bafc16178dull},
        LstmGolden{1, true, 37, 0x3adee98fe81949a8ull, 0x836744c154ae2af6ull,
                   0x1aee8a3c54dbdabdull},
        LstmGolden{1, false, 1, 0xfca1682376fd719eull, 0xe73d57d401c086feull,
                   0xa8c83832281aa685ull},
        LstmGolden{1, false, 3, 0x31e93764811780e1ull, 0xb042b98a23280f26ull,
                   0x4d2a7d3b429cdec5ull},
        LstmGolden{1, false, 4, 0x9723d776b5ee842aull, 0x57e5be41b65062bfull,
                   0x60901ef99a71235dull},
        LstmGolden{1, false, 5, 0xe2226c20a0388964ull, 0xc5c15fc6906b5dcbull,
                   0x95e1891842a1ddbdull},
        LstmGolden{1, false, 10, 0xfd19788c3a867736ull, 0x90a9f77cbcdcaf5eull,
                   0xd35758f9419c5808ull},
        LstmGolden{1, false, 37, 0x65ca723b66f6d924ull, 0x472683cc79d38617ull,
                   0xbfc8b3c6e82e5f21ull},
        LstmGolden{2, true, 1, 0xec647eab7aa92504ull, 0x35d5df7426aa6231ull,
                   0xa8ad083228038d3dull},
        LstmGolden{2, true, 3, 0xdc3d31941d775e30ull, 0xd35f0cab788417c1ull,
                   0x52dfb54d3f7d7135ull},
        LstmGolden{2, true, 4, 0xcc03dcc0dd9db7ccull, 0xc4737cc8caff525bull,
                   0x21199eb532c00948ull},
        LstmGolden{2, true, 5, 0xc0df36a865154665ull, 0x13e2ccc0bf0ae888ull,
                   0x7bd1233487d5c818ull},
        LstmGolden{2, true, 10, 0x664a142874e03bc7ull, 0xb47d9761ce46e23ull,
                   0x131de6a8aea33430ull},
        LstmGolden{2, true, 37, 0x930107b46df47238ull, 0x9502dccf642b23e0ull,
                   0x43a6c4342f396111ull},
        LstmGolden{2, false, 1, 0xd20636e27c796cfbull, 0x3434158e63a53182ull,
                   0xaab1693229ba1db8ull},
        LstmGolden{2, false, 3, 0x7b9620773d8c51caull, 0xd3c68ebfdc669c2dull,
                   0xe2d5ae79fc4e9a70ull},
        LstmGolden{2, false, 4, 0xf89f3249f9852e28ull, 0xe1ce0619a07e1902ull,
                   0x93b2be02cd2882a0ull},
        LstmGolden{2, false, 5, 0x720345780011497eull, 0xcd1dfc53b305b1bull,
                   0x39cf23365b5aa9e0ull},
        LstmGolden{2, false, 10, 0xc4b346344e8dbfcbull, 0xa5807bd035bd30d2ull,
                   0x4a49511b1fdb85f8ull},
        LstmGolden{2, false, 37, 0x3bfca53440895f07ull, 0x7d95a940d7a1b5beull,
                   0x1bd2105b4a445c45ull}),
    [](const ::testing::TestParamInfo<LstmGolden>& param_info) {
      const LstmGolden& g = param_info.param;
      return "L" + std::to_string(g.layers) +
             (g.trainable ? "_trainable_B" : "_frozen_B") +
             std::to_string(g.batch);
    });

TEST(LstmModel, ForgetBiasInitialized) {
  LstmConfig config = tiny_config(1, false);
  config.forget_bias = 1.0;
  LstmClassifier model(config);
  Vector w(model.parameter_count());
  Rng rng = make_stream(22, StreamKind::kTest);
  model.init_parameters(w, rng);
  // Layer 0 biases start after Wx (4h x e) and Wh (4h x h).
  const std::size_t h = 4;
  const std::size_t bias_off = 4 * h * 3 + 4 * h * h;
  // Forget-gate block is the second quarter of the bias vector.
  for (std::size_t j = 0; j < h; ++j) {
    EXPECT_DOUBLE_EQ(w[bias_off + h + j], 1.0);   // forget
    EXPECT_DOUBLE_EQ(w[bias_off + j], 0.0);       // input
  }
}

TEST(LstmModel, LearnsLastTokenRule) {
  // Task: the label equals the last token's class bucket — learnable by
  // an LSTM reading the sequence.
  LstmConfig config;
  config.vocab_size = 6;
  config.embed_dim = 4;
  config.hidden_dim = 8;
  config.num_layers = 1;
  config.num_classes = 3;
  config.trainable_embedding = true;
  LstmClassifier model(config);

  Rng gen = make_stream(23, StreamKind::kTest);
  Dataset data;
  for (std::size_t i = 0; i < 90; ++i) {
    std::vector<std::int32_t> seq(4);
    for (auto& t : seq) t = static_cast<std::int32_t>(gen.uniform_int(6));
    data.labels.push_back(seq.back() / 2);  // buckets {0,1},{2,3},{4,5}
    data.tokens.push_back(std::move(seq));
  }
  Vector w(model.parameter_count()), grad(w.size());
  model.init_parameters(w, gen);
  const double initial = model.dataset_loss(w, data);
  for (int step = 0; step < 150; ++step) {
    model.dataset_loss_and_grad(w, data, grad);
    axpy(-0.5, grad, w);
  }
  EXPECT_LT(model.dataset_loss(w, data), initial);
  EXPECT_GT(model.accuracy(w, data), 0.9);
}

TEST(LstmModel, RejectsEmptySequence) {
  LstmClassifier model(tiny_config(1, true));
  Dataset data;
  data.tokens = {{}};
  data.labels = {0};
  Vector w(model.parameter_count(), 0.0), grad(w.size());
  const std::vector<std::size_t> batch{0};
  EXPECT_THROW(model.loss_and_grad(w, data, batch, grad),
               std::invalid_argument);
}

TEST(LstmModel, RejectsOutOfRangeToken) {
  LstmClassifier model(tiny_config(1, true));
  Dataset data;
  data.tokens = {{99}};
  data.labels = {0};
  Vector w(model.parameter_count(), 0.0);
  const std::vector<std::size_t> batch{0};
  EXPECT_THROW(model.loss(w, data, batch), std::out_of_range);
}

TEST(LstmModel, RejectsBadConfig) {
  LstmConfig config = tiny_config(1, false);
  config.frozen_embedding.reset();
  EXPECT_THROW(LstmClassifier{config}, std::invalid_argument);
  LstmConfig mismatch = tiny_config(1, false);
  mismatch.frozen_embedding = std::make_shared<EmbeddingTable>(7, 5, 1);
  EXPECT_THROW(LstmClassifier{mismatch}, std::invalid_argument);
}

TEST(EmbeddingTableTest, DeterministicAndBounded) {
  EmbeddingTable a(10, 4, 5), b(10, 4, 5), c(10, 4, 6);
  for (std::int32_t t = 0; t < 10; ++t) {
    auto ra = a.lookup(t), rb = b.lookup(t);
    for (std::size_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(ra[j], rb[j]);
  }
  EXPECT_NE(a.lookup(0)[0], c.lookup(0)[0]);
  EXPECT_THROW(a.lookup(-1), std::out_of_range);
  EXPECT_THROW(a.lookup(10), std::out_of_range);
}

}  // namespace
}  // namespace fed
