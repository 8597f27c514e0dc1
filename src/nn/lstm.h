// Multi-layer LSTM sequence classifier with exact backpropagation through
// time. Covers both of the paper's non-convex tasks:
//   - Sent140-like: frozen (GloVe stand-in) embeddings, 2-layer LSTM,
//     binary sentiment head (num_classes = 2).
//   - Shakespeare-like: trainable 8-d embeddings, 2-layer LSTM,
//     next-character head (num_classes = vocab).
// The classifier reads a token sequence, runs it through `num_layers`
// LSTM layers, and softmax-classifies the final hidden state.
//
// Flat parameter layout:
//   [E (vocab x embed, only if trainable_embedding)]
//   for each layer l: [Wx_l (4H x in_l) | Wh_l (4H x H) | b_l (4H)]
//   [W_out (C x H) | b_out (C)]
// Gate order inside the 4H blocks: input, forget, candidate, output.
//
// The batch runs through the kernels in chunks of up to four sequences of
// equal length (lanes), with activations stored [t][feature][lane]; each
// timestep is one gemm per weight matrix. Every output keeps the
// reduction order of processing the sequences one at a time, so results
// do not depend on how a batch splits into chunks (DESIGN.md §5).

#pragma once

#include <memory>

#include "nn/embedding.h"
#include "nn/module.h"

namespace fed {

struct LstmConfig {
  std::size_t vocab_size = 0;
  std::size_t embed_dim = 0;
  std::size_t hidden_dim = 0;
  std::size_t num_layers = 1;
  std::size_t num_classes = 0;
  // When false, `frozen_embedding` supplies fixed token vectors and the
  // embedding is excluded from the parameter vector.
  bool trainable_embedding = true;
  std::shared_ptr<const EmbeddingTable> frozen_embedding;
  // Forget-gate bias initialization (standard trick for gradient flow).
  double forget_bias = 1.0;
};

class LstmClassifier final : public Model {
 public:
  explicit LstmClassifier(LstmConfig config);

  std::string name() const override { return "lstm_classifier"; }
  std::size_t parameter_count() const override { return param_count_; }
  const LstmConfig& config() const { return config_; }

  void init_parameters(std::span<double> w, Rng& rng) const override;
  double loss_and_grad(std::span<const double> w, const Dataset& data,
                       std::span<const std::size_t> batch,
                       std::span<double> grad) const override;
  double loss(std::span<const double> w, const Dataset& data,
              std::span<const std::size_t> batch) const override;
  void predict(std::span<const double> w, const Dataset& data,
               std::span<const std::size_t> batch,
               std::vector<std::int32_t>& out) const override;

 private:
  LstmConfig config_;
  std::size_t param_count_ = 0;
};

}  // namespace fed
