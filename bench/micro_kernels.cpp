// Kernel microbenchmarks (google-benchmark): the hot paths of the
// simulator — GEMV/GEMM, logistic and LSTM loss+gradient, and one local
// SGD epoch — so regressions in the substrate are visible in isolation.

#include <benchmark/benchmark.h>

#include "data/synthetic.h"
#include "nn/logistic.h"
#include "nn/lstm.h"
#include "optim/sgd.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace fed {
namespace {

void BM_Gemv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Matrix a(n, n);
  for (double& v : a.storage()) v = rng.normal();
  Vector x(n), y(n);
  for (double& v : x) v = rng.normal();
  for (auto _ : state) {
    gemv(ConstMatrixView(a.storage(), n, n), x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_Gemv)->Arg(64)->Arg(256)->Arg(784);

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  Matrix a(n, n), b(n, n), c(n, n);
  for (double& v : a.storage()) v = rng.normal();
  for (double& v : b.storage()) v = rng.normal();
  for (auto _ : state) {
    gemm(ConstMatrixView(a.storage(), n, n), ConstMatrixView(b.storage(), n, n),
         MatrixView(c.storage(), n, n));
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(128);

void BM_LogisticLossGrad(benchmark::State& state) {
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  LogisticRegression model(784, 10);
  Rng rng(3);
  Dataset data;
  data.features = Matrix(batch_size, 784);
  for (double& v : data.features.storage()) v = rng.normal();
  data.labels.resize(batch_size);
  for (auto& y : data.labels) {
    y = static_cast<std::int32_t>(rng.uniform_int(std::uint64_t{10}));
  }
  Vector w(model.parameter_count(), 0.01), grad(w.size());
  const auto batch = full_batch(batch_size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.loss_and_grad(w, data, batch, grad));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_LogisticLossGrad)->Arg(10)->Arg(64);

// The shakespeare_lstm workload's shape: vocab 40, 8-d trainable
// embedding, two 16-unit layers, 40 classes, sequences of `seq_len`.
struct LstmBench {
  LstmClassifier model;
  Dataset data;
  Vector w;
};

LstmBench make_lstm_bench(std::size_t seq_len, std::size_t samples) {
  LstmConfig config;
  config.vocab_size = 40;
  config.embed_dim = 8;
  config.hidden_dim = 16;
  config.num_layers = 2;
  config.num_classes = 40;
  LstmBench b{LstmClassifier(config), Dataset{}, Vector{}};
  Rng rng(4);
  b.data.tokens.resize(samples);
  b.data.labels.resize(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    b.data.tokens[i].resize(seq_len);
    for (auto& t : b.data.tokens[i]) {
      t = static_cast<std::int32_t>(rng.uniform_int(std::uint64_t{40}));
    }
    b.data.labels[i] =
        static_cast<std::int32_t>(rng.uniform_int(std::uint64_t{40}));
  }
  b.w.resize(b.model.parameter_count());
  b.model.init_parameters(b.w, rng);
  return b;
}

// One local-solver minibatch: loss and gradient over B=10 sequences.
void BM_LstmLossGrad(benchmark::State& state) {
  const LstmBench b =
      make_lstm_bench(static_cast<std::size_t>(state.range(0)), 10);
  Vector grad(b.w.size());
  const auto batch = full_batch(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.model.loss_and_grad(b.w, b.data, batch, grad));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_LstmLossGrad)->Arg(12)->Arg(25);

// Evaluation: the forward pass alone over 100 sequences.
void BM_LstmLoss(benchmark::State& state) {
  const LstmBench b =
      make_lstm_bench(static_cast<std::size_t>(state.range(0)), 100);
  const auto batch = full_batch(100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.model.loss(b.w, b.data, batch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100);
}
BENCHMARK(BM_LstmLoss)->Arg(12);

void BM_LocalSgdEpoch(benchmark::State& state) {
  SyntheticConfig config = synthetic_config(1.0, 1.0, 5);
  config.num_devices = 1;
  config.min_samples = 200;
  config.sigma_log = 0.01;
  const FederatedDataset fed = make_synthetic(config);
  LogisticRegression model(fed.input_dim, fed.num_classes);
  Vector anchor(model.parameter_count(), 0.0);
  LocalProblem problem{&model, &fed.clients[0].train, anchor, 1.0, {}};
  const std::size_t iters =
      iterations_for_epochs(1, fed.clients[0].train.size(), 10);
  SolveBudget budget{.iterations = iters, .batch_size = 10,
                     .learning_rate = 0.01};
  SgdSolver solver;
  for (auto _ : state) {
    Rng rng(6);
    Vector w = anchor;
    solver.solve(problem, budget, rng, w);
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_LocalSgdEpoch);

}  // namespace
}  // namespace fed

BENCHMARK_MAIN();
