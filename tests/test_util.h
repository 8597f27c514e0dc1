// Shared helpers for the test suite.

#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "data/dataset.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace fed::testing {

// A fresh directory owned by the running test case, removed again when
// the object goes out of scope. ctest runs every gtest case as its own
// process, in parallel under -j, so two cases sharing one fixed path race:
// one case's cleanup deletes the files the other is still reading. The
// path is built from the suite name, the test name and the process id.
// Create it inside the test body or as a fixture member.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string("fedprox_") + info->test_suite_name() +
                       "_" + info->name() + "_" + std::to_string(::getpid());
    for (char& ch : name) {
      if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
    }
    path_ = ::testing::TempDir() + name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }
  // `relative` under the directory, e.g. file("sub/out.csv").
  std::string file(const std::string& relative) const {
    return path_ + "/" + relative;
  }

 private:
  std::string path_;
};

// Quadratic model: per-sample loss 0.5 ||w - x_i||^2 over dense rows x_i.
// F(w) = 0.5 ||w - mean(x)||^2 + const, so minimizers, prox points and
// gradients all have closed forms — ideal for solver/aggregation checks.
class QuadraticModel final : public Model {
 public:
  explicit QuadraticModel(std::size_t dim) : dim_(dim) {}

  std::string name() const override { return "quadratic"; }
  std::size_t parameter_count() const override { return dim_; }

  void init_parameters(std::span<double> w, Rng&) const override { zero(w); }

  double loss_and_grad(std::span<const double> w, const Dataset& data,
                       std::span<const std::size_t> batch,
                       std::span<double> grad) const override {
    zero(grad);
    double loss = 0.0;
    for (std::size_t idx : batch) {
      auto x = data.features.row(idx);
      for (std::size_t j = 0; j < dim_; ++j) {
        const double diff = w[j] - x[j];
        grad[j] += diff;
        loss += 0.5 * diff * diff;
      }
    }
    const double inv = 1.0 / static_cast<double>(batch.size());
    scale(grad, inv);
    return loss * inv;
  }

  void predict(std::span<const double>, const Dataset& data,
               std::span<const std::size_t> batch,
               std::vector<std::int32_t>& out) const override {
    out.assign(batch.size(), 0);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out[i] = data.labels[batch[i]];  // trivially "correct"
    }
  }

 private:
  std::size_t dim_;
};

// Dense dataset with the given rows as both features and (label 0) targets.
inline Dataset make_dense_dataset(const std::vector<Vector>& rows) {
  Dataset d;
  const std::size_t dim = rows.empty() ? 0 : rows.front().size();
  d.features = Matrix(0, dim);
  for (const auto& r : rows) {
    Vector& buf = d.features.storage();
    buf.insert(buf.end(), r.begin(), r.end());
    d.features = Matrix(d.features.rows() + 1, dim, std::move(buf));
    d.labels.push_back(0);
  }
  return d;
}

// Random dense classification dataset (labels uniform).
inline Dataset make_random_dataset(std::size_t n, std::size_t dim,
                                   std::size_t classes, Rng& rng) {
  Dataset d;
  d.features = Matrix(n, dim);
  for (double& v : d.features.storage()) v = rng.normal();
  d.labels.resize(n);
  for (auto& y : d.labels) {
    y = static_cast<std::int32_t>(rng.uniform_int(classes));
  }
  return d;
}

// FNV-1a over the raw bit patterns of `values`, chained from `seed`.
// Golden tests pin kernel outputs with it: any change in a result's
// rounding, sign of zero or NaN payload changes the hash.
inline std::uint64_t bit_hash(std::span<const double> values,
                              std::uint64_t seed = 14695981039346656037ull) {
  std::uint64_t h = seed;
  for (double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// Random token-sequence dataset.
inline Dataset make_random_sequences(std::size_t n, std::size_t seq_len,
                                     std::size_t vocab, std::size_t classes,
                                     Rng& rng) {
  Dataset d;
  d.tokens.resize(n);
  d.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.tokens[i].resize(seq_len);
    for (auto& t : d.tokens[i]) {
      t = static_cast<std::int32_t>(rng.uniform_int(vocab));
    }
    d.labels[i] = static_cast<std::int32_t>(rng.uniform_int(classes));
  }
  return d;
}

}  // namespace fed::testing
