#include "probes.h"

#include <algorithm>
#include <filesystem>

#include "catalog.h"
#include "core/checkpoint.h"
#include "decorators.h"
#include "sim/aggregate.h"
#include "sim/churn.h"
#include "sim/sampling.h"
#include "tensor/exact_sum.h"
#include "tensor/ops.h"

namespace fedbench {

namespace {

// Folded into every timed loop's output so the compiler keeps the work.
double g_sink = 0.0;

// Median over `batches` of the mean time of one call, each batch calling
// `f` until at least `batch_s` seconds have passed.
template <typename F>
double seconds_per_call(F&& f, double batch_s = 0.01, int batches = 5) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    std::size_t calls = 0;
    const double start = now_s();
    double elapsed = 0.0;
    do {
      f();
      ++calls;
      elapsed = now_s() - start;
    } while (elapsed < batch_s);
    per_call.push_back(elapsed / static_cast<double>(calls));
  }
  return median(std::move(per_call));
}

struct KernelShape {
  std::size_t rows = 0;   // output dimension of the layer
  std::size_t cols = 0;   // input dimension
  std::size_t batch = 10; // columns of the batched (gemm) right-hand side
};

// The model's dominant matrix: the logistic weight for mnist_logreg, one
// LSTM gate block (4H x H, H=16) for shakespeare_lstm.
KernelShape kernel_shape(const std::string& workload) {
  if (workload == "mnist_logreg") return {10, 784};
  return {64, 16};
}

void probe_kernels(const std::string& workload, Metrics& m) {
  const KernelShape s = kernel_shape(workload);
  fed::Vector a(s.rows * s.cols), x(s.cols), y(s.rows);
  fed::Vector b(s.cols * s.batch), c(s.rows * s.batch);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = 0.001 * double(i % 97);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.01 * double(i % 13);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 0.02 * double(i % 11);
  const fed::ConstMatrixView av(a, s.rows, s.cols);
  const fed::ConstMatrixView bv(b, s.cols, s.batch);

  const double gemv_s = seconds_per_call([&] { fed::gemv(av, x, y); });
  g_sink += y[0];
  const double gemm_s = seconds_per_call(
      [&] { fed::gemm(av, bv, fed::MatrixView(c, s.rows, s.batch)); });
  g_sink += c[0];
  m["tensor.gemv.gflops"] = 2.0 * double(s.rows * s.cols) / gemv_s * 1e-9;
  m["tensor.gemm.gflops"] =
      2.0 * double(s.rows * s.cols * s.batch) / gemm_s * 1e-9;
}

void probe_sampling(const ProbeInputs& in, Metrics& m) {
  std::uint64_t round = 0;
  const auto select_at = [&](std::span<const double> pk) {
    return seconds_per_call([&] {
      const auto picked = fed::select_devices(
          fed::SamplingScheme::kUniformThenWeightedAverage, pk,
          in.devices_per_round, in.seed, round++);
      g_sink += double(picked.front());
    });
  };
  m["sim.sampling.select_us"] = 1e6 * select_at(in.pk);
  const std::vector<double> pk_1m(1000000, 1e-6);
  m["sim.sampling.select_us_1m"] = 1e6 * select_at(pk_1m);
}

// The open-world schedule (2% arrive, 1% depart a round) over the
// workload's population.
void probe_churn(const ProbeInputs& in, Metrics& m) {
  fed::ChurnConfig churn = fed::parse_churn_config("arrive=0.02,depart=0.01");
  churn.min_active = in.devices_per_round;
  fed::DeviceRegistry registry(in.pk.size(), churn, in.seed);
  std::vector<double> begin_s;
  for (std::uint64_t round = 1; round <= 16; ++round) {
    const double start = now_s();
    registry.begin_round(round);
    begin_s.push_back(now_s() - start);
    registry.end_round(round);
  }
  g_sink += double(registry.active_count());
  m["sim.churn.begin_round_us"] = 1e6 * median(std::move(begin_s));
}

fed::PartialAggregate aggregate_of(
    const std::vector<fed::ClientUpdate>& updates) {
  const std::size_t dim = updates.front().result.update.size();
  fed::PartialAggregate partial(
      fed::SamplingScheme::kUniformThenWeightedAverage, dim);
  for (const fed::ClientUpdate& u : updates) {
    partial.accumulate({u.result.device, &u.result.update,
                        static_cast<double>(u.result.num_samples)});
  }
  return partial;
}

void probe_aggregation(const ProbeInputs& in, Metrics& m) {
  const std::size_t dim = in.updates.front().result.update.size();
  const double coords = double(in.updates.size() * dim);
  fed::Vector w(dim);
  const double aggregate_s = seconds_per_call([&] {
    aggregate_of(in.updates).finalize(w);
    g_sink += w[0];
  });
  m["sim.aggregate.ns_per_coord"] = 1e9 * aggregate_s / coords;

  const double add_s = seconds_per_call([&] {
    fed::ExactSum sum;
    for (const fed::ClientUpdate& u : in.updates) {
      for (const double v : u.result.update) sum.add(v);
    }
    g_sink += sum.value();
  });
  m["tensor.exact_sum.ns_per_add"] = 1e9 * add_s / coords;
}

// Keeps `value` alive as far as the optimizer can tell.
template <typename T>
void escape(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// Times encode and decode of one frame kind; the decoded message must
// re-encode to exactly the source bytes.
template <typename Encode, typename Decode, typename Reencode>
void probe_codec(const std::string& tag, Encode&& encode, Decode&& decode,
                 Reencode&& reencode, ProbeResult& result) {
  const fed::WireBuffer frame = encode();
  const double mb = double(frame.size()) * 1e-6;
  result.metrics["codec." + tag + ".encode_mb_s"] =
      mb / seconds_per_call([&] { escape(encode()); });
  result.metrics["codec." + tag + ".decode_mb_s"] =
      mb / seconds_per_call([&] { escape(decode(frame)); });
  ++result.checks;
  if (reencode(decode(frame)) != frame) {
    result.failures.push_back("codec " + tag +
                              ": decoded frame does not re-encode to its "
                              "source bytes");
  }
}

void probe_codecs(const ProbeInputs& in, ProbeResult& result) {
  const fed::ModelBroadcast broadcast = in.broadcasts.front().view();
  probe_codec(
      "fpb1", [&] { return fed::encode_broadcast(broadcast); },
      [](const fed::WireBuffer& f) { return fed::decode_broadcast(f); },
      [](const fed::OwnedBroadcast& d) {
        return fed::encode_broadcast(d.view());
      },
      result);

  const fed::ClientUpdate& update = in.updates.front();
  probe_codec(
      "fpu1", [&] { return fed::encode_update(update); },
      [](const fed::WireBuffer& f) { return fed::decode_update(f); },
      [](const fed::ClientUpdate& d) { return fed::encode_update(d); },
      result);

  const fed::PartialSumUpdate partial{.round = update.round,
                                      .trace = update.trace,
                                      .shard = 0,
                                      .partial = aggregate_of(in.updates)};
  probe_codec(
      "fps1", [&] { return fed::encode_partial_sum(partial); },
      [](const fed::WireBuffer& f) { return fed::decode_partial_sum(f); },
      [](const fed::PartialSumUpdate& d) {
        return fed::encode_partial_sum(d);
      },
      result);

  probe_codec(
      "fpc1", [&] { return fed::encode_checkpoint_state(in.checkpoint); },
      [](const fed::WireBuffer& f) {
        return fed::decode_checkpoint_state(f);
      },
      [](const fed::CheckpointState& d) {
        return fed::encode_checkpoint_state(d);
      },
      result);
}

void probe_checkpoint_write(const ProbeInputs& in, Metrics& m) {
  fed::CheckpointConfig config;
  config.dir = in.run_dir + "/replay-checkpoints";
  config.every = 1;
  config.retain = 3;
  fed::CheckpointWriter writer(config);
  std::vector<double> write_s;
  std::uint64_t bytes = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double start = now_s();
    bytes = writer.write(in.checkpoint).bytes;
    write_s.push_back(now_s() - start);
  }
  std::filesystem::remove_all(config.dir);
  m["core.checkpoint.write_ms"] = 1e3 * median(std::move(write_s));
  m["core.checkpoint.bytes"] = double(bytes);
}

}  // namespace

ProbeResult run_probes(const ProbeInputs& in) {
  ProbeResult result;
  probe_sampling(in, result.metrics);
  probe_churn(in, result.metrics);
  probe_aggregation(in, result.metrics);
  probe_codecs(in, result);
  probe_kernels(in.workload, result.metrics);
  probe_checkpoint_write(in, result.metrics);
  escape(g_sink);
  return result;
}

}  // namespace fedbench
