#include "nn/lstm.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "nn/loss.h"
#include "tensor/ops.h"

namespace fed {

namespace {
// Gate block offsets within the 4H pre-activation vector.
enum Gate { kInput = 0, kForget = 1, kCandidate = 2, kOutput = 3 };

// Sequences per chunk. A constant, not a knob: the workspace of one call
// is bounded by it, and results do not depend on it.
constexpr std::size_t kLanes = 4;

std::size_t layer_input_dim(const LstmConfig& c, std::size_t layer) {
  return layer == 0 ? c.embed_dim : c.hidden_dim;
}

std::size_t layer_param_count(const LstmConfig& c, std::size_t layer) {
  const std::size_t h = c.hidden_dim;
  const std::size_t in = layer_input_dim(c, layer);
  return 4 * h * in + 4 * h * h + 4 * h;
}

struct LayerView {
  ConstMatrixView wx;         // 4H x in
  ConstMatrixView wh;         // 4H x H
  std::span<const double> b;  // 4H
};

struct Views {
  std::span<const double> embedding;  // vocab*embed or empty
  std::vector<LayerView> layers;
  ConstMatrixView w_out;
  std::span<const double> b_out;
};

Views make_views(const LstmConfig& c, std::span<const double> w) {
  Views v{.embedding = {},
          .layers = {},
          .w_out = ConstMatrixView({}, 0, 0),
          .b_out = {}};
  const std::size_t h = c.hidden_dim;
  std::size_t off = 0;
  if (c.trainable_embedding) {
    v.embedding = w.subspan(0, c.vocab_size * c.embed_dim);
    off += v.embedding.size();
  }
  v.layers.reserve(c.num_layers);
  for (std::size_t l = 0; l < c.num_layers; ++l) {
    const std::size_t in = layer_input_dim(c, l);
    ConstMatrixView wx(w.subspan(off, 4 * h * in), 4 * h, in);
    off += 4 * h * in;
    ConstMatrixView wh(w.subspan(off, 4 * h * h), 4 * h, h);
    off += 4 * h * h;
    auto b = w.subspan(off, 4 * h);
    off += 4 * h;
    v.layers.push_back({wx, wh, b});
  }
  v.w_out = ConstMatrixView(w.subspan(off, c.num_classes * h), c.num_classes,
                            h);
  off += c.num_classes * h;
  v.b_out = w.subspan(off, c.num_classes);
  return v;
}

// Batch positions [begin, begin + lanes) hold sequences of `steps` tokens.
struct Chunk {
  std::size_t begin = 0;
  std::size_t lanes = 0;
  std::size_t steps = 0;
};

// The longest run of at most kLanes equal-length sequences at `begin`.
Chunk chunk_at(const Dataset& data, std::span<const std::size_t> batch,
               std::size_t begin) {
  const std::size_t steps = data.tokens[batch[begin]].size();
  std::size_t lanes = 1;
  while (lanes < kLanes && begin + lanes < batch.size() &&
         data.tokens[batch[begin + lanes]].size() == steps) {
    ++lanes;
  }
  return {begin, lanes, steps};
}

// Block `index` of a buffer of consecutive rows x lanes matrices.
ConstMatrixView block(std::span<const double> buf, std::size_t index,
                      std::size_t rows, std::size_t lanes) {
  return {buf.subspan(index * rows * lanes, rows * lanes), rows, lanes};
}
MatrixView block(Vector& buf, std::size_t index, std::size_t rows,
                 std::size_t lanes) {
  return {std::span<double>(buf).subspan(index * rows * lanes, rows * lanes),
          rows, lanes};
}

// Writes the embeddings of the chunk's tokens at timestep t into x
// (embed x lanes).
void embed_step(const LstmConfig& c, const Views& p, const Dataset& data,
                std::span<const std::size_t> batch, const Chunk& chunk,
                std::size_t t, MatrixView x) {
  for (std::size_t s = 0; s < chunk.lanes; ++s) {
    const std::int32_t tok = data.tokens[batch[chunk.begin + s]][t];
    if (tok < 0 || static_cast<std::size_t>(tok) >= c.vocab_size) {
      throw std::out_of_range("LstmClassifier: token out of range");
    }
    const auto row =
        c.trainable_embedding
            ? p.embedding.subspan(static_cast<std::size_t>(tok) * c.embed_dim,
                                  c.embed_dim)
            : c.frozen_embedding->lookup(tok);
    for (std::size_t f = 0; f < c.embed_dim; ++f) x(f, s) = row[f];
  }
}

// One timestep of one layer over every lane, all buffers feature x lane:
// z = (Wx·x + Wh·h_prev) + b into `gates` (Wh·h_prev goes through the
// scratch `zh`), the gate activations in place, then the cell state c,
// tanh(c) and the hidden state h. `c` may alias `c_prev` and `h` may
// alias `h_prev`.
void cell_step(const LayerView& lay, const ConstMatrixView& x,
               std::span<const double> h_prev, std::span<const double> c_prev,
               MatrixView gates, MatrixView zh, std::span<double> c,
               std::span<double> tanh_c, std::span<double> h) {
  const std::size_t hd = lay.wh.cols(), lanes = x.cols(), g4 = 4 * hd;
  MatrixView& z = gates;
  gemm(lay.wx, x, z);
  gemm(lay.wh, ConstMatrixView(h_prev, hd, lanes), zh);
  for (std::size_t r = 0; r < g4; ++r) {
    for (std::size_t s = 0; s < lanes; ++s) {
      z(r, s) = (z(r, s) + zh(r, s)) + lay.b[r];
    }
  }
  for (std::size_t j = 0; j < hd; ++j) {
    for (std::size_t s = 0; s < lanes; ++s) {
      const std::size_t at = j * lanes + s;
      const double gi = sigmoid(z(kInput * hd + j, s));
      const double gf = sigmoid(z(kForget * hd + j, s));
      const double gg = std::tanh(z(kCandidate * hd + j, s));
      const double go = sigmoid(z(kOutput * hd + j, s));
      const double c_new = gf * c_prev[at] + gi * gg;
      const double tc = std::tanh(c_new);
      z(kInput * hd + j, s) = gi;
      z(kForget * hd + j, s) = gf;
      z(kCandidate * hd + j, s) = gg;
      z(kOutput * hd + j, s) = go;
      c[at] = c_new;
      tanh_c[at] = tc;
      h[at] = go * tc;
    }
  }
}

// Rolling forward pass over every chunk of the batch, keeping only the
// current h/c state per layer. Calls emit(position, logits) in batch
// order with the logits of the sequence at that batch position.
template <typename Emit>
void for_each_logits(const LstmConfig& c, std::span<const double> w,
                     const Dataset& data, std::span<const std::size_t> batch,
                     Emit emit) {
  const Views p = make_views(c, w);
  const std::size_t hd = c.hidden_dim, layers = c.num_layers;
  Vector x(c.embed_dim * kLanes), state_h(layers * hd * kLanes),
      state_c(layers * hd * kLanes), tanh_c(hd * kLanes),
      gates(4 * hd * kLanes), zh(4 * hd * kLanes),
      logits(c.num_classes * kLanes), column(c.num_classes);
  for (std::size_t begin = 0; begin < batch.size();) {
    const Chunk chunk = chunk_at(data, batch, begin);
    const std::size_t lanes = chunk.lanes, state = hd * lanes;
    std::fill(state_h.begin(), state_h.end(), 0.0);
    std::fill(state_c.begin(), state_c.end(), 0.0);
    for (std::size_t t = 0; t < chunk.steps; ++t) {
      embed_step(c, p, data, batch, chunk, t, block(x, 0, c.embed_dim, lanes));
      ConstMatrixView in = block(std::span<const double>(x), 0, c.embed_dim,
                                 lanes);
      for (std::size_t l = 0; l < layers; ++l) {
        const auto h = std::span<double>(state_h).subspan(l * state, state);
        const auto cs = std::span<double>(state_c).subspan(l * state, state);
        cell_step(p.layers[l], in, h, cs, block(gates, 0, 4 * hd, lanes),
                  block(zh, 0, 4 * hd, lanes), cs,
                  std::span<double>(tanh_c).first(state), h);
        in = ConstMatrixView(h, hd, lanes);
      }
    }
    gemm(p.w_out,
         block(std::span<const double>(state_h), layers - 1, hd, lanes),
         block(logits, 0, c.num_classes, lanes));
    for (std::size_t s = 0; s < lanes; ++s) {
      for (std::size_t k = 0; k < c.num_classes; ++k) {
        column[k] = logits[k * lanes + s] + p.b_out[k];
      }
      emit(chunk.begin + s, std::span<double>(column));
    }
    begin += lanes;
  }
}

// Lane `lane` of `steps` blocks of a [t][feature][lane] buffer as a
// steps x features matrix in reverse time: row k is block steps - 1 - k.
// That is the order in which the one-sequence-at-a-time backward pass
// met these vectors.
ConstMatrixView reversed_rows(std::span<const double> in, std::size_t steps,
                              std::size_t features, std::size_t lanes,
                              std::size_t lane, Vector& out) {
  out.resize(steps * features);
  for (std::size_t k = 0; k < steps; ++k) {
    const double* src = in.data() + (steps - 1 - k) * features * lanes + lane;
    for (std::size_t f = 0; f < features; ++f) {
      out[k * features + f] = src[f * lanes];
    }
  }
  return {out, steps, features};
}

// Forward activations of one layer over one chunk, [t][feature][lane].
struct LayerTape {
  Vector gates;   // steps x 4H: activated i, f, g, o; backward: dL/dz
  Vector cell;    // (steps + 1) x H: block 0 is c_{-1} = 0
  Vector tanh_c;  // steps x H
  Vector hidden;  // (steps + 1) x H: block 0 is h_{-1} = 0
};

}  // namespace

LstmClassifier::LstmClassifier(LstmConfig config) : config_(std::move(config)) {
  const auto& c = config_;
  if (c.vocab_size == 0 || c.embed_dim == 0 || c.hidden_dim == 0 ||
      c.num_layers == 0 || c.num_classes < 2) {
    throw std::invalid_argument("LstmClassifier: bad config");
  }
  if (!c.trainable_embedding) {
    if (!c.frozen_embedding) {
      throw std::invalid_argument(
          "LstmClassifier: frozen_embedding required when not trainable");
    }
    if (c.frozen_embedding->vocab_size() != c.vocab_size ||
        c.frozen_embedding->dim() != c.embed_dim) {
      throw std::invalid_argument(
          "LstmClassifier: frozen embedding shape mismatch");
    }
  }
  param_count_ = c.trainable_embedding ? c.vocab_size * c.embed_dim : 0;
  for (std::size_t l = 0; l < c.num_layers; ++l) {
    param_count_ += layer_param_count(c, l);
  }
  param_count_ += c.num_classes * c.hidden_dim + c.num_classes;
}

void LstmClassifier::init_parameters(std::span<double> w, Rng& rng) const {
  assert(w.size() == param_count_);
  const std::size_t h = config_.hidden_dim;
  std::size_t off = 0;
  if (config_.trainable_embedding) {
    for (std::size_t i = 0; i < config_.vocab_size * config_.embed_dim; ++i) {
      w[off++] = rng.normal(0.0, 0.1);
    }
  }
  for (std::size_t l = 0; l < config_.num_layers; ++l) {
    const std::size_t in = layer_input_dim(config_, l);
    const double sx = 1.0 / std::sqrt(static_cast<double>(in));
    const double sh = 1.0 / std::sqrt(static_cast<double>(h));
    for (std::size_t i = 0; i < 4 * h * in; ++i) {
      w[off++] = rng.uniform(-sx, sx);
    }
    for (std::size_t i = 0; i < 4 * h * h; ++i) {
      w[off++] = rng.uniform(-sh, sh);
    }
    for (std::size_t g = 0; g < 4; ++g) {
      const double bias = (g == kForget) ? config_.forget_bias : 0.0;
      for (std::size_t i = 0; i < h; ++i) w[off++] = bias;
    }
  }
  const double so = 1.0 / std::sqrt(static_cast<double>(h));
  for (std::size_t i = 0; i < config_.num_classes * h; ++i) {
    w[off++] = rng.uniform(-so, so);
  }
  for (std::size_t i = 0; i < config_.num_classes; ++i) w[off++] = 0.0;
  assert(off == param_count_);
}

double LstmClassifier::loss_and_grad(std::span<const double> w,
                                     const Dataset& data,
                                     std::span<const std::size_t> batch,
                                     std::span<double> grad) const {
  assert(w.size() == param_count_ && grad.size() == param_count_);
  assert(!batch.empty());
  const LstmConfig& c = config_;
  const Views p = make_views(c, w);
  zero(grad);

  const std::size_t hd = c.hidden_dim, g4 = 4 * hd, e = c.embed_dim;
  const std::size_t c_out = c.num_classes, layers = c.num_layers;

  // Gradient block views (mutable).
  std::size_t off = c.trainable_embedding ? c.vocab_size * e : 0;
  std::span<double> g_embed =
      c.trainable_embedding ? grad.subspan(0, off) : std::span<double>{};
  std::vector<std::size_t> layer_off(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    layer_off[l] = off;
    off += layer_param_count(c, l);
  }
  MatrixView g_wout(grad.subspan(off, c_out * hd), c_out, hd);
  auto g_bout = grad.subspan(off + c_out * hd, c_out);

  // Workspace of one chunk; vectors grow to the longest chunk and are
  // overwritten per chunk.
  std::vector<LayerTape> tape(layers);
  Vector zh(g4 * kLanes);           // Wh·h_prev at the current step
  Vector embedded;                  // steps x E x lanes: layer-0 inputs
  Vector to_below, from_above;      // steps x in x lanes: dL/d(input)
  Vector dh(hd * kLanes), dc(hd * kLanes);
  Vector dz_rows, input_rows, hprev_rows;  // one lane: steps x {4H, in, H}
  Vector logits(c_out * kLanes), dlogits(c_out * kLanes);  // C x lanes
  Vector dlogit_rows(kLanes * c_out), final_rows(kLanes * hd);
  Vector column(c_out);

  double total_loss = 0.0;
  for (std::size_t begin = 0; begin < batch.size();) {
    const Chunk chunk = chunk_at(data, batch, begin);
    const std::size_t lanes = chunk.lanes, steps = chunk.steps;
    if (steps == 0) {
      throw std::invalid_argument("LstmClassifier: empty token sequence");
    }
    const std::size_t state = hd * lanes;

    // ---- forward, one layer at a time over the whole chunk ----
    embedded.resize(steps * e * lanes);
    for (std::size_t t = 0; t < steps; ++t) {
      embed_step(c, p, data, batch, chunk, t, block(embedded, t, e, lanes));
    }
    for (std::size_t l = 0; l < layers; ++l) {
      LayerTape& tp = tape[l];
      tp.gates.resize(steps * g4 * lanes);
      tp.cell.assign((steps + 1) * state, 0.0);
      tp.tanh_c.resize(steps * state);
      tp.hidden.assign((steps + 1) * state, 0.0);
      const std::span<const double> in =
          l == 0 ? std::span<const double>(embedded)
                 : std::span<const double>(tape[l - 1].hidden).subspan(state);
      const std::size_t in_dim = layer_input_dim(c, l);
      for (std::size_t t = 0; t < steps; ++t) {
        auto cell = std::span<double>(tp.cell);
        auto hidden = std::span<double>(tp.hidden);
        cell_step(p.layers[l], block(in, t, in_dim, lanes),
                  hidden.subspan(t * state, state),
                  cell.subspan(t * state, state), block(tp.gates, t, g4, lanes),
                  block(zh, 0, g4, lanes), cell.subspan((t + 1) * state, state),
                  std::span<double>(tp.tanh_c).subspan(t * state, state),
                  hidden.subspan((t + 1) * state, state));
      }
    }

    // ---- head: loss, dL/dlogits and the output-layer gradients ----
    const auto final_hidden = block(
        std::span<const double>(tape.back().hidden), steps, hd, lanes);
    gemm(p.w_out, final_hidden, block(logits, 0, c_out, lanes));
    for (std::size_t s = 0; s < lanes; ++s) {
      for (std::size_t k = 0; k < c_out; ++k) {
        column[k] = logits[k * lanes + s] + p.b_out[k];
      }
      total_loss += softmax_cross_entropy_grad(
          column, data.labels[batch[chunk.begin + s]]);
      add(g_bout, column, g_bout);
      for (std::size_t k = 0; k < c_out; ++k) {
        dlogits[k * lanes + s] = column[k];
        dlogit_rows[s * c_out + k] = column[k];
      }
      for (std::size_t j = 0; j < hd; ++j) {
        final_rows[s * hd + j] = final_hidden(j, s);
      }
    }
    gemm_transposed_accumulate(
        ConstMatrixView(std::span<const double>(dlogit_rows)
                            .first(lanes * c_out),
                        lanes, c_out),
        ConstMatrixView(std::span<const double>(final_rows).first(state),
                        lanes, hd),
        g_wout);

    // ---- backward through time, top layer first ----
    for (std::size_t lq = layers; lq > 0; --lq) {
      const std::size_t l = lq - 1;
      const LayerView& lay = p.layers[l];
      LayerTape& tp = tape[l];
      const std::size_t in_dim = layer_input_dim(c, l);
      const bool top = l + 1 == layers;
      const bool wants_input_grad = l > 0 || c.trainable_embedding;

      // Running dL/dh and dL/dc; the top layer's dh starts at the head.
      MatrixView dh_run = block(dh, 0, hd, lanes);
      MatrixView dc_run = block(dc, 0, hd, lanes);
      zero(dc_run.flat());
      if (top) {
        gemm_transposed(p.w_out,
                        block(std::span<const double>(dlogits), 0, c_out,
                              lanes),
                        dh_run);
      } else {
        zero(dh_run.flat());
      }
      to_below.resize(steps * in_dim * lanes);
      for (std::size_t tq = steps; tq > 0; --tq) {
        const std::size_t t = tq - 1;
        if (!top) {
          const auto above = block(std::span<const double>(from_above), t,
                                   hd, lanes);
          for (std::size_t j = 0; j < hd; ++j) {
            for (std::size_t s = 0; s < lanes; ++s) {
              dh_run(j, s) = dh_run(j, s) + above(j, s);
            }
          }
        }
        // dL/dz replaces the gate activations of step t in place: the
        // tape keeps every step's dz for the weight gradients below.
        MatrixView dz_t = block(tp.gates, t, g4, lanes);
        const double* cprev = tp.cell.data() + t * state;
        const double* tanh_c = tp.tanh_c.data() + t * state;
        for (std::size_t j = 0; j < hd; ++j) {
          for (std::size_t s = 0; s < lanes; ++s) {
            const std::size_t at = j * lanes + s;
            const double gi = dz_t(kInput * hd + j, s);
            const double gf = dz_t(kForget * hd + j, s);
            const double gg = dz_t(kCandidate * hd + j, s);
            const double go = dz_t(kOutput * hd + j, s);
            const double tc = tanh_c[at];
            const double dht = dh_run(j, s);
            const double dct = dc_run(j, s) + dht * go * (1.0 - tc * tc);
            const double d_go = dht * tc;
            const double d_gi = dct * gg;
            const double d_gg = dct * gi;
            const double d_gf = dct * cprev[at];
            dz_t(kInput * hd + j, s) = d_gi * gi * (1.0 - gi);
            dz_t(kForget * hd + j, s) = d_gf * gf * (1.0 - gf);
            dz_t(kCandidate * hd + j, s) = d_gg * (1.0 - gg * gg);
            dz_t(kOutput * hd + j, s) = d_go * go * (1.0 - go);
            dc_run(j, s) = dct * gf;  // flows to c_{t-1}
          }
        }
        const ConstMatrixView dz_view =
            block(std::span<const double>(tp.gates), t, g4, lanes);
        if (wants_input_grad) {
          gemm_transposed(lay.wx, dz_view,
                          block(to_below, t, in_dim, lanes));
        }
        gemm_transposed(lay.wh, dz_view, dh_run);  // dh_{t-1} through Wh
      }

      // Parameter gradients, accumulated per sequence in reverse time:
      // the order in which the per-sequence pass applied them.
      MatrixView g_wx(grad.subspan(layer_off[l], g4 * in_dim), g4, in_dim);
      MatrixView g_wh(grad.subspan(layer_off[l] + g4 * in_dim, g4 * hd), g4,
                      hd);
      auto g_b = grad.subspan(layer_off[l] + g4 * in_dim + g4 * hd, g4);
      const std::span<const double> inputs =
          l == 0 ? std::span<const double>(embedded)
                 : std::span<const double>(tape[l - 1].hidden).subspan(state);
      for (std::size_t s = 0; s < lanes; ++s) {
        const ConstMatrixView dz_seq =
            reversed_rows(tp.gates, steps, g4, lanes, s, dz_rows);
        gemm_transposed_accumulate(
            dz_seq, reversed_rows(inputs, steps, in_dim, lanes, s, input_rows),
            g_wx);
        // Block t of `hidden` is h_{t-1}. h_{-1} = 0: the t = 0 row (the
        // last) adds nothing to Wh.
        reversed_rows(tp.hidden, steps, hd, lanes, s, hprev_rows);
        gemm_transposed_accumulate(
            ConstMatrixView(std::span<const double>(dz_rows).first(
                                (steps - 1) * g4),
                            steps - 1, g4),
            ConstMatrixView(std::span<const double>(hprev_rows).first(
                                (steps - 1) * hd),
                            steps - 1, hd),
            g_wh);
        for (std::size_t k = 0; k < steps; ++k) {
          add(g_b, dz_seq.row(k), g_b);
        }
      }
      std::swap(to_below, from_above);
    }

    // Embedding gradients (layer-0 input gradients), in time order.
    if (c.trainable_embedding) {
      for (std::size_t s = 0; s < lanes; ++s) {
        const auto& seq = data.tokens[batch[chunk.begin + s]];
        for (std::size_t t = 0; t < steps; ++t) {
          auto row = g_embed.subspan(static_cast<std::size_t>(seq[t]) * e, e);
          const auto below = block(std::span<const double>(from_above), t, e,
                                   lanes);
          for (std::size_t f = 0; f < e; ++f) row[f] = row[f] + below(f, s);
        }
      }
    }
    begin += lanes;
  }

  const double inv = 1.0 / static_cast<double>(batch.size());
  scale(grad, inv);
  return total_loss * inv;
}

double LstmClassifier::loss(std::span<const double> w, const Dataset& data,
                            std::span<const std::size_t> batch) const {
  assert(!batch.empty());
  double total = 0.0;
  for_each_logits(config_, w, data, batch,
                  [&](std::size_t pos, std::span<double> logits) {
                    total += softmax_cross_entropy(logits,
                                                   data.labels[batch[pos]]);
                  });
  return total / static_cast<double>(batch.size());
}

void LstmClassifier::predict(std::span<const double> w, const Dataset& data,
                             std::span<const std::size_t> batch,
                             std::vector<std::int32_t>& out) const {
  out.resize(batch.size());
  for_each_logits(config_, w, data, batch,
                  [&](std::size_t pos, std::span<double> logits) {
                    out[pos] = static_cast<std::int32_t>(argmax(logits));
                  });
}

}  // namespace fed
