#include "nn/mlp.hpp"

#include <cmath>
#include <utility>

#include "core/check.hpp"
#include "nn/eval_sweep.hpp"
#include "tensor/activations.hpp"
#include "tensor/gemm.hpp"
#include "tensor/vecops.hpp"

namespace hm::nn {

namespace {

struct MlpWorkspace final : Workspace {
  std::vector<tensor::Matrix> activations;  // a_0 .. a_L (a_0 = inputs)
  std::vector<tensor::Matrix> deltas;       // d_1 .. d_L (indexed l-1)
};

/// Row-block size for the stacked evaluation sweep: large enough that the
/// per-layer weight packs (W1 alone is ~1.9 MB for the paper MLP) are
/// amortized over many rows, small enough that the activations of one
/// block stay cache-friendly.
constexpr index_t kEvalBlock = 512;

/// Gather batch rows into a contiguous activation matrix.
void gather_batch(const data::Dataset& d, std::span<const index_t> batch,
                  tensor::Matrix& out) {
  out.resize_for_overwrite(static_cast<index_t>(batch.size()), d.dim());
  for (index_t r = 0; r < static_cast<index_t>(batch.size()); ++r) {
    tensor::copy(d.x.row(batch[static_cast<std::size_t>(r)]), out.row(r));
  }
}

void add_bias_rows(tensor::MatView m, tensor::ConstVecView bias) {
  for (index_t r = 0; r < m.rows(); ++r) tensor::axpy(1.0, bias, m.row(r));
}

/// out = sum of the rows of m, folded in row order (the bias gradient).
void column_sums(tensor::ConstMatView m, VecView out) {
  tensor::set_zero(out);
  for (index_t r = 0; r < m.rows(); ++r) tensor::axpy(1.0, m.row(r), out);
}

}  // namespace

Mlp::Mlp(std::vector<index_t> layer_dims) : dims_(std::move(layer_dims)) {
  HM_CHECK_MSG(dims_.size() >= 2, "need at least {input, output} dims");
  for (const index_t d : dims_) HM_CHECK(d > 0);
  HM_CHECK(dims_.back() >= 2);
  index_t offset = 0;
  for (index_t l = 0; l < num_layers(); ++l) {
    const index_t in = dims_[static_cast<std::size_t>(l)];
    const index_t out = dims_[static_cast<std::size_t>(l) + 1];
    w_offsets_.push_back(offset);
    offset += in * out;
    b_offsets_.push_back(offset);
    offset += out;
  }
  total_params_ = offset;
}

tensor::ConstMatView Mlp::weights(ConstVecView w, index_t layer) const {
  const index_t in = dims_[static_cast<std::size_t>(layer)];
  const index_t out = dims_[static_cast<std::size_t>(layer) + 1];
  return tensor::ConstMatView(
      w.data() + w_offsets_[static_cast<std::size_t>(layer)], out, in);
}

tensor::MatView Mlp::weights(VecView w, index_t layer) const {
  const index_t in = dims_[static_cast<std::size_t>(layer)];
  const index_t out = dims_[static_cast<std::size_t>(layer) + 1];
  return tensor::MatView(
      w.data() + w_offsets_[static_cast<std::size_t>(layer)], out, in);
}

ConstVecView Mlp::biases(ConstVecView w, index_t layer) const {
  const index_t out = dims_[static_cast<std::size_t>(layer) + 1];
  return w.subspan(
      static_cast<std::size_t>(b_offsets_[static_cast<std::size_t>(layer)]),
      static_cast<std::size_t>(out));
}

VecView Mlp::biases(VecView w, index_t layer) const {
  const index_t out = dims_[static_cast<std::size_t>(layer) + 1];
  return w.subspan(
      static_cast<std::size_t>(b_offsets_[static_cast<std::size_t>(layer)]),
      static_cast<std::size_t>(out));
}

std::unique_ptr<Workspace> Mlp::make_workspace() const {
  auto ws = std::make_unique<MlpWorkspace>();
  ws->activations.resize(static_cast<std::size_t>(num_layers()) + 1);
  ws->deltas.resize(static_cast<std::size_t>(num_layers()));
  return ws;
}

void Mlp::init_params(VecView w, rng::Xoshiro256& gen) const {
  HM_CHECK(static_cast<index_t>(w.size()) == num_params());
  // He initialization for ReLU hidden layers; biases start at zero.
  for (index_t l = 0; l < num_layers(); ++l) {
    const index_t in = dims_[static_cast<std::size_t>(l)];
    const scalar_t std_dev =
        std::sqrt(scalar_t{2} / static_cast<scalar_t>(in));
    auto wm = weights(w, l);
    for (auto& v : wm.flat()) v = gen.normal(0.0, std_dev);
    tensor::set_zero(biases(w, l));
  }
}

template <typename LayerGrad>
scalar_t Mlp::backprop(ConstVecView w, const data::Dataset& d,
                       std::span<const index_t> batch, Workspace& ws,
                       LayerGrad&& layer_grad) const {
  HM_CHECK(static_cast<index_t>(w.size()) == num_params());
  HM_CHECK(!batch.empty());
  HM_CHECK(d.dim() == input_dim() && d.num_classes == num_classes());
  auto& scratch = static_cast<MlpWorkspace&>(ws);
  const auto m = static_cast<index_t>(batch.size());
  const index_t layers = num_layers();

  // Forward: a_0 = X; z_l = a_{l-1} W_l^T + b_l; a_l = relu(z_l) except
  // the output layer, which stays as logits.
  gather_batch(d, batch, scratch.activations[0]);
  for (index_t l = 0; l < layers; ++l) {
    auto& out = scratch.activations[static_cast<std::size_t>(l) + 1];
    out.resize_for_overwrite(m, dims_[static_cast<std::size_t>(l) + 1]);
    tensor::gemm_nt(scratch.activations[static_cast<std::size_t>(l)],
                    weights(w, l), out);
    add_bias_rows(out, biases(w, l));
    if (l + 1 < layers) tensor::relu(out.flat());
  }

  // Loss + output delta: d_L = (softmax - onehot) / m.
  auto& logits = scratch.activations[static_cast<std::size_t>(layers)];
  scalar_t total_loss = 0;
  auto& delta_out = scratch.deltas[static_cast<std::size_t>(layers) - 1];
  delta_out.resize_for_overwrite(m, num_classes());
  const scalar_t inv_m = scalar_t{1} / static_cast<scalar_t>(m);
  for (index_t r = 0; r < m; ++r) {
    const index_t label =
        d.y[static_cast<std::size_t>(batch[static_cast<std::size_t>(r)])];
    ConstVecView row = logits.row(r);
    const scalar_t lse = tensor::log_sum_exp(row);
    total_loss += lse - row[static_cast<std::size_t>(label)];
    VecView drow = delta_out.row(r);
    for (index_t c = 0; c < num_classes(); ++c) {
      const scalar_t p = std::exp(row[static_cast<std::size_t>(c)] - lse);
      drow[static_cast<std::size_t>(c)] =
          (p - (c == label ? 1 : 0)) * inv_m;
    }
  }

  // Backward: d_{l-1} = (d_l W_l) ⊙ relu'(a_{l-1}), then layer l's
  // gradient (gradW_l = d_l^T a_{l-1}, gradb_l = colsum d_l).
  for (index_t l = layers - 1; l >= 0; --l) {
    const auto& delta = scratch.deltas[static_cast<std::size_t>(l)];
    const auto& a_prev = scratch.activations[static_cast<std::size_t>(l)];
    if (l > 0) {
      auto& delta_prev = scratch.deltas[static_cast<std::size_t>(l) - 1];
      delta_prev.resize_for_overwrite(m, dims_[static_cast<std::size_t>(l)]);
      tensor::gemm(delta, weights(w, l), delta_prev);
      tensor::relu_backward(a_prev.flat(), delta_prev.flat());
    }
    layer_grad(l, delta, a_prev);
  }
  return total_loss * inv_m;
}

scalar_t Mlp::loss_and_grad(ConstVecView w, const data::Dataset& d,
                            std::span<const index_t> batch, VecView grad,
                            Workspace& ws) const {
  HM_CHECK(static_cast<index_t>(grad.size()) == num_params());
  return backprop(w, d, batch, ws,
                  [&](index_t l, const tensor::Matrix& delta,
                      const tensor::Matrix& a_prev) {
                    tensor::gemm_tn(delta, a_prev, weights(grad, l));
                    column_sums(delta, biases(grad, l));
                  });
}

scalar_t Mlp::sgd_step(VecView w, const data::Dataset& d,
                       std::span<const index_t> batch, const SgdRule& rule,
                       VecView grad_scratch, Workspace& ws) const {
  if (rule.prox_mu > 0) {
    return Model::sgd_step(w, d, batch, rule, grad_scratch, ws);
  }
  HM_CHECK(static_cast<index_t>(grad_scratch.size()) == num_params());
  // Per element this is axpby(-eta, grad, decay, w) on the gradient that
  // loss_and_grad would have written: gemm_tn's epilogue applies the same
  // two products and one sum, and only the bias gradients pass through
  // grad_scratch.
  return backprop(w, d, batch, ws,
                  [&](index_t l, const tensor::Matrix& delta,
                      const tensor::Matrix& a_prev) {
                    tensor::gemm_tn(delta, a_prev, weights(w, l), rule.decay,
                                    -rule.eta);
                    VecView gb = biases(grad_scratch, l);
                    column_sums(delta, gb);
                    tensor::axpby(-rule.eta, gb, rule.decay, biases(w, l));
                  });
}

scalar_t Mlp::loss(ConstVecView w, const data::Dataset& d,
                   std::span<const index_t> batch, Workspace& ws) const {
  HM_CHECK(!batch.empty());
  // Single-job case of the stacked sweep below (which re-checks shapes).
  const LossJob job{w, &d, batch};
  scalar_t out = 0;
  loss_many(std::span<const LossJob>(&job, 1), std::span<scalar_t>(&out, 1),
            ws);
  return out;
}

void Mlp::loss_many(std::span<const LossJob> jobs, std::span<scalar_t> losses,
                    Workspace& ws, parallel::ThreadPool* pool) const {
  HM_CHECK(losses.size() == jobs.size());
  auto& scratch = static_cast<MlpWorkspace&>(ws);
  const index_t layers = num_layers();
  // Evaluation-only forward: loss() is never compared bit-for-bit against
  // a gradient oracle, so it may use the fused (one-rounding) gemm_nt_fma
  // family — still deterministic across SIMD variants and pool sizes.
  // Blocks span job boundaries within a shared-w run, so the per-layer
  // weight packs (the dominant cost of scoring many small shards one
  // loss() call at a time) are amortized over kEvalBlock rows. Per job
  // the value is bit-identical to a standalone loss() call: a row's
  // forward pass does not depend on its block, and each job's rows
  // accumulate in row order.
  std::size_t g = 0;
  while (g < jobs.size()) {
    std::size_t run_end = g + 1;
    while (run_end < jobs.size() &&
           jobs[run_end].w.data() == jobs[g].w.data() &&
           jobs[run_end].w.size() == jobs[g].w.size()) {
      ++run_end;
    }
    ConstVecView w = jobs[g].w;
    HM_CHECK(static_cast<index_t>(w.size()) == num_params());
    for (std::size_t j = g; j < run_end; ++j) {
      HM_CHECK(!jobs[j].batch.empty());
      HM_CHECK(jobs[j].data->dim() == input_dim() &&
               jobs[j].data->num_classes == num_classes());
      losses[j] = 0;
    }
    detail::EvalBlockCursor cursor(jobs, g, run_end, kEvalBlock);
    while (!cursor.done()) {
      std::size_t wj = cursor.job();
      index_t wr = cursor.row();
      const tensor::ConstMatView x0 =
          cursor.next(scratch.activations[0], pool);
      const index_t mb = x0.rows();
      for (index_t l = 0; l < layers; ++l) {
        auto& out = scratch.activations[static_cast<std::size_t>(l) + 1];
        out.resize_for_overwrite(mb, dims_[static_cast<std::size_t>(l) + 1]);
        const tensor::ConstMatView in =
            l == 0 ? x0
                   : tensor::ConstMatView(
                         scratch.activations[static_cast<std::size_t>(l)]);
        tensor::gemm_nt_fma(in, weights(w, l), out, 0, pool);
        add_bias_rows(out, biases(w, l));
        if (l + 1 < layers) tensor::relu(out.flat());
      }
      const auto& logits =
          scratch.activations[static_cast<std::size_t>(layers)];
      for (index_t r = 0; r < mb; ++r) {
        ConstVecView row = logits.row(r);
        const LossJob& job = jobs[wj];
        const index_t label = job.data->y[static_cast<std::size_t>(
            job.batch[static_cast<std::size_t>(wr)])];
        losses[wj] +=
            tensor::log_sum_exp(row) - row[static_cast<std::size_t>(label)];
        detail::advance(jobs, wj, wr);
      }
    }
    for (std::size_t j = g; j < run_end; ++j) {
      losses[j] /= static_cast<scalar_t>(jobs[j].batch.size());
    }
    g = run_end;
  }
}

void Mlp::predict(ConstVecView w, const data::Dataset& d,
                  std::span<const index_t> batch, std::span<index_t> out,
                  Workspace& ws) const {
  HM_CHECK(batch.size() == out.size());
  auto& scratch = static_cast<MlpWorkspace&>(ws);
  const auto m = static_cast<index_t>(batch.size());
  const index_t layers = num_layers();
  // A fully consecutive batch (the evaluate-everything path) views the
  // dataset rows in place instead of gathering a copy.
  bool consecutive = true;
  for (index_t r = 1; r < m; ++r) {
    if (batch[static_cast<std::size_t>(r)] != batch[0] + r) {
      consecutive = false;
      break;
    }
  }
  tensor::ConstMatView x0(nullptr, 0, 0);
  if (consecutive) {
    x0 = tensor::ConstMatView(d.x.data() + batch[0] * d.dim(), m, d.dim());
  } else {
    gather_batch(d, batch, scratch.activations[0]);
    x0 = scratch.activations[0];
  }
  // Evaluation-only forward: fused kernel, same rationale as loss().
  for (index_t l = 0; l < layers; ++l) {
    auto& act = scratch.activations[static_cast<std::size_t>(l) + 1];
    act.resize_for_overwrite(m, dims_[static_cast<std::size_t>(l) + 1]);
    const tensor::ConstMatView in =
        l == 0 ? x0
               : tensor::ConstMatView(
                     scratch.activations[static_cast<std::size_t>(l)]);
    tensor::gemm_nt_fma(in, weights(w, l), act);
    add_bias_rows(act, biases(w, l));
    if (l + 1 < layers) tensor::relu(act.flat());
  }
  const auto& logits = scratch.activations[static_cast<std::size_t>(layers)];
  for (index_t r = 0; r < m; ++r) {
    out[static_cast<std::size_t>(r)] = tensor::argmax(logits.row(r));
  }
}

Mlp make_paper_mlp(index_t input_dim, index_t num_classes) {
  return Mlp({input_dim, 300, 100, num_classes});
}

}  // namespace hm::nn
