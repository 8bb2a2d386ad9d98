#include "nn/softmax_regression.hpp"

#include "nn/eval_sweep.hpp"

#include <cmath>

#include "core/check.hpp"
#include "tensor/activations.hpp"
#include "tensor/gemm.hpp"
#include "tensor/vecops.hpp"

namespace hm::nn {

namespace {

struct SoftmaxWorkspace final : Workspace {
  std::vector<scalar_t> logits;
  tensor::Matrix xb;          // gathered sample block (eval path)
  tensor::Matrix logit_rows;  // block x classes (eval path)
};

/// Row-block size for the evaluation paths: large enough that the weight
/// matrix pack is amortized over many samples per fused sweep, small
/// enough that the gathered block stays cache-resident.
constexpr index_t kEvalBlock = 256;

/// View of row c of the weight matrix inside the flat parameter vector.
inline ConstVecView weight_row(ConstVecView w, index_t dim, index_t c) {
  return w.subspan(static_cast<std::size_t>(c * dim),
                   static_cast<std::size_t>(dim));
}

inline scalar_t bias(ConstVecView w, index_t dim, index_t classes,
                     index_t c) {
  return w[static_cast<std::size_t>(classes * dim + c)];
}

/// logits_c = <W_c, x> + b_c for all classes.
void compute_logits(ConstVecView w, index_t dim, index_t classes,
                    ConstVecView x, std::vector<scalar_t>& logits) {
  logits.resize(static_cast<std::size_t>(classes));
  for (index_t c = 0; c < classes; ++c) {
    logits[static_cast<std::size_t>(c)] =
        tensor::dot(weight_row(w, dim, c), x) + bias(w, dim, classes, c);
  }
}

/// View of one row block of the batch: consecutive index ranges (the
/// evaluate-everything path) view the data matrix in place; anything else
/// gathers the rows into scratch. Either way the rows are bitwise the
/// dataset rows, so downstream reductions are unchanged.
tensor::ConstMatView gather_block(const data::Dataset& d,
                                  std::span<const index_t> batch,
                                  index_t r0, index_t mb,
                                  tensor::Matrix& xb) {
  const index_t first = batch[static_cast<std::size_t>(r0)];
  bool consecutive = true;
  for (index_t r = 1; r < mb; ++r) {
    if (batch[static_cast<std::size_t>(r0 + r)] != first + r) {
      consecutive = false;
      break;
    }
  }
  if (consecutive) {
    return tensor::ConstMatView(d.x.data() + first * d.dim(), mb, d.dim());
  }
  xb.resize_for_overwrite(mb, d.dim());
  for (index_t r = 0; r < mb; ++r) {
    tensor::copy(d.x.row(batch[static_cast<std::size_t>(r0 + r)]),
                 xb.row(r));
  }
  return xb;
}

}  // namespace

SoftmaxRegression::SoftmaxRegression(index_t input_dim, index_t num_classes)
    : dim_(input_dim), classes_(num_classes) {
  HM_CHECK(input_dim > 0 && num_classes >= 2);
}

std::unique_ptr<Workspace> SoftmaxRegression::make_workspace() const {
  return std::make_unique<SoftmaxWorkspace>();
}

void SoftmaxRegression::init_params(VecView w, rng::Xoshiro256&) const {
  // Zero init: standard (and optimal-start) for convex logistic regression.
  HM_CHECK(static_cast<index_t>(w.size()) == num_params());
  tensor::set_zero(w);
}

scalar_t SoftmaxRegression::loss_and_grad(ConstVecView w,
                                          const data::Dataset& d,
                                          std::span<const index_t> batch,
                                          VecView grad, Workspace& ws) const {
  HM_CHECK(static_cast<index_t>(w.size()) == num_params());
  HM_CHECK(static_cast<index_t>(grad.size()) == num_params());
  HM_CHECK(!batch.empty());
  HM_CHECK(d.dim() == dim_ && d.num_classes == classes_);
  auto& scratch = static_cast<SoftmaxWorkspace&>(ws);
  tensor::set_zero(grad);
  const scalar_t inv_m = scalar_t{1} / static_cast<scalar_t>(batch.size());

  scalar_t total_loss = 0;
  for (const index_t i : batch) {
    ConstVecView x = d.x.row(i);
    const index_t label = d.y[static_cast<std::size_t>(i)];
    compute_logits(w, dim_, classes_, x, scratch.logits);
    const scalar_t lse = tensor::log_sum_exp(
        tensor::ConstVecView(scratch.logits));
    total_loss += lse - scratch.logits[static_cast<std::size_t>(label)];
    // dL/dlogit_c = softmax_c - 1[c == label]; accumulate outer product.
    for (index_t c = 0; c < classes_; ++c) {
      const scalar_t p =
          std::exp(scratch.logits[static_cast<std::size_t>(c)] - lse);
      const scalar_t coeff = (p - (c == label ? 1 : 0)) * inv_m;
      if (coeff == 0) continue;
      tensor::axpy(coeff, x,
                   grad.subspan(static_cast<std::size_t>(c * dim_),
                                static_cast<std::size_t>(dim_)));
      grad[static_cast<std::size_t>(classes_ * dim_ + c)] += coeff;
    }
  }
  return total_loss * inv_m;
}

scalar_t SoftmaxRegression::loss(ConstVecView w, const data::Dataset& d,
                                 std::span<const index_t> batch,
                                 Workspace& ws) const {
  HM_CHECK(!batch.empty());
  // Single-job case of the stacked sweep below (which re-checks shapes).
  const LossJob job{w, &d, batch};
  scalar_t out = 0;
  loss_many(std::span<const LossJob>(&job, 1), std::span<scalar_t>(&out, 1),
            ws);
  return out;
}

void SoftmaxRegression::loss_many(std::span<const LossJob> jobs,
                                  std::span<scalar_t> losses, Workspace& ws,
                                  parallel::ThreadPool* pool) const {
  HM_CHECK(losses.size() == jobs.size());
  auto& scratch = static_cast<SoftmaxWorkspace&>(ws);
  // Blocked evaluation: one fused gemm per row block computes every
  // sample's logits at full kernel throughput, and blocks span job
  // boundaries within a shared-w run so small jobs amortize the weight
  // pack. The gemm_nt_fma rounding differs from compute_logits; the
  // result is still deterministic for any thread count and SIMD level.
  // Per job the value is bit-identical to a standalone loss() call: each
  // row's logits do not depend on its block, and each job's rows
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
    const tensor::ConstMatView wm(w.data(), classes_, dim_);
    for (std::size_t j = g; j < run_end; ++j) {
      HM_CHECK(!jobs[j].batch.empty());
      HM_CHECK(jobs[j].data->dim() == dim_);
      losses[j] = 0;
    }
    // The weight pack is only ~classes*dim doubles (63 KB for the paper
    // softmax), so in-place views beat gathering for any moderately long
    // consecutive run — the full-shard evaluators pay zero row copies.
    detail::EvalBlockCursor cursor(jobs, g, run_end, kEvalBlock,
                                   /*min_view_rows=*/32);
    while (!cursor.done()) {
      std::size_t wj = cursor.job();
      index_t wr = cursor.row();
      const tensor::ConstMatView xb = cursor.next(scratch.xb, pool);
      const index_t mb = xb.rows();
      scratch.logit_rows.resize_for_overwrite(mb, classes_);
      tensor::gemm_nt_fma(xb, wm, scratch.logit_rows, 0, pool);
      for (index_t r = 0; r < mb; ++r) {
        VecView row = scratch.logit_rows.row(r);
        for (index_t c = 0; c < classes_; ++c) {
          row[static_cast<std::size_t>(c)] += bias(w, dim_, classes_, c);
        }
        const scalar_t lse = tensor::log_sum_exp(row);
        const LossJob& job = jobs[wj];
        const index_t label = job.data->y[static_cast<std::size_t>(
            job.batch[static_cast<std::size_t>(wr)])];
        losses[wj] += lse - row[static_cast<std::size_t>(label)];
        detail::advance(jobs, wj, wr);
      }
    }
    for (std::size_t j = g; j < run_end; ++j) {
      losses[j] /= static_cast<scalar_t>(jobs[j].batch.size());
    }
    g = run_end;
  }
}

void SoftmaxRegression::predict(ConstVecView w, const data::Dataset& d,
                                std::span<const index_t> batch,
                                std::span<index_t> out, Workspace& ws) const {
  HM_CHECK(batch.size() == out.size());
  auto& scratch = static_cast<SoftmaxWorkspace&>(ws);
  // Same blocked gemm_nt_fma sweep as loss(); argmax runs over the
  // deterministic fused logits.
  const tensor::ConstMatView wm(w.data(), classes_, dim_);
  const auto n = static_cast<index_t>(batch.size());
  for (index_t r0 = 0; r0 < n; r0 += kEvalBlock) {
    const index_t mb = std::min(kEvalBlock, n - r0);
    const tensor::ConstMatView xb =
        gather_block(d, batch, r0, mb, scratch.xb);
    scratch.logit_rows.resize_for_overwrite(mb, classes_);
    tensor::gemm_nt_fma(xb, wm, scratch.logit_rows);
    for (index_t r = 0; r < mb; ++r) {
      VecView row = scratch.logit_rows.row(r);
      for (index_t c = 0; c < classes_; ++c) {
        row[static_cast<std::size_t>(c)] += bias(w, dim_, classes_, c);
      }
      out[static_cast<std::size_t>(r0 + r)] = tensor::argmax(row);
    }
  }
}

}  // namespace hm::nn
