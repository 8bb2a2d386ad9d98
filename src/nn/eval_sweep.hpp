// Block scheduler shared by the models' loss_many overrides.
//
// A loss_many call receives a run of jobs that score different dataset
// shards at one shared parameter vector. The cursor walks the stacked
// (job, row) sequence and carves it into evaluation blocks two ways:
//
//  - a long consecutive index range inside one job becomes an in-place
//    view of the dataset rows (no copy — the full-shard evaluators pass
//    all_indices, so the whole shard is one view);
//  - everything else is gathered into scratch in blocks of `block_rows`,
//    which may span job boundaries so that many small random batches
//    (the trainers' loss-estimation phases) still fill the kernels and
//    amortize the weight-operand packing across jobs.
//
// Either way the rows visit in stacked job order and each row is bitwise
// a dataset row, so per-job reductions match a per-job loss() call.
#pragma once

#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "nn/model.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/matrix.hpp"
#include "tensor/vecops.hpp"

namespace hm::nn::detail {

/// Advance (job, row) by one row in the stacked sequence.
inline void advance(std::span<const LossJob> jobs, std::size_t& j,
                    index_t& r) {
  if (++r >= static_cast<index_t>(jobs[j].batch.size())) {
    ++j;
    r = 0;
  }
}

class EvalBlockCursor {
 public:
  /// Walk jobs [first, last); blocks gather at most `block_rows` rows.
  /// A consecutive index run of at least `min_view_rows` becomes an
  /// in-place view instead of being gathered — models with cheap weight
  /// packs (softmax) lower it so full-shard jobs skip the row copies,
  /// models with expensive packs (MLP) keep it at block_rows so short
  /// runs still stack into pack-amortizing blocks.
  EvalBlockCursor(std::span<const LossJob> jobs, std::size_t first,
                  std::size_t last, index_t block_rows,
                  index_t min_view_rows = 0)
      : jobs_(jobs),
        cj_(first),
        last_(last),
        block_rows_(block_rows),
        min_view_rows_(min_view_rows > 0 ? min_view_rows : block_rows) {}

  bool done() const { return cj_ >= last_; }

  /// Job/row position of the next block's first row.
  std::size_t job() const { return cj_; }
  index_t row() const { return cr_; }

  /// Produce the next block and advance the cursor past its rows. A
  /// gathered block copies its rows on `pool` (null: on the caller), in
  /// fixed row chunks; the copy is exact, so the block is the same bytes.
  tensor::ConstMatView next(tensor::Matrix& scratch,
                            parallel::ThreadPool* pool = nullptr) {
    const LossJob& head = jobs_[cj_];
    const auto n = static_cast<index_t>(head.batch.size());
    const index_t first = head.batch[static_cast<std::size_t>(cr_)];
    index_t consec = 1;
    while (cr_ + consec < n &&
           head.batch[static_cast<std::size_t>(cr_ + consec)] ==
               first + consec) {
      ++consec;
    }
    if (consec >= min_view_rows_) {
      // In-place: the dataset rows themselves are the block.
      const tensor::ConstMatView block(
          head.data->x.data() + first * head.data->dim(), consec,
          head.data->dim());
      cr_ += consec;
      if (cr_ >= n) {
        ++cj_;
        cr_ = 0;
      }
      return block;
    }
    const index_t dim = head.data->dim();
    scratch.resize_for_overwrite(block_rows_, dim);
    rows_.clear();
    while (static_cast<index_t>(rows_.size()) < block_rows_ && cj_ < last_) {
      const LossJob& job = jobs_[cj_];
      rows_.push_back(
          job.data->x.row(job.batch[static_cast<std::size_t>(cr_)]));
      advance(jobs_, cj_, cr_);
    }
    const auto mb = static_cast<index_t>(rows_.size());
    const auto copy_row = [&](index_t r) {
      tensor::copy(rows_[static_cast<std::size_t>(r)], scratch.row(r));
    };
    if (pool != nullptr) {
      parallel::parallel_for(*pool, 0, mb, copy_row, kGatherGrain);
    } else {
      for (index_t r = 0; r < mb; ++r) copy_row(r);
    }
    return tensor::ConstMatView(scratch.data(), mb, dim);
  }

 private:
  /// Rows per gather chunk: a pool splits a 192-row block in 12.
  static constexpr index_t kGatherGrain = 16;

  std::span<const LossJob> jobs_;
  std::size_t cj_;
  std::size_t last_;
  index_t cr_ = 0;
  index_t block_rows_;
  index_t min_view_rows_;
  std::vector<tensor::ConstVecView> rows_;  // the block being gathered
};

}  // namespace hm::nn::detail
