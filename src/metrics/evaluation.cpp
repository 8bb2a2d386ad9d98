#include "metrics/evaluation.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"
#include "parallel/parallel_for.hpp"

namespace hm::metrics {

namespace {

// One edge's evaluation tasks, each on its own workspace: a task is the
// same computation whichever region or thread runs it.
scalar_t edge_accuracy_task(const nn::Model& model, nn::ConstVecView w,
                            const data::FederatedDataset& fed, index_t e) {
  auto ws = model.make_workspace();
  return nn::accuracy(model, w, fed.edge_test[static_cast<std::size_t>(e)],
                      *ws);
}

scalar_t edge_loss_task(const nn::Model& model, nn::ConstVecView w,
                        const data::FederatedDataset& fed, index_t e) {
  auto ws = model.make_workspace();
  return edge_loss(model, w, fed, e, *ws);
}

}  // namespace

std::vector<scalar_t> per_edge_accuracy(const nn::Model& model,
                                        nn::ConstVecView w,
                                        const data::FederatedDataset& fed,
                                        parallel::ThreadPool& pool) {
  const index_t num_edges = fed.num_edges();
  std::vector<scalar_t> acc(static_cast<std::size_t>(num_edges), 0);
  parallel::parallel_for(
      pool, 0, num_edges,
      [&](index_t e) {
        acc[static_cast<std::size_t>(e)] =
            edge_accuracy_task(model, w, fed, e);
      },
      /*grain=*/1);
  return acc;
}

AccuracySummary summarize(const std::vector<scalar_t>& edge_accuracies) {
  HM_CHECK(!edge_accuracies.empty());
  AccuracySummary s;
  s.worst = edge_accuracies.front();
  s.best = edge_accuracies.front();
  scalar_t total = 0;
  for (const scalar_t a : edge_accuracies) {
    total += a;
    s.worst = std::min(s.worst, a);
    s.best = std::max(s.best, a);
  }
  const auto n = static_cast<scalar_t>(edge_accuracies.size());
  s.average = total / n;
  scalar_t var = 0;
  for (const scalar_t a : edge_accuracies) {
    const scalar_t d_pct = (a - s.average) * 100;  // percentage points
    var += d_pct * d_pct;
  }
  s.variance_pct2 = var / n;
  return s;
}

scalar_t gini_coefficient(std::vector<scalar_t> edge_accuracies) {
  HM_CHECK(!edge_accuracies.empty());
  std::sort(edge_accuracies.begin(), edge_accuracies.end());
  const auto n = static_cast<scalar_t>(edge_accuracies.size());
  scalar_t total = 0, weighted = 0;
  for (std::size_t i = 0; i < edge_accuracies.size(); ++i) {
    HM_CHECK_MSG(edge_accuracies[i] >= 0, "negative accuracy");
    total += edge_accuracies[i];
    weighted += static_cast<scalar_t>(i + 1) * edge_accuracies[i];
  }
  if (total == 0) return 0;
  return (2 * weighted) / (n * total) - (n + 1) / n;
}

scalar_t accuracy_entropy(const std::vector<scalar_t>& edge_accuracies) {
  HM_CHECK(!edge_accuracies.empty());
  scalar_t total = 0;
  for (const scalar_t a : edge_accuracies) {
    HM_CHECK_MSG(a >= 0, "negative accuracy");
    total += a;
  }
  HM_CHECK_MSG(total > 0, "all-zero accuracies");
  scalar_t h = 0;
  for (const scalar_t a : edge_accuracies) {
    if (a <= 0) continue;
    const scalar_t share = a / total;
    h -= share * std::log(share);
  }
  return h;
}

scalar_t worst_fraction_accuracy(std::vector<scalar_t> edge_accuracies,
                                 scalar_t fraction) {
  HM_CHECK(!edge_accuracies.empty());
  HM_CHECK(0 < fraction && fraction <= 1);
  std::sort(edge_accuracies.begin(), edge_accuracies.end());
  const auto k = std::max<index_t>(
      1, static_cast<index_t>(std::llround(
             fraction * static_cast<scalar_t>(edge_accuracies.size()))));
  scalar_t total = 0;
  for (index_t i = 0; i < k; ++i) {
    total += edge_accuracies[static_cast<std::size_t>(i)];
  }
  return total / static_cast<scalar_t>(k);
}

scalar_t edge_loss(const nn::Model& model, nn::ConstVecView w,
                   const data::FederatedDataset& fed, index_t edge,
                   nn::Workspace& ws) {
  HM_CHECK(0 <= edge && edge < fed.num_edges());
  // All shards score at the same w, so one loss_many call fuses them into
  // a single stacked sweep (per shard the value is bit-identical to a
  // standalone loss() call over all_indices).
  const auto n = static_cast<std::size_t>(fed.clients_per_edge);
  std::vector<std::vector<index_t>> batches(n);
  std::vector<nn::LossJob> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const data::Dataset& shard = fed.shard(edge, static_cast<index_t>(i));
    batches[i] = nn::all_indices(shard.size());
    jobs[i] = nn::LossJob{w, &shard, batches[i]};
  }
  std::vector<scalar_t> losses(n);
  model.loss_many(jobs, losses, ws);
  scalar_t total = 0;
  index_t samples = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += losses[i] * static_cast<scalar_t>(jobs[i].data->size());
    samples += jobs[i].data->size();
  }
  return total / static_cast<scalar_t>(samples);
}

std::vector<scalar_t> per_edge_loss(const nn::Model& model,
                                    nn::ConstVecView w,
                                    const data::FederatedDataset& fed,
                                    parallel::ThreadPool& pool) {
  const index_t num_edges = fed.num_edges();
  std::vector<scalar_t> losses(static_cast<std::size_t>(num_edges), 0);
  parallel::parallel_for(
      pool, 0, num_edges,
      [&](index_t e) {
        losses[static_cast<std::size_t>(e)] = edge_loss_task(model, w, fed, e);
      },
      /*grain=*/1);
  return losses;
}

EdgeEvaluation evaluate_edges(const nn::Model& model, nn::ConstVecView w,
                              const data::FederatedDataset& fed,
                              parallel::ThreadPool& pool) {
  const index_t num_edges = fed.num_edges();
  EdgeEvaluation out;
  out.accuracy.assign(static_cast<std::size_t>(num_edges), 0);
  out.loss.assign(static_cast<std::size_t>(num_edges), 0);
  // Loss tasks first: they sweep every client shard of an edge, several
  // times the rows of its test set, so starting them first shortens the
  // region's tail.
  parallel::parallel_for(
      pool, 0, 2 * num_edges,
      [&](index_t t) {
        if (t < num_edges) {
          out.loss[static_cast<std::size_t>(t)] =
              edge_loss_task(model, w, fed, t);
        } else {
          const index_t e = t - num_edges;
          out.accuracy[static_cast<std::size_t>(e)] =
              edge_accuracy_task(model, w, fed, e);
        }
      },
      /*grain=*/1);
  return out;
}

}  // namespace hm::metrics
