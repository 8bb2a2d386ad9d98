// Per-edge-area evaluation and fairness summary statistics — the
// quantities reported in the paper's Figs. 3–4 and Table 2.
#pragma once

#include <vector>

#include "data/federated.hpp"
#include "nn/model.hpp"
#include "parallel/thread_pool.hpp"

namespace hm::metrics {

/// Test accuracy of model `w` on every edge area's test set, evaluated in
/// parallel (one task per edge).
std::vector<scalar_t> per_edge_accuracy(const nn::Model& model,
                                        nn::ConstVecView w,
                                        const data::FederatedDataset& fed,
                                        parallel::ThreadPool& pool);

struct AccuracySummary {
  scalar_t average = 0;        // mean over edge areas
  scalar_t worst = 0;          // min over edge areas
  scalar_t best = 0;           // max over edge areas
  scalar_t variance_pct2 = 0;  // population variance of accuracies *in
                               // percentage points*, the unit of Table 2
};

AccuracySummary summarize(const std::vector<scalar_t>& edge_accuracies);

/// Gini coefficient of the edge accuracies (0 = perfectly uniform,
/// -> 1 = maximally concentrated) — a scale-free fairness index used in
/// the fair-FL literature alongside variance.
scalar_t gini_coefficient(std::vector<scalar_t> edge_accuracies);

/// Shannon entropy (nats) of the normalized accuracy distribution;
/// maximal (log N_E) when accuracies are uniform across edges.
scalar_t accuracy_entropy(const std::vector<scalar_t>& edge_accuracies);

/// Mean accuracy of the worst `fraction` of edge areas (Table 2's
/// "worst 10%" metric for the 100-edge Synthetic dataset).
scalar_t worst_fraction_accuracy(std::vector<scalar_t> edge_accuracies,
                                 scalar_t fraction);

/// Mean training loss of `w` on edge e (full shard pass over all of that
/// edge's clients) — the exact f_e(w) used by duality-gap evaluation.
scalar_t edge_loss(const nn::Model& model, nn::ConstVecView w,
                   const data::FederatedDataset& fed, index_t edge,
                   nn::Workspace& ws);

/// All edge losses, in parallel.
std::vector<scalar_t> per_edge_loss(const nn::Model& model,
                                    nn::ConstVecView w,
                                    const data::FederatedDataset& fed,
                                    parallel::ThreadPool& pool);

/// Per-edge test accuracy and training loss of `w`.
struct EdgeEvaluation {
  std::vector<scalar_t> accuracy;  // per_edge_accuracy
  std::vector<scalar_t> loss;      // per_edge_loss
};

/// per_edge_accuracy and per_edge_loss in one parallel region of 2*N_E
/// tasks, loss tasks first: one dispatch instead of two back-to-back ones,
/// and the short accuracy tasks fill in behind the long loss tasks. Each
/// value is bit-identical to the separate calls.
EdgeEvaluation evaluate_edges(const nn::Model& model, nn::ConstVecView w,
                              const data::FederatedDataset& fed,
                              parallel::ThreadPool& pool);

}  // namespace hm::metrics
