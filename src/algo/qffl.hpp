// q-FFL / q-FedAvg (Li et al., "Fair Resource Allocation in Federated
// Learning", ICLR'20 [19]) — an *additional* fairness baseline beyond the
// paper's comparisons: instead of a minimax game over weights, it
// reshapes the objective to (1/(q+1)) sum_k F_k^{q+1}, which upweights
// high-loss clients smoothly. q = 0 recovers FedAvg exactly.
//
// Per round (q-FedAvg): sample m clients uniformly; client k evaluates
// its loss F_k at the broadcast model, runs tau1 local SGD steps to
// w_bar_k, and reports Delta w_k = L (w - w_bar_k) with L = 1/eta_w;
// the server applies
//   w <- w - sum_k F_k^q Delta w_k / sum_k (q F_k^{q-1} ||Delta w_k||^2
//                                           + L F_k^q).
#pragma once

#include "algo/options.hpp"
#include "data/federated.hpp"
#include "nn/model.hpp"

namespace hm::algo {

/// Train with q-FedAvg at fairness exponent opts.q (>= 0; q = 0 is
/// FedAvg with the normalized update rule). Uses opts.tau1 local steps,
/// opts.sampled_clients and opts.quantize_bits; an enabled opts.fault or
/// a non-mean opts.aggregate is a CheckError (the update is its own
/// aggregation).
TrainResult train_qffl(const nn::Model& model,
                       const data::FederatedDataset& fed,
                       const TrainOptions& opts, parallel::ThreadPool& pool);

}  // namespace hm::algo
