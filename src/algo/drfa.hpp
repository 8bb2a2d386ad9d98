// DRFA (Deng et al., NeurIPS'20) and Stochastic-AFL (Mohri et al.,
// ICML'19): the two-layer minimax baselines.
//
// DRFA per round: sample m clients by the weight vector q (with
// replacement), run tau1 local SGD steps with a random checkpoint index
// c in [tau1]; average final models and checkpoint models; then sample m
// clients uniformly, estimate losses at the checkpoint, and ascend
// q <- Proj(q + eta_p * tau1 * v). Stochastic-AFL is the tau1 = 1
// special case (one local step per round).
//
// The weight vector here is over *clients*, matching the original
// two-layer formulations; evaluation remains per edge area.
#pragma once

#include "algo/options.hpp"
#include "data/federated.hpp"
#include "nn/model.hpp"

namespace hm::algo {

TrainResult train_drfa(const nn::Model& model,
                       const data::FederatedDataset& fed,
                       const TrainOptions& opts, parallel::ThreadPool& pool);

/// Stochastic-AFL == DRFA with a single local step per round.
TrainResult train_stochastic_afl(const nn::Model& model,
                                 const data::FederatedDataset& fed,
                                 const TrainOptions& opts,
                                 parallel::ThreadPool& pool);

}  // namespace hm::algo
