// FedAvg (McMahan et al., AISTATS'17): the standard two-layer federated
// minimization baseline. Clients communicate with the server directly
// over the wide-area segment (charged as edge-cloud traffic); each round
// samples m clients uniformly, runs tau1 local SGD steps, and averages.
#pragma once

#include "algo/options.hpp"
#include "data/federated.hpp"
#include "nn/model.hpp"

namespace hm::algo {

TrainResult train_fedavg(const nn::Model& model,
                         const data::FederatedDataset& fed,
                         const TrainOptions& opts,
                         parallel::ThreadPool& pool);

}  // namespace hm::algo
