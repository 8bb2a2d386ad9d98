// HierFAVG (Liu et al., ICC'20): hierarchical federated averaging over
// the client-edge-cloud architecture — the three-layer *minimization*
// baseline of the paper (problem (1); no weight adaptation) — and its
// L-level generalization (multi-level local SGD a la Castiglia et al.
// [5]) on any sim::MultiTopology with opts.taus.
//
// Each round: sample m_E edges uniformly; each runs tau2 client-edge
// aggregation blocks of tau1 local SGD steps; the cloud averages the
// edge models. It is HierMinimax's round engine (algo/hierminimax.cpp)
// without the checkpoint and Phase 2, so it runs over every transport
// backend (opts.transport) with the same faults, attacks and snapshots.
#pragma once

#include "algo/options.hpp"
#include "data/federated.hpp"
#include "nn/model.hpp"
#include "sim/topology.hpp"

namespace hm::algo {

TrainResult train_hierfavg(const nn::Model& model,
                           const data::FederatedDataset& fed,
                           const sim::MultiTopology& topo,
                           const TrainOptions& opts,
                           parallel::ThreadPool& pool);

}  // namespace hm::algo
