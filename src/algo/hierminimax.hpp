// HierMinimax (Algorithm 1 of the paper): hierarchical distributed
// minimax optimization over the client-edge-cloud architecture.
//
// Each training round k:
//   Phase 1 (model update): the cloud samples m_E edge areas by the
//     current weights p^(k) (with replacement, so Eq. (5) is unbiased)
//     and a checkpoint index (c1, c2) uniform on [tau1] x [tau2]. Every
//     sampled edge runs tau2 client-edge aggregation blocks, each of
//     tau1 projected local SGD steps per client (Eq. 4); the block-c2
//     iterate after c1 steps is captured as the checkpoint. The cloud
//     averages final edge models (Eq. 5) and checkpoint models (Eq. 6).
//   Phase 2 (weight update): the cloud samples m_E edges *uniformly*,
//     broadcasts the checkpoint model, collects mini-batch loss
//     estimates, forms the unbiased gradient estimate v with
//     v_e = (N_E / m_E) f_e(checkpoint), and ascends
//     p^(k+1) = Proj_P(p^(k) + eta_p * tau1 * tau2 * v)   (Eq. 7).
//
// The same round engine runs train_hierfavg and the L-level trainers
// (algo/hierminimax.cpp); opts.transport picks where the edges compute.
#pragma once

#include "algo/options.hpp"
#include "data/federated.hpp"
#include "nn/model.hpp"
#include "sim/topology.hpp"

namespace hm::algo {

/// Train with HierMinimax. `fed` must have one shard per topology client
/// and one test set per edge. Uses opts.tau1, opts.tau2, opts.sampled_edges
/// (m_E, for both phases), opts.eta_w, opts.eta_p, opts.p_set.
TrainResult train_hierminimax(const nn::Model& model,
                              const data::FederatedDataset& fed,
                              const sim::HierTopology& topo,
                              const TrainOptions& opts,
                              parallel::ThreadPool& pool);

/// Overload on the global thread pool.
TrainResult train_hierminimax(const nn::Model& model,
                              const data::FederatedDataset& fed,
                              const sim::HierTopology& topo,
                              const TrainOptions& opts);

}  // namespace hm::algo
