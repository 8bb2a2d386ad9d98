// HierMinimax (Algorithm 1 of the paper): hierarchical distributed
// minimax optimization over the client-edge-cloud architecture, and over
// any deeper tree (the paper's §1/§3 multi-layer claim).
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
// On an L-level tree (sim::MultiTopology) the areas are the depth-1
// subtrees and opts.taus gives the blocks per level: a depth-l node runs
// taus[l-1] blocks of its children per block of its parent, and a leaf
// runs taus.back() local SGD steps per innermost block. The checkpoint
// is the leaf iterate after c1 in [1, taus.back()] steps of innermost
// block c2 (counted over the whole round), averaged up the tree like the
// models, and Eq. (7) steps by eta_p * prod(taus). Interior servers are
// reliable and take the plain mean; the robust combiner (opts.aggregate)
// runs where reports can be Byzantine: at the leaves' parents and at
// the cloud. With empty taus the tree must have depth 2 and taus is
// {tau2, tau1}, which is Algorithm 1 exactly.
//
// The same round engine runs train_hierfavg (algo/hierminimax.cpp);
// opts.transport picks where the areas compute.
#pragma once

#include "algo/options.hpp"
#include "data/federated.hpp"
#include "nn/model.hpp"
#include "sim/topology.hpp"

namespace hm::algo {

/// Train with HierMinimax. `fed` must have one shard per topology leaf
/// and one test set per area (clients_per_edge == topo.leaves_per_area()).
/// Uses opts.taus (or tau1, tau2), opts.sampled_edges (m_E, for both
/// phases), opts.eta_w, opts.eta_p, opts.p_set.
TrainResult train_hierminimax(const nn::Model& model,
                              const data::FederatedDataset& fed,
                              const sim::MultiTopology& topo,
                              const TrainOptions& opts,
                              parallel::ThreadPool& pool);

}  // namespace hm::algo
