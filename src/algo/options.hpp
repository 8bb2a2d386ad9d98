// Shared configuration and result types for all five federated
// algorithms, so benchmark comparisons are apples-to-apples.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "algo/projection.hpp"
#include "io/snapshot.hpp"
#include "metrics/history.hpp"
#include "net/transport.hpp"
#include "sim/comm.hpp"
#include "sim/fault.hpp"

namespace hm::algo {

/// Degradation policy when a sampled participant (client or edge) fails
/// to report its update for a round (sim/fault.hpp).
enum class OnFault {
  /// Drop the casualties and renormalize the surviving participants'
  /// aggregation weights to sum to 1 (the FedAvg-style default).
  kRenormalize,
  /// Substitute each casualty's last delivered update, geometrically
  /// decayed toward the broadcast model by its staleness:
  /// contribution = decay^age * stale + (1 - decay^age) * broadcast.
  /// A participant that never delivered contributes the broadcast model.
  kReuseStale,
  /// Abandon the round's aggregation entirely: the global model and the
  /// minimax weights stay unchanged (traffic is still charged — the
  /// failure is discovered mid-round).
  kSkipRound,
};

/// How surviving participants' model reports are combined. kMean is the
/// exact pre-existing weighted average (bit-identical code path); the
/// robust policies defend against Byzantine reports at the cost of
/// statistical efficiency. Applies to every *model* aggregation step
/// (client->edge and edge->cloud); checkpoint averaging for Phase-2 loss
/// estimation always uses the mean (the checkpoint is a variance-reduction
/// device, not an attack surface the defender controls).
enum class Aggregate {
  /// Weighted arithmetic mean (the default; fixed fused-kernel
  /// reduction order).
  kMean,
  /// Coordinate-wise weighted median. Ties at exactly half the total
  /// weight take the midpoint of the two straddling values, with inputs
  /// ordered by (value, input index) — deterministic at 0 ULP.
  kMedian,
  /// Coordinate-wise trimmed mean: drop floor(trim_frac * total) weight
  /// units from each end of the sorted coordinate values (capped so at
  /// least one unit survives), average the rest in sorted order.
  kTrimmedMean,
};

struct TrainOptions {
  index_t rounds = 100;          // K — cloud-level training rounds
  index_t tau1 = 1;              // local SGD steps per aggregation
  index_t tau2 = 1;              // client-edge aggregations per round
                                 // (three-layer methods only)
  std::vector<index_t> taus;     // hierarchical trainers: blocks per tree
                                 // level, outermost first, one entry per
                                 // level (taus.back() = local steps);
                                 // empty = {tau2, tau1}. Exclusive with a
                                 // non-default tau1/tau2 (resolve_taus).
  index_t batch_size = 1;        // mini-batch size for local SGD
  scalar_t eta_w = 0.01;         // model learning rate
  scalar_t eta_p = 0.01;         // weight-vector learning rate
  index_t sampled_edges = 0;     // m_E; 0 = all edges participate
  index_t sampled_clients = 0;   // m for two-layer methods; 0 = all
  scalar_t w_radius = 0;         // L2-ball radius for W; 0 = W = R^d
  scalar_t weight_decay = 0;     // decoupled L2 regularization per SGD step
  scalar_t prox_mu = 0;          // FedProx proximal term strength (0 = off)
  SimplexSet p_set;              // the constraint set P
  seed_t seed = 1;
  index_t eval_every = 10;       // per-edge evaluation cadence in rounds
                                 // (0 = final round only)
  index_t loss_est_batch = 32;   // mini-batch for Phase-2 loss estimation
                                 // (0 = full client shard)
  int quantize_bits = 0;         // stochastic uplink quantization (bits per
                                 // coordinate; 0 = off) a la Hier-Local-QSGD
  bool use_checkpoint = true;    // minimax trainers (HierMinimax, DRFA,
                                 // Stochastic-AFL): ablation switch — when
                                 // false, Phase 2 estimates losses on the
                                 // round's aggregate w^(k+1) (before its
                                 // projection) instead of the random
                                 // checkpoint of Eq. (6)
  scalar_t q = 1;                // q-FFL's fairness exponent, >= 0; q = 0
                                 // is FedAvg with the normalized update

  // Fault injection (sim/fault.hpp). The default spec is disabled and the
  // trainers take their fault-free path bit-identically; an enabled spec
  // with zero probabilities is also bit-identical to the fault-free path
  // in model outputs (only delivery counters differ).
  sim::FaultSpec fault;
  OnFault on_fault = OnFault::kRenormalize;
  scalar_t stale_decay = 0.5;    // kReuseStale: per-round-of-age decay of a
                                 // casualty's stale update toward the
                                 // broadcast model, in [0, 1]
  Aggregate aggregate = Aggregate::kMean;  // model-report combiner
  scalar_t trim_frac = 0.2;      // kTrimmedMean: weight fraction trimmed
                                 // from each end, in [0, 0.5)

  // Crash-safe snapshots (io/snapshot.hpp). When `snapshot.enabled()`,
  // the trainer writes a durable full-state snapshot after every
  // `every_k_rounds`-th round. When `resume_from` names a snapshot
  // directory, training restarts from its newest valid snapshot and the
  // remaining trajectory is bit-identical to the uninterrupted run. Every
  // snapshot carries the run's options_record, and a resume whose record
  // differs throws CheckError naming the first differing option. Only
  // `snapshot`, `resume_from` and `transport` are exempt: the first two
  // say where state is stored, and every transport is bit-identical to
  // the in-process oracle. An empty/missing directory is a fresh start.
  io::SnapshotPolicy snapshot;
  std::string resume_from;

  // Transport backend (net/transport.hpp) for the hierarchical trainers
  // (HierMinimax and HierFAVG); the two-layer trainers reject anything
  // but kInproc. kInproc is the oracle (direct calls, no serialization);
  // kLoopback routes every edge exchange through the wire codec
  // in-process (never fails); kSocket forks `transport.workers` worker
  // processes, each serving the edges with id % workers == lane. All
  // three produce bit-identical (w, p, history) trajectories; under
  // kSocket a worker crash surfaces as the corresponding edges' crash
  // fault events and is handled by `on_fault` exactly like a planned
  // edge crash.
  net::TransportSpec transport;
};

/// The blocks per level of a depth-`depth` tree, outermost first:
/// opts.taus, else {tau2, tau1} at depth 2 and {tau1} at depth 1 (the
/// two-layer trainers' flat client set). Throws CheckError when taus is
/// set beside a non-default tau1/tau2 or has not one entry per level.
std::vector<index_t> resolve_taus(const TrainOptions& opts, index_t depth);

/// A run's trajectory-shaping options as (name, canonical value) rows in
/// the fixed order of algo/options.cpp's table: the tree branching (the
/// two-layer trainers pass {number of clients}), resolve_taus over it,
/// and every other option. Doubles render shortest round-trip, so equal
/// strings mean equal bits.
using OptionsRecord = std::vector<std::pair<std::string, std::string>>;
OptionsRecord options_record(const TrainOptions& opts,
                             const std::vector<index_t>& tree);

struct TrainResult {
  std::vector<scalar_t> w;       // final global model w^(K)
  std::vector<scalar_t> w_avg;   // running average of w^(k) (the ŵ of §5.1)
  std::vector<scalar_t> p;       // final weights (uniform for min methods)
  std::vector<scalar_t> p_avg;   // time-averaged weights (the p̂ of §5.1)
  metrics::TrainingHistory history;
  sim::CommStats comm;
  // Socket worker deaths the transport's KillSpec did not plan (always 0
  // in-process); the on_fault policy still decides how training degrades.
  std::uint64_t unplanned_deaths = 0;
};

}  // namespace hm::algo
