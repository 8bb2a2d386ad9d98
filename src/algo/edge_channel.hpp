// The trainer's view of "run phase 1 / phase 2 on the areas": an
// exchange boundary that either calls EdgeProgram directly (in-proc,
// bit-exact oracle) or ships the round state over a net::Transport to
// per-lane EdgeProgram replicas (loopback or forked socket workers).
//
// Failure contract: a backend over a fallible transport marks the edges
// of a dead lane in the sim::EdgeLiveness ledger instead of throwing.
// The trainer folds `live` into the same degraded-aggregation paths that
// planned edge-crash faults take, so OnFault::{kRenormalize,
// kReuseStale, kSkipRound} govern real process deaths too.
#pragma once

#include <memory>
#include <vector>

#include "algo/edge_program.hpp"
#include "data/federated.hpp"
#include "nn/model.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/liveness.hpp"

namespace hm::algo::detail {

class EdgeChannel {
 public:
  virtual ~EdgeChannel() = default;

  /// Run phase 1 on the participating `edges` (see EdgeProgram::phase1
  /// for the buffer contract). On a fallible backend, edges served by a
  /// lane that is down — or dies during the exchange — are marked in
  /// `live` and get edge_has_ckpt = 0; their edge_w slots keep the
  /// freshly seeded broadcast model, exactly like a planned edge crash.
  virtual void phase1(index_t k, index_t c1, index_t c2,
                      const std::vector<index_t>& edges,
                      const std::vector<scalar_t>& w,
                      std::vector<std::vector<scalar_t>>& edge_w,
                      std::vector<std::vector<scalar_t>>& edge_ckpt,
                      std::vector<char>& edge_has_ckpt,
                      sim::EdgeLiveness& live) = 0;

  /// Run phase 2 on the loss-estimation `edges` (see EdgeProgram::phase2
  /// for the alignment contract). Dead lanes leave their jobs' loss
  /// slots untouched and mark their edges in `live`.
  virtual void phase2(index_t k, const std::vector<index_t>& edges,
                      const std::vector<scalar_t>& checkpoint,
                      const std::vector<char>& client_ok,
                      std::vector<scalar_t>& client_losses,
                      sim::EdgeLiveness& live) = 0;

  /// Worker deaths so far that no KillSpec planned (0 in-process).
  virtual std::uint64_t unplanned_deaths() const { return 0; }
};

/// Build the channel selected by h.opts.transport.kind. For kSocket the
/// worker processes are forked here and torn down by the destructor.
std::unique_ptr<EdgeChannel> make_edge_channel(
    const nn::Model& model, const data::FederatedDataset& fed,
    const Hierarchy& h, parallel::ThreadPool& pool);

}  // namespace hm::algo::detail
