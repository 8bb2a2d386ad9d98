// Coordinator-side liveness ledger for edge servers whose compute rides
// a fallible transport. A simulated FaultPlan *predicts* crashes; this
// tracks crashes that actually happened (a worker process died). The
// trainer folds both through one `edge is down` predicate, so the
// OnFault policies treat a dead process exactly like a planned
// edge-crash fault event.
#pragma once

#include <vector>

#include "core/types.hpp"

namespace hm::sim {

/// Monotone down-set over edge ids: an edge marked down stays down (a
/// crashed worker process is never restarted mid-run).
struct EdgeLiveness {
  void init(index_t n) { down_.assign(static_cast<std::size_t>(n), 0); }
  void mark_down(index_t edge) { down_[static_cast<std::size_t>(edge)] = 1; }
  bool down(index_t edge) const {
    return !down_.empty() && down_[static_cast<std::size_t>(edge)] != 0;
  }

 private:
  std::vector<char> down_;
};

}  // namespace hm::sim
