// Client–edge–cloud topology description (Fig. 1 of the paper): a
// hub-and-spoke tree where every edge server talks to the cloud and each
// client is attached to exactly one edge server.
#pragma once

#include "core/check.hpp"
#include "core/types.hpp"

namespace hm::sim {

class HierTopology {
 public:
  /// Uniform topology: `num_edges` edge areas with `clients_per_edge`
  /// clients each (N = N_E * N_0, the paper's setting).
  HierTopology(index_t num_edges, index_t clients_per_edge)
      : num_edges_(num_edges), clients_per_edge_(clients_per_edge) {
    HM_CHECK(num_edges > 0 && clients_per_edge > 0);
  }

  index_t num_edges() const { return num_edges_; }           // N_E
  index_t clients_per_edge() const { return clients_per_edge_; }  // N_0
  index_t num_clients() const { return num_edges_ * clients_per_edge_; }

 private:
  index_t num_edges_;
  index_t clients_per_edge_;
};

}  // namespace hm::sim
