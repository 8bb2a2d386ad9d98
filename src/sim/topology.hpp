// Client–edge–cloud topology description (Fig. 1 of the paper): a
// hub-and-spoke tree where every edge server talks to the cloud and each
// client is attached to exactly one edge server — the depth-2 instance
// of the L-level MultiTopology.
#pragma once

#include "sim/multi_topology.hpp"

namespace hm::sim {

class HierTopology : public MultiTopology {
 public:
  /// Uniform topology: `num_edges` edge areas with `clients_per_edge`
  /// clients each (N = N_E * N_0, the paper's setting).
  HierTopology(index_t num_edges, index_t clients_per_edge)
      : MultiTopology({num_edges, clients_per_edge}) {}

  index_t num_edges() const { return num_areas(); }                   // N_E
  index_t clients_per_edge() const { return leaves_per_area(); }      // N_0
};

}  // namespace hm::sim
