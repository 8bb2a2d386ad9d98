// Communication metering for the hierarchical network. Every algorithm
// charges its traffic here, so "communication rounds/overhead" comparisons
// across two-layer and three-layer methods use one consistent meter.
//
// Conventions:
//  * A *model payload* is one full parameter vector (d scalars).
//  * A *scalar payload* is one loss value or one small control message.
//  * A *round* on a link is one synchronized aggregation event on that
//    link (e.g. one client-edge aggregation = 1 client_edge round,
//    regardless of how many clients participate). For two-layer methods
//    the client-server link is charged as edge_cloud, since the server
//    plays the cloud role and the clients connect to it over the
//    wide-area (expensive) segment.
//  * On a deeper tree (sim::MultiTopology, depth >= 3) edge_cloud is the
//    cloud-area link and client_edge every link below it: each
//    synchronized block of any level below the areas is one client_edge
//    round, and its broadcasts and reports are client_edge payloads.
#pragma once

#include <cstdint>
#include <type_traits>

#include "core/types.hpp"

namespace hm::sim {

/// Delivery accounting for one link under fault injection (sim/fault.hpp).
/// One "attempt" is one wire transmission of a payload; a logical message
/// may take several attempts (bounded retries). Every attempt ends in
/// exactly one of three states, so
///     attempted == delivered + dropped + in_retry
/// holds at all times — the conservation law test_sim pins down.
struct LinkFaultStats {
  std::uint64_t attempted = 0;   // wire attempts (first sends + retries)
  std::uint64_t delivered = 0;   // attempts that arrived
  std::uint64_t dropped = 0;     // final losses (report lost, budget spent)
  std::uint64_t in_retry = 0;    // non-final losses (a retry follows)
  std::uint64_t straggled = 0;   // delivered attempts that arrived late
  // Extra round-trip equivalents owed to faults: exactly 1 per retry
  // attempt plus (mult - 1) per straggled report. The latency model
  // (sim/latency.hpp) charges this once — retries never also inflate the
  // per-round latency term, so nothing is double-charged.
  double extra_rtts = 0;

  /// A report that was never transmitted successfully and is not retried
  /// (client dropout: the device went silent mid-round).
  void note_lost_report() {
    attempted += 1;
    dropped += 1;
  }

  /// A report that arrived on the first attempt on a loss-free link
  /// (client-edge reports are local and never retried).
  void note_delivered() {
    attempted += 1;
    delivered += 1;
  }

  /// A delivered report that arrived `mult`x late (straggler).
  void note_straggle(double mult) {
    if (mult > 1) {
      straggled += 1;
      extra_rtts += mult - 1;
    }
  }

  /// Logical messages with a final outcome.
  std::uint64_t messages() const { return delivered + dropped; }

  /// The field list: f(name, member pointer) in COMM-section order.
  /// operator+=, the COMM codec and the sim.comm.* gauges walk it.
  template <typename F>
  static void for_each_field(F&& f) {
    f("attempted", &LinkFaultStats::attempted);
    f("delivered", &LinkFaultStats::delivered);
    f("dropped", &LinkFaultStats::dropped);
    f("in_retry", &LinkFaultStats::in_retry);
    f("straggled", &LinkFaultStats::straggled);
    f("extra_rtts", &LinkFaultStats::extra_rtts);
  }

  LinkFaultStats& operator+=(const LinkFaultStats& o) {
    for_each_field([&](const char*, auto field) { this->*field += o.*field; });
    return *this;
  }
};

struct CommStats {
  // Aggregation/synchronization events per link.
  std::uint64_t client_edge_rounds = 0;
  std::uint64_t edge_cloud_rounds = 0;

  // Model-sized payload counts (uplink = toward the server/cloud).
  std::uint64_t client_edge_models_up = 0;
  std::uint64_t client_edge_models_down = 0;
  std::uint64_t edge_cloud_models_up = 0;
  std::uint64_t edge_cloud_models_down = 0;

  // Scalar payloads (loss estimates, checkpoint indices).
  std::uint64_t client_edge_scalars = 0;
  std::uint64_t edge_cloud_scalars = 0;

  // Wire bytes per link (model payloads at their transmitted precision —
  // see sim::payload_bytes — plus 8 bytes per scalar payload).
  std::uint64_t client_edge_bytes = 0;
  std::uint64_t edge_cloud_bytes = 0;

  // Fault-injection delivery accounting per link (all zero when training
  // runs without a FaultPlan). The model/byte counters above still meter
  // *offered* traffic — a lost payload consumed the wire — while these
  // track what actually arrived, what was lost, and what arrived late.
  LinkFaultStats client_edge_fault;
  LinkFaultStats edge_cloud_fault;

  /// Total synchronization rounds across both link levels — the x-axis
  /// used for the Fig. 3 / Fig. 4 communication comparisons.
  std::uint64_t total_rounds() const {
    return client_edge_rounds + edge_cloud_rounds;
  }

  /// Total model payloads crossing the expensive edge-cloud segment.
  std::uint64_t edge_cloud_models() const {
    return edge_cloud_models_up + edge_cloud_models_down;
  }

  /// Total model payloads anywhere in the network.
  std::uint64_t total_models() const {
    return client_edge_models_up + client_edge_models_down +
           edge_cloud_models();
  }

  /// Fault-accounting roll-ups across both links (for History/TSV).
  std::uint64_t msgs_delivered() const {
    return client_edge_fault.delivered + edge_cloud_fault.delivered;
  }
  std::uint64_t msgs_dropped() const {
    return client_edge_fault.dropped + edge_cloud_fault.dropped;
  }
  std::uint64_t msgs_straggled() const {
    return client_edge_fault.straggled + edge_cloud_fault.straggled;
  }

  /// As LinkFaultStats::for_each_field; names are gauge names.
  template <typename F>
  static void for_each_field(F&& f) {
    f("client_edge.rounds", &CommStats::client_edge_rounds);
    f("edge_cloud.rounds", &CommStats::edge_cloud_rounds);
    f("client_edge.models_up", &CommStats::client_edge_models_up);
    f("client_edge.models_down", &CommStats::client_edge_models_down);
    f("edge_cloud.models_up", &CommStats::edge_cloud_models_up);
    f("edge_cloud.models_down", &CommStats::edge_cloud_models_down);
    f("client_edge.scalars", &CommStats::client_edge_scalars);
    f("edge_cloud.scalars", &CommStats::edge_cloud_scalars);
    f("client_edge.bytes", &CommStats::client_edge_bytes);
    f("edge_cloud.bytes", &CommStats::edge_cloud_bytes);
    f("client_edge_fault", &CommStats::client_edge_fault);
    f("edge_cloud_fault", &CommStats::edge_cloud_fault);
  }

  CommStats& operator+=(const CommStats& o) {
    for_each_field([&](const char*, auto field) { this->*field += o.*field; });
    return *this;
  }
};

/// f(link, name, value) for every scalar of `c` in COMM-section order;
/// `link` names the enclosing LinkFaultStats member, null outside one.
template <typename C, typename F>
void for_each_counter(C& c, F&& f) {
  CommStats::for_each_field([&](const char* name, auto field) {
    auto& v = c.*field;
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>,
                                 LinkFaultStats>) {
      LinkFaultStats::for_each_field(
          [&](const char* leaf, auto lf) { f(name, leaf, v.*lf); });
    } else {
      f(nullptr, name, v);
    }
  });
}

}  // namespace hm::sim
