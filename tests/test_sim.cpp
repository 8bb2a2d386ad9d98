// Unit tests for hm::sim: topology cardinalities, communication meter
// arithmetic, cluster job execution.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "rng/rng.hpp"
#include "sim/cluster.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "sim/quantize.hpp"
#include "sim/comm.hpp"
#include "sim/topology.hpp"

namespace hm::sim {
namespace {

TEST(Topology, Cardinalities) {
  const HierTopology topo(10, 3);
  EXPECT_EQ(topo.num_edges(), 10);
  EXPECT_EQ(topo.clients_per_edge(), 3);
  EXPECT_EQ(topo.num_leaves(), 30);
}

TEST(Topology, InvalidArgumentsThrow) {
  EXPECT_THROW(HierTopology(0, 3), CheckError);
  EXPECT_THROW(HierTopology(3, 0), CheckError);
}

TEST(CommStats, TotalsAndAccumulation) {
  CommStats a;
  a.client_edge_rounds = 2;
  a.edge_cloud_rounds = 1;
  a.client_edge_models_up = 10;
  a.client_edge_models_down = 12;
  a.edge_cloud_models_up = 4;
  a.edge_cloud_models_down = 5;
  EXPECT_EQ(a.total_rounds(), 3u);
  EXPECT_EQ(a.edge_cloud_models(), 9u);
  EXPECT_EQ(a.total_models(), 31u);

  CommStats b = a;
  b += a;
  EXPECT_EQ(b.total_rounds(), 6u);
  EXPECT_EQ(b.edge_cloud_models(), 18u);
}

TEST(CommStats, DefaultIsZero) {
  const CommStats s;
  EXPECT_EQ(s.total_rounds(), 0u);
  EXPECT_EQ(s.total_models(), 0u);
}

TEST(ClusterSim, RunsEveryDeviceOnce) {
  parallel::ThreadPool pool(4);
  const ClusterSim cluster(pool);
  std::vector<std::atomic<int>> hits(37);
  cluster.run_devices(37, [&](index_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ClusterSim, PropagatesJobFailure) {
  parallel::ThreadPool pool(2);
  const ClusterSim cluster(pool);
  EXPECT_THROW(cluster.run_devices(10,
                                   [](index_t i) {
                                     if (i == 7) throw std::runtime_error("x");
                                   }),
               std::runtime_error);
}

TEST(Latency, LatencyAndBandwidthTerms) {
  CommStats comm;
  comm.client_edge_rounds = 10;
  comm.edge_cloud_rounds = 4;
  comm.client_edge_bytes = 1'000'000;   // 8 Mbit
  comm.edge_cloud_bytes = 500'000;      // 4 Mbit
  NetworkProfile net;
  net.client_edge = {0.001, 1e9};   // 1 ms, 1 Gbps
  net.edge_cloud = {0.1, 1e6};      // 100 ms, 1 Mbps
  const auto t = time_breakdown(comm, net);
  EXPECT_NEAR(t.client_edge_s, 10 * 0.001 + 8e6 / 1e9, 1e-9);
  EXPECT_NEAR(t.edge_cloud_s, 4 * 0.1 + 4e6 / 1e6, 1e-9);
  EXPECT_NEAR(net.seconds(comm), t.total(), 1e-12);
}

TEST(Latency, ConcurrencyDividesTransferTimeOnly) {
  CommStats comm;
  comm.edge_cloud_rounds = 2;
  comm.edge_cloud_bytes = 1'000'000;
  NetworkProfile net;
  net.edge_cloud = {1.0, 8e6};  // 1 s latency, 8 Mbps -> 1 s transfer
  EXPECT_NEAR(net.seconds(comm, 1), 2.0 + 1.0, 1e-9);
  EXPECT_NEAR(net.seconds(comm, 4), 2.0 + 0.25, 1e-9);
  // Nonpositive concurrency falls back to serial.
  EXPECT_NEAR(net.seconds(comm, 0), 3.0, 1e-9);
}

TEST(Latency, HierarchicalTrafficFavoredByWanProfile) {
  // Same total models: 100 WAN payloads vs 100 LAN + 10 WAN. With a slow
  // WAN the hierarchical pattern must be faster.
  const std::uint64_t payload = 100'000;
  CommStats flat;
  flat.edge_cloud_rounds = 10;
  flat.edge_cloud_bytes = 100 * payload;
  CommStats hier;
  hier.client_edge_rounds = 10;
  hier.client_edge_bytes = 100 * payload;
  hier.edge_cloud_rounds = 10;
  hier.edge_cloud_bytes = 10 * payload;
  const NetworkProfile net;  // defaults: fast LAN, slow WAN
  EXPECT_LT(net.seconds(hier), net.seconds(flat));
}

TEST(Quantize, PayloadBytes) {
  EXPECT_EQ(payload_bytes(100, 0), 800u);       // raw float64
  EXPECT_EQ(payload_bytes(100, 8), 108u);       // 100 bytes + scale
  EXPECT_EQ(payload_bytes(100, 4), 58u);        // 50 bytes + scale
  EXPECT_EQ(payload_bytes(3, 1), 9u);           // 1 byte packed + scale
  EXPECT_EQ(payload_bytes(0, 8), 8u);           // just the scale
}

TEST(Quantize, ValuesLandOnGrid) {
  rng::Xoshiro256 gen(1);
  std::vector<scalar_t> v = {0.31, -0.77, 0.02, 1.0};
  quantize_payload(v, 4, gen);
  // Grid: 15 levels spanning [-1, 1] -> step 2/15.
  const scalar_t step = 2.0 / 15.0;
  for (const scalar_t x : v) {
    const scalar_t t = (x + 1.0) / step;
    EXPECT_NEAR(t, std::round(t), 1e-9);
    EXPECT_LE(std::abs(x), 1.0 + 1e-12);
  }
}

TEST(Quantize, UnbiasedInExpectation) {
  // Stochastic rounding: the mean of many quantizations approaches the
  // original value.
  rng::Xoshiro256 gen(2);
  const std::vector<scalar_t> original = {0.3, -0.62, 0.111, 0.9};
  std::vector<scalar_t> acc(original.size(), 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    auto v = original;
    quantize_payload(v, 3, gen);
    for (std::size_t i = 0; i < v.size(); ++i) acc[i] += v[i];
  }
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(acc[i] / trials, original[i], 0.01) << i;
  }
}

TEST(Quantize, ErrorBoundedByStep) {
  rng::Xoshiro256 gen(3);
  std::vector<scalar_t> v(256);
  for (auto& x : v) x = gen.normal();
  scalar_t scale = 0;
  for (const scalar_t x : v) scale = std::max(scale, std::abs(x));
  const auto original = v;
  quantize_payload(v, 6, gen);
  const scalar_t step = 2 * scale / ((1 << 6) - 1);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_LE(std::abs(v[i] - original[i]), step + 1e-12);
  }
}

TEST(Quantize, HighBitsNearlyLossless) {
  rng::Xoshiro256 gen(4);
  std::vector<scalar_t> v(64);
  for (auto& x : v) x = gen.normal();
  const auto original = v;
  quantize_payload(v, 16, gen);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i], original[i], 1e-3);
  }
}

TEST(Quantize, ZeroVectorUnchangedAndBadBitsThrow) {
  rng::Xoshiro256 gen(5);
  std::vector<scalar_t> zeros(8, 0.0);
  quantize_payload(zeros, 2, gen);
  for (const scalar_t x : zeros) EXPECT_DOUBLE_EQ(x, 0.0);
  std::vector<scalar_t> v = {1.0};
  EXPECT_THROW(quantize_payload(v, 0, gen), CheckError);
  EXPECT_THROW(quantize_payload(v, 17, gen), CheckError);
}

// ---------------------------------------------------------------------
// Fault-plan properties. These drive the FaultPlan/LinkFaultStats pair
// the way the trainers do and check the invariants the paper-level
// accounting relies on.

// Conservation: every report either delivers, drops, or burns retries —
// under ANY plan, attempted == delivered + dropped + in_retry, and the
// legacy messages() rollup equals sends plus lost reports.

TEST(Fault, DeliveryConservationUnderArbitraryPlan) {
  FaultSpec spec;
  spec.enabled = true;
  spec.client_dropout_prob = 0.3;
  spec.straggler_prob = 0.4;
  spec.straggler_mult_mean = 5.0;
  spec.edge_loss_prob = 0.45;
  spec.max_retries = 3;
  spec.client_crash_round = {-1, 4, -1, 2};
  const FaultPlan plan(spec);

  LinkFaultStats link;
  const index_t rounds = 40;
  const index_t clients = 12;
  std::uint64_t offered = 0;
  std::uint64_t lost_reports = 0;
  std::uint64_t sends = 0;
  for (index_t k = 0; k < rounds; ++k) {
    for (index_t c = 0; c < clients; ++c) {
      if (plan.client_crashed(k, c)) continue;  // silent: nothing metered
      ++offered;
      if (plan.client_dropped(k, c)) {
        link.note_lost_report();
        ++lost_reports;
        continue;
      }
      if (plan.deliver(k, fault_msg(kMsgModelUp, c), link)) {
        link.note_straggle(plan.straggler_mult(k, c));
      }
      ++sends;
    }
  }
  EXPECT_EQ(link.attempted, link.delivered + link.dropped + link.in_retry);
  EXPECT_EQ(link.messages(), sends + lost_reports);
  EXPECT_EQ(link.messages(), offered);
  // The plan above is lossy enough that every state is populated.
  EXPECT_GT(link.delivered, 0u);
  EXPECT_GT(link.dropped, 0u);
  EXPECT_GT(link.in_retry, 0u);
  EXPECT_GT(link.straggled, 0u);
}

// Retry accounting never double-charges latency: with losses but no
// stragglers, extra_rtts is exactly the retry count, and time_breakdown
// charges it once at the link's round-trip latency.

TEST(Fault, RetryLatencyChargedExactlyOnce) {
  FaultSpec spec;
  spec.enabled = true;
  spec.edge_loss_prob = 0.5;
  spec.max_retries = 4;
  const FaultPlan plan(spec);

  CommStats comm;
  for (index_t k = 0; k < 50; ++k) {
    for (index_t e = 0; e < 8; ++e) {
      plan.deliver(k, fault_msg(kMsgModelUp, e), comm.edge_cloud_fault);
    }
  }
  const auto& link = comm.edge_cloud_fault;
  EXPECT_GT(link.in_retry, 0u);
  EXPECT_DOUBLE_EQ(link.extra_rtts, static_cast<double>(link.in_retry));

  const NetworkProfile net;
  CommStats clean = comm;
  clean.edge_cloud_fault = LinkFaultStats{};
  clean.client_edge_fault = LinkFaultStats{};
  const double with_faults = time_breakdown(comm, net).edge_cloud_s;
  const double without = time_breakdown(clean, net).edge_cloud_s;
  EXPECT_NEAR(with_faults - without, link.extra_rtts * net.edge_cloud.latency_s,
              1e-9);
  // The LAN segment is untouched by WAN retries.
  EXPECT_DOUBLE_EQ(time_breakdown(comm, net).client_edge_s,
                   time_breakdown(clean, net).client_edge_s);
}

// Straggler waits land in extra_rtts as (mult - 1) and nowhere else.

TEST(Fault, StragglerWaitChargedAsExtraRoundTrips) {
  LinkFaultStats link;
  link.note_delivered();
  link.note_straggle(3.5);  // one report, 2.5 extra round-trips
  link.note_delivered();
  link.note_straggle(1.0);  // on time: no straggle recorded
  EXPECT_EQ(link.straggled, 1u);
  EXPECT_EQ(link.delivered, 2u);
  EXPECT_DOUBLE_EQ(link.extra_rtts, 2.5);
}

// The fault queries are pure functions of (seed, round, entity): asking
// in any order, any number of times, gives the same answer.

TEST(Fault, QueriesAreOrderIndependent) {
  FaultSpec spec;
  spec.enabled = true;
  spec.client_dropout_prob = 0.5;
  spec.straggler_prob = 0.5;
  const FaultPlan plan(spec);
  std::vector<int> forward;
  std::vector<int> reverse;
  std::vector<double> mult_fwd;
  for (index_t k = 0; k < 10; ++k) {
    for (index_t c = 0; c < 10; ++c) {
      forward.push_back(plan.client_dropped(k, c) ? 1 : 0);
      mult_fwd.push_back(plan.straggler_mult(k, c));
    }
  }
  for (index_t k = 9; k >= 0; --k) {
    for (index_t c = 9; c >= 0; --c) {
      reverse.push_back(plan.client_dropped(k, c) ? 1 : 0);
    }
  }
  for (std::size_t i = 0; i < forward.size(); ++i) {
    EXPECT_EQ(forward[i], reverse[forward.size() - 1 - i]);
  }
  // Repeat queries are stable too (no hidden state advanced).
  std::size_t i = 0;
  for (index_t k = 0; k < 10; ++k) {
    for (index_t c = 0; c < 10; ++c, ++i) {
      EXPECT_EQ(plan.client_dropped(k, c) ? 1 : 0, forward[i]);
      EXPECT_DOUBLE_EQ(plan.straggler_mult(k, c), mult_fwd[i]);
    }
  }
}

}  // namespace
}  // namespace hm::sim
