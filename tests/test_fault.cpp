// Deterministic fault-matrix suite for the fault-injection subsystem:
// every algorithm x every degradation policy x a set of fault scenarios,
// checking (a) bit-identical replay of two same-seed runs, (b) a
// zero-probability enabled plan is bit-identical to the fault-free path
// (golden replay within one binary — no stored hashes, so platform libm
// differences cannot break it), and (c) the minimax weights stay on the
// simplex under renormalization. Plus directed tests for the skip-round
// fallback, the empty-participant regression, end-to-end delivery
// conservation, and the CI smoke target (FaultSmoke).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/drfa.hpp"
#include "algo/fedavg.hpp"
#include "algo/fault_config.hpp"
#include "algo/hierfavg.hpp"
#include "algo/hierminimax.hpp"
#include "algo/trainer_common.hpp"
#include "nn/softmax_regression.hpp"
#include "sim/fault.hpp"
#include "test_util.hpp"

namespace hm::algo {
namespace {

// Fingerprinting, fixtures, and the scenario rows live in test_util.hpp,
// shared with the snapshot and adversarial-scenario matrices.
using testing_util::bits;
using testing_util::deep_task;
using testing_util::fault_scenarios;
using testing_util::fingerprint;
using testing_util::Scenario;
using testing_util::shared_task;
using testing_util::test_pool;
using testing_util::with_taus;

// ---------------------------------------------------------------------
// The matrix axes.

const std::vector<OnFault> kPolicies = {
    OnFault::kRenormalize, OnFault::kReuseStale, OnFault::kSkipRound};

TrainOptions fault_opts(const sim::FaultSpec& spec, OnFault policy) {
  TrainOptions o;
  o.rounds = 6;
  o.tau1 = 2;
  o.tau2 = 2;
  o.batch_size = 4;
  o.eta_w = 0.1;
  o.eta_p = 0.02;
  o.eval_every = 3;
  o.seed = 5;
  o.sampled_edges = 3;    // partial participation in both phases
  o.sampled_clients = 5;
  o.fault = spec;
  o.on_fault = policy;
  return o;
}

TrainOptions deep_fault_opts(const sim::FaultSpec& spec, OnFault policy) {
  return with_taus(fault_opts(spec, policy), {2, 2, 2});
}

/// One fixture per algorithm: run under (spec, policy) and fingerprint.
/// The fault-free baseline is the same run with a default (disabled)
/// FaultSpec.
struct Algorithm {
  std::string name;
  std::uint64_t (*run)(const sim::FaultSpec&, OnFault, bool model_only);
  std::vector<scalar_t> (*weights)(const sim::FaultSpec&, OnFault);
};

std::vector<Algorithm> algorithms() {
  std::vector<Algorithm> out;
  out.push_back(
      {"fedavg",
       [](const sim::FaultSpec& s, OnFault p, bool mo) {
         const auto& fed = shared_task();
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return fingerprint(train_fedavg(model, fed, fault_opts(s, p),
                                         test_pool()), mo);
       },
       [](const sim::FaultSpec& s, OnFault p) {
         const auto& fed = shared_task();
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return train_fedavg(model, fed, fault_opts(s, p), test_pool()).p;
       }});
  out.push_back(
      {"hierfavg",
       [](const sim::FaultSpec& s, OnFault p, bool mo) {
         const auto& fed = shared_task();
         const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return fingerprint(train_hierfavg(model, fed, topo, fault_opts(s, p),
                                           test_pool()),
                            mo);
       },
       [](const sim::FaultSpec& s, OnFault p) {
         const auto& fed = shared_task();
         const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return train_hierfavg(model, fed, topo, fault_opts(s, p),
                               test_pool()).p;
       }});
  out.push_back(
      {"drfa",
       [](const sim::FaultSpec& s, OnFault p, bool mo) {
         const auto& fed = shared_task();
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return fingerprint(train_drfa(model, fed, fault_opts(s, p),
                                       test_pool()), mo);
       },
       [](const sim::FaultSpec& s, OnFault p) {
         const auto& fed = shared_task();
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return train_drfa(model, fed, fault_opts(s, p), test_pool()).p;
       }});
  out.push_back(
      {"hierminimax",
       [](const sim::FaultSpec& s, OnFault p, bool mo) {
         const auto& fed = shared_task();
         const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return fingerprint(
             train_hierminimax(model, fed, topo, fault_opts(s, p),
                               test_pool()), mo);
       },
       [](const sim::FaultSpec& s, OnFault p) {
         const auto& fed = shared_task();
         const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return train_hierminimax(model, fed, topo, fault_opts(s, p),
                                  test_pool()).p;
       }});
  out.push_back(
      {"hierminimax_d3",
       [](const sim::FaultSpec& s, OnFault p, bool mo) {
         const auto& fed = deep_task();
         const sim::MultiTopology topo({4, 2, 2});
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return fingerprint(
             train_hierminimax(model, fed, topo, deep_fault_opts(s, p),
                               test_pool()), mo);
       },
       [](const sim::FaultSpec& s, OnFault p) {
         const auto& fed = deep_task();
         const sim::MultiTopology topo({4, 2, 2});
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return train_hierminimax(model, fed, topo, deep_fault_opts(s, p),
                                  test_pool()).p;
       }});
  return out;
}

// ---------------------------------------------------------------------
// (a) Bit-identical replay: same seed, same plan -> identical everything,
// fault counters included.

TEST(FaultMatrix, SameSeedRunsReplayBitIdentically) {
  for (const auto& algo : algorithms()) {
    for (const auto& sc : fault_scenarios()) {
      for (const OnFault policy : kPolicies) {
        const auto a = algo.run(sc.spec, policy, /*model_only=*/false);
        const auto b = algo.run(sc.spec, policy, /*model_only=*/false);
        EXPECT_EQ(a, b) << algo.name << " x " << sc.name << " x "
                        << to_string(policy);
      }
    }
  }
}

// (b) Golden replay: the enabled zero-probability plan must produce a
// bit-identical model trajectory to the pre-fault (disabled) path under
// every policy — the fault layer is pay-for-what-you-use.

TEST(FaultMatrix, ZeroProbabilityPlanMatchesFaultFreePath) {
  const sim::FaultSpec disabled;  // default: enabled == false
  sim::FaultSpec zero;
  zero.enabled = true;  // fault code path on, nothing ever fails
  for (const auto& algo : algorithms()) {
    const auto golden =
        algo.run(disabled, OnFault::kRenormalize, /*model_only=*/true);
    for (const OnFault policy : kPolicies) {
      EXPECT_EQ(algo.run(zero, policy, /*model_only=*/true), golden)
          << algo.name << " x " << to_string(policy);
    }
  }
}

// (c) Renormalization keeps the minimax weights on the (capped) simplex.

TEST(FaultMatrix, WeightsStayOnSimplexUnderRenormalization) {
  for (const auto& algo : algorithms()) {
    for (const auto& sc : fault_scenarios()) {
      const auto p = algo.weights(sc.spec, OnFault::kRenormalize);
      ASSERT_FALSE(p.empty()) << algo.name;
      scalar_t sum = 0;
      for (const scalar_t x : p) {
        EXPECT_GE(x, -1e-12) << algo.name << " x " << sc.name;
        sum += x;
      }
      EXPECT_NEAR(sum, 1.0, 1e-9) << algo.name << " x " << sc.name;
    }
  }
}

// ---------------------------------------------------------------------
// Skip-round fallback: when every report is lost, kSkipRound must leave
// the model exactly at its (deterministic) initialization no matter how
// many rounds elapse.

TEST(FaultPolicy, SkipRoundUnderTotalDropoutFreezesTheModel) {
  sim::FaultSpec all_lost;
  all_lost.enabled = true;
  all_lost.client_dropout_prob = 1.0;

  const auto& fed = shared_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts3 = fault_opts(all_lost, OnFault::kSkipRound);
  opts3.rounds = 3;
  auto opts7 = fault_opts(all_lost, OnFault::kSkipRound);
  opts7.rounds = 7;
  const auto r3 = train_fedavg(model, fed, opts3, test_pool());
  const auto r7 = train_fedavg(model, fed, opts7, test_pool());
  ASSERT_EQ(r3.w.size(), r7.w.size());
  for (std::size_t i = 0; i < r3.w.size(); ++i) {
    EXPECT_EQ(bits(r3.w[i]), bits(r7.w[i])) << i;
  }
  // Every offered report was metered as lost.
  EXPECT_EQ(r7.comm.edge_cloud_fault.delivered, 0u);
  EXPECT_GT(r7.comm.edge_cloud_fault.dropped, 0u);
}

// An empty surviving set skips the round under every policy — including
// kRenormalize, which would otherwise divide by a zero total.

TEST(FaultPolicy, EmptySurvivorsSkipUnderEveryPolicy) {
  sim::FaultSpec all_lost;
  all_lost.enabled = true;
  all_lost.client_dropout_prob = 1.0;
  const auto& fed = shared_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  std::vector<std::uint64_t> fps;
  for (const OnFault policy : kPolicies) {
    auto opts = fault_opts(all_lost, policy);
    const auto r = train_hierminimax(
        model, fed, sim::HierTopology(fed.num_edges(), fed.clients_per_edge),
        opts, test_pool());
    fps.push_back(fingerprint(r, /*model_only=*/true));
  }
  // With zero survivors the policies cannot diverge: all skip.
  EXPECT_EQ(fps[0], fps[1]);
  EXPECT_EQ(fps[0], fps[2]);
}

// ---------------------------------------------------------------------
// Regression: Participants::from_draws on an empty draw list, and the
// aggregation behavior that hangs off it.

TEST(Participants, EmptyDrawsYieldEmptyParticipants) {
  const auto p = detail::Participants::from_draws({});
  EXPECT_TRUE(p.ids.empty());
  EXPECT_TRUE(p.multiplicity.empty());
  EXPECT_EQ(p.total, 0);
  // The strict aggregator refuses an empty set...
  std::vector<std::vector<scalar_t>> vectors;
  std::vector<scalar_t> out(3, 0);
  EXPECT_THROW(detail::weighted_average(vectors, p, out), CheckError);
  // ...while the degraded one reports "skip this round" for every policy.
  detail::StaleStore stale;
  for (const OnFault policy : kPolicies) {
    std::vector<scalar_t> w = {1, 2, 3};
    EXPECT_FALSE(detail::degraded_weighted_average(
        vectors, p, {}, policy, 0.5, 0, stale, w, w));
    EXPECT_EQ(w, (std::vector<scalar_t>{1, 2, 3}));  // untouched
  }
}

// ---------------------------------------------------------------------
// End-to-end conservation: after a faulty training run, every wire
// attempt on every link resolved to exactly one of the three states.

TEST(FaultAccounting, EndToEndConservation) {
  sim::FaultSpec spec;
  spec.enabled = true;
  spec.client_dropout_prob = 0.25;
  spec.straggler_prob = 0.3;
  spec.edge_loss_prob = 0.35;
  spec.max_retries = 2;
  const auto& fed = shared_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const auto r = train_hierminimax(
      model, fed, topo, fault_opts(spec, OnFault::kRenormalize), test_pool());
  for (const auto* link :
       {&r.comm.client_edge_fault, &r.comm.edge_cloud_fault}) {
    EXPECT_EQ(link->attempted,
              link->delivered + link->dropped + link->in_retry);
  }
  // The faulty wide-area link actually exercised retries and drops.
  EXPECT_GT(r.comm.edge_cloud_fault.in_retry, 0u);
  EXPECT_GT(r.comm.msgs_dropped(), 0u);
  EXPECT_GT(r.comm.msgs_straggled(), 0u);
}

// ---------------------------------------------------------------------
// CI smoke target: one HierMinimax round under 50% dropout. The ASan+
// UBSan smoke job runs exactly this filter.

TEST(FaultSmoke, HierMinimaxOneRoundHalfDropout) {
  sim::FaultSpec spec;
  spec.enabled = true;
  spec.client_dropout_prob = 0.5;
  const auto& fed = shared_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = fault_opts(spec, OnFault::kRenormalize);
  opts.rounds = 1;
  const auto r = train_hierminimax(model, fed, topo, opts, test_pool());
  EXPECT_EQ(r.w.size(), static_cast<std::size_t>(model.num_params()));
  EXPECT_EQ(r.comm.client_edge_fault.attempted,
            r.comm.client_edge_fault.delivered +
                r.comm.client_edge_fault.dropped +
                r.comm.client_edge_fault.in_retry);
}

}  // namespace
}  // namespace hm::algo
