// Adversarial & non-stationary scenario matrix: every algorithm x every
// model-report combiner x {sign-flip, scaled-noise, label-flip, churn}
// plus concept drift, checking
//   (a) bit-identical replay of two same-seed attacked runs,
//   (b) an enabled plan whose attack/churn probabilities are zero is
//       bit-identical (model-only) to the fully disabled path under
//       every combiner — attacks are pay-for-what-you-use,
//   (c) the fairness claim: under each Byzantine attack, the worst
//       edge's loss with a median / trimmed-mean defense beats the
//       undefended plain mean,
//   (d) churn deterministically removes computation and reports,
//   (e) the minimax weights p track the worst group when concept drift
//       moves it mid-run,
// and the CI smoke target (AdversarialSmoke): one HierMinimax round at
// 20% sign-flip attackers with the trimmed-mean defense.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algo/drfa.hpp"
#include "algo/fedavg.hpp"
#include "algo/fault_config.hpp"
#include "algo/hierfavg.hpp"
#include "algo/hierminimax.hpp"
#include "data/generators.hpp"
#include "metrics/evaluation.hpp"
#include "nn/softmax_regression.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/fault.hpp"
#include "test_util.hpp"

namespace hm::algo {
namespace {

using testing_util::adversarial_scenarios;
using testing_util::deep_task;
using testing_util::fingerprint;
using testing_util::Scenario;
using testing_util::shared_task;
using testing_util::test_pool;
using testing_util::with_taus;

// ---------------------------------------------------------------------
// The matrix axes: scenarios come from test_util (shared with the fault
// matrix); the combiner axis is ours.

const std::vector<Aggregate> kAggregates = {
    Aggregate::kMean, Aggregate::kMedian, Aggregate::kTrimmedMean};

TrainOptions scenario_opts(const sim::FaultSpec& spec, Aggregate agg) {
  TrainOptions o;
  o.rounds = 6;
  o.tau1 = 2;
  o.tau2 = 2;
  o.batch_size = 4;
  o.eta_w = 0.1;
  o.eta_p = 0.02;
  o.eval_every = 3;
  o.seed = 5;
  o.sampled_edges = 3;  // partial participation in both phases
  o.sampled_clients = 5;
  o.fault = spec;
  o.aggregate = agg;
  o.trim_frac = 0.25;
  return o;
}

TrainOptions deep_scenario_opts(const sim::FaultSpec& spec, Aggregate agg) {
  return with_taus(scenario_opts(spec, agg), {2, 2, 2});
}

/// One fixture per algorithm: run under (spec, combiner) and fingerprint.
struct Algorithm {
  std::string name;
  std::uint64_t (*run)(const sim::FaultSpec&, Aggregate, bool model_only);
};

std::vector<Algorithm> algorithms() {
  std::vector<Algorithm> out;
  out.push_back({"fedavg", [](const sim::FaultSpec& s, Aggregate a, bool mo) {
                   const auto& fed = shared_task();
                   const nn::SoftmaxRegression model(fed.dim(),
                                                     fed.num_classes());
                   return fingerprint(
                       train_fedavg(model, fed, scenario_opts(s, a),
                                    test_pool()), mo);
                 }});
  out.push_back(
      {"hierfavg", [](const sim::FaultSpec& s, Aggregate a, bool mo) {
         const auto& fed = shared_task();
         const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return fingerprint(
             train_hierfavg(model, fed, topo, scenario_opts(s, a),
                            test_pool()), mo);
       }});
  out.push_back({"drfa", [](const sim::FaultSpec& s, Aggregate a, bool mo) {
                   const auto& fed = shared_task();
                   const nn::SoftmaxRegression model(fed.dim(),
                                                     fed.num_classes());
                   return fingerprint(
                       train_drfa(model, fed, scenario_opts(s, a),
                                  test_pool()), mo);
                 }});
  out.push_back(
      {"hierminimax", [](const sim::FaultSpec& s, Aggregate a, bool mo) {
         const auto& fed = shared_task();
         const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return fingerprint(
             train_hierminimax(model, fed, topo, scenario_opts(s, a),
                               test_pool()), mo);
       }});
  out.push_back(
      {"hierminimax_d3", [](const sim::FaultSpec& s, Aggregate a, bool mo) {
         const auto& fed = deep_task();
         const sim::MultiTopology topo({4, 2, 2});
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return fingerprint(
             train_hierminimax(model, fed, topo, deep_scenario_opts(s, a),
                               test_pool()),
             mo);
       }});
  return out;
}

// ---------------------------------------------------------------------
// (a) Bit-identical replay: same seed, same attacked plan, same combiner
// -> identical everything, attack and delivery metering included.

TEST(ScenarioMatrix, SameSeedAttackedRunsReplayBitIdentically) {
  for (const auto& algo : algorithms()) {
    for (const auto& sc : adversarial_scenarios()) {
      for (const Aggregate agg : kAggregates) {
        const auto a = algo.run(sc.spec, agg, /*model_only=*/false);
        const auto b = algo.run(sc.spec, agg, /*model_only=*/false);
        EXPECT_EQ(a, b) << algo.name << " x " << sc.name << " x "
                        << to_string(agg);
      }
    }
  }
}

// (b) An enabled plan with every attack/churn probability at zero must
// be bit-identical (model-only) to the fully disabled path, under every
// combiner — setting --attack sign-flip --attack-frac 0 changes nothing.

TEST(ScenarioMatrix, ZeroProbabilityAttackMatchesCleanPath) {
  const sim::FaultSpec disabled;  // default: enabled == false
  std::vector<Scenario> zeros;
  for (Scenario sc : adversarial_scenarios(/*attack_frac=*/0.0)) {
    sc.spec.churn_prob = 0;  // the churn row's only nonzero knob
    zeros.push_back(sc);
  }
  for (const auto& algo : algorithms()) {
    for (const Aggregate agg : kAggregates) {
      const auto golden = algo.run(disabled, agg, /*model_only=*/true);
      for (const auto& sc : zeros) {
        EXPECT_EQ(algo.run(sc.spec, agg, /*model_only=*/true), golden)
            << algo.name << " x " << sc.name << " x " << to_string(agg);
      }
    }
  }
}

// ---------------------------------------------------------------------
// (c) Fairness under attack: with ~20% Byzantine clients, the worst
// edge's training loss under a median or trimmed-mean defense must beat
// the undefended plain mean, for every attack kind. Full participation,
// 4 clients per edge, trim_frac 0.25 (tolerates one attacker per edge).
//
// The fixture uses the similarity partition (s = 0.5), not the extreme
// one-class-per-edge split: when every edge holds a disjoint class, the
// cloud-level coordinate median *across edges* discards the cross-class
// signal the mean would blend, and that self-inflicted cost can exceed
// what a bounded attack (label-flip) costs the mean (DESIGN.md §13).
// With partial overlap the defense wins for every attack kind.

scalar_t worst_edge_loss_under(const sim::FaultSpec& spec, Aggregate agg) {
  static const data::FederatedDataset fed = [] {
    data::GaussianSpec gs;
    gs.dim = 12;
    gs.num_classes = 4;
    gs.num_samples = 1200;
    gs.separation = 3.0;
    gs.difficulty_spread = 0.5;
    gs.imbalance = 2.0;
    gs.seed = 77;
    const auto all = data::make_gaussian_classes(gs);
    rng::Xoshiro256 gen(78);
    const auto tt = data::split_train_test(all, 0.25, gen);
    return data::partition_similarity(tt, 4, 4, /*similarity=*/0.5, gen);
  }();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  TrainOptions o;
  o.rounds = 12;
  o.tau1 = 2;
  o.tau2 = 2;
  o.batch_size = 4;
  o.eta_w = 0.1;
  o.eta_p = 0.02;
  o.eval_every = 0;
  o.seed = 5;
  o.fault = spec;
  o.aggregate = agg;
  o.trim_frac = 0.25;
  const auto r = train_hierminimax(model, fed, topo, o, test_pool());
  const auto losses = metrics::per_edge_loss(model, r.w, fed, test_pool());
  return *std::max_element(losses.begin(), losses.end());
}

TEST(ScenarioFairness, RobustDefensesBeatMeanUnderEveryByzantineAttack) {
  for (const auto& sc : adversarial_scenarios(/*attack_frac=*/0.2)) {
    if (sc.spec.attack == sim::AttackKind::kNone) continue;  // churn row
    const scalar_t mean = worst_edge_loss_under(sc.spec, Aggregate::kMean);
    const scalar_t median =
        worst_edge_loss_under(sc.spec, Aggregate::kMedian);
    const scalar_t trimmed =
        worst_edge_loss_under(sc.spec, Aggregate::kTrimmedMean);
    EXPECT_LT(median, mean) << sc.name;
    EXPECT_LT(trimmed, mean) << sc.name;
  }
}

// ---------------------------------------------------------------------
// (d) Churn: absent clients compute nothing and report nothing, so the
// wire-attempt count drops relative to the zero-churn plan — and the
// whole thing replays (covered by (a); asserted here on the counters).

TEST(ScenarioChurn, AbsentClientsNeverReachTheWire) {
  const auto& fed = shared_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());

  sim::FaultSpec zero;
  zero.enabled = true;  // metered fault path, no faults
  sim::FaultSpec churn = zero;
  churn.churn_prob = 0.4;
  churn.churn_dwell = 2;

  const auto base =
      train_hierminimax(model, fed, topo,
                        scenario_opts(zero, Aggregate::kMean), test_pool());
  const auto churned =
      train_hierminimax(model, fed, topo,
                        scenario_opts(churn, Aggregate::kMean), test_pool());
  EXPECT_LT(churned.comm.client_edge_fault.attempted,
            base.comm.client_edge_fault.attempted);
  // Nothing was dropped in flight — absences are not delivery failures.
  EXPECT_EQ(churned.comm.client_edge_fault.dropped, 0u);
  EXPECT_EQ(churned.comm.client_edge_fault.attempted,
            churned.comm.client_edge_fault.delivered);
}

/// Dwell windows quantize membership: within one window a client's
/// presence is constant, so dwell = rounds makes churn a single draw per
/// client for the whole run.
TEST(ScenarioChurn, DwellWindowsQuantizeMembership) {
  sim::FaultSpec churn;
  churn.enabled = true;
  churn.churn_prob = 0.5;
  churn.churn_dwell = 4;
  const sim::FaultPlan plan(churn);
  for (index_t c = 0; c < 8; ++c) {
    for (index_t w = 0; w < 3; ++w) {  // windows [0,4), [4,8), [8,12)
      const bool first = plan.client_absent(w * 4, c);
      for (index_t k = 1; k < 4; ++k) {
        EXPECT_EQ(plan.client_absent(w * 4 + k, c), first)
            << "client " << c << " window " << w << " round offset " << k;
      }
    }
  }
}

// ---------------------------------------------------------------------
// (e) Concept drift: rotating the hard/rare class mid-run moves the
// worst group; the minimax weights must follow it.

/// heterogeneous_task with the hard class rotated by `rotation`: class
/// (C-1-rotation) mod C becomes the shrunk-and-rare one, so edge
/// (C-1-rotation) mod C becomes the worst group.
data::FederatedDataset rotated_task(index_t rotation) {
  data::GaussianSpec spec;
  spec.dim = 12;
  spec.num_classes = 4;
  spec.num_samples = 1200;
  spec.separation = 3.0;
  spec.difficulty_spread = 0.5;
  spec.imbalance = 2.0;
  spec.hard_class_rotation = rotation;
  spec.seed = 77;
  const auto all = data::make_gaussian_classes(spec);
  rng::Xoshiro256 gen(78);
  const auto tt = data::split_train_test(all, 0.25, gen);
  return data::partition_one_class_per_edge(tt, 4, 2, gen);
}

TrainOptions drift_opts() {
  TrainOptions o;
  o.rounds = 16;
  o.tau1 = 2;
  o.tau2 = 2;
  o.batch_size = 4;
  o.eta_w = 0.1;
  o.eta_p = 0.1;
  o.eval_every = 8;
  o.seed = 5;
  return o;
}

index_t argmax_p(const std::vector<scalar_t>& p) {
  return static_cast<index_t>(
      std::max_element(p.begin(), p.end()) - p.begin());
}

TEST(ScenarioDrift, MinimaxWeightsTrackTheMovingWorstGroup) {
  // Stationary control: the hard class is 3, so p concentrates on edge 3.
  const auto stationary = rotated_task(0);
  const sim::HierTopology topo(stationary.num_edges(),
                               stationary.clients_per_edge);
  const nn::SoftmaxRegression model(stationary.dim(),
                                    stationary.num_classes());
  const auto control =
      train_hierminimax(model, stationary, topo, drift_opts(), test_pool());
  EXPECT_EQ(argmax_p(control.p), 3);

  // Drift at round 8: rotation 2 makes class (3 - 2) = 1 the hard one.
  auto drifting = rotated_task(0);
  drifting.add_drift_phase(8, rotated_task(2).client_train);
  const auto drifted =
      train_hierminimax(model, drifting, topo, drift_opts(), test_pool());
  EXPECT_EQ(argmax_p(drifted.p), 1);

  // The drifting run replays bit-identically.
  const auto replay =
      train_hierminimax(model, drifting, topo, drift_opts(), test_pool());
  EXPECT_EQ(fingerprint(drifted, /*model_only=*/false),
            fingerprint(replay, /*model_only=*/false));
}

/// A drift phase in the future is invisible: rounds before start_round
/// read the base shards, so the pre-drift prefix matches the stationary
/// run exactly.
TEST(ScenarioDrift, FutureDriftPhaseIsInvisibleBeforeItsStartRound) {
  const auto stationary = rotated_task(0);
  const sim::HierTopology topo(stationary.num_edges(),
                               stationary.clients_per_edge);
  const nn::SoftmaxRegression model(stationary.dim(),
                                    stationary.num_classes());
  auto opts = drift_opts();
  opts.rounds = 6;  // entirely before the drift point

  auto drifting = rotated_task(0);
  drifting.add_drift_phase(8, rotated_task(2).client_train);

  const auto a = train_hierminimax(model, stationary, topo, opts, test_pool());
  const auto b = train_hierminimax(model, drifting, topo, opts, test_pool());
  EXPECT_EQ(fingerprint(a, /*model_only=*/false),
            fingerprint(b, /*model_only=*/false));
}

// ---------------------------------------------------------------------
// CI smoke target: one HierMinimax round at 20% sign-flip attackers with
// the trimmed-mean defense. The ASan+UBSan adversarial-smoke job runs
// exactly this filter.

TEST(AdversarialSmoke, HierMinimaxOneRoundSignFlipTrimmed) {
  sim::FaultSpec spec;
  spec.enabled = true;
  spec.attack = sim::AttackKind::kSignFlip;
  spec.attack_prob = 0.2;
  spec.attack_scale = 4.0;
  const auto& fed = shared_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  auto opts = scenario_opts(spec, Aggregate::kTrimmedMean);
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
