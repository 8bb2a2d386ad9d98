// Multi-level hierarchy demo: HierMinimax generalized to a four-layer
// network (cloud -> region -> edge -> client), i.e. a depth-3 tree. Shows
// that the paper's client-edge-cloud instance (DESIGN.md) is one point of
// a family, and that deeper hierarchies push even more synchronization
// off the expensive top link.
//
// Usage: ./multilevel [--rounds 150]
#include <iomanip>
#include <iostream>

#include "algo/hierfavg.hpp"
#include "algo/hierminimax.hpp"
#include "metrics/evaluation.hpp"
#include "core/flags.hpp"
#include "data/federated.hpp"
#include "data/generators.hpp"
#include "nn/softmax_regression.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/multi_topology.hpp"

int main(int argc, char** argv) {
  using namespace hm;
  const Flags flags = Flags::parse(argc, argv);
  parallel::ThreadPool pool;
  const index_t rounds = flags.get_int("rounds", 150);

  // 4 regions x 2 edges x 2 clients = 16 clients; one region-level area
  // per weight coordinate. Data: 8-class task, heterogeneous by class
  // difficulty and imbalance.
  data::GaussianSpec spec;
  spec.dim = 24;
  spec.num_classes = 4;
  spec.num_samples = 6000;
  spec.separation = 2.8;
  spec.difficulty_spread = 0.5;
  spec.imbalance = 2.0;
  const auto all = data::make_gaussian_classes(spec);
  rng::Xoshiro256 gen(51);
  const auto tt = data::split_train_test(all, 0.2, gen);
  const auto fed = data::partition_one_class_per_edge(tt, /*num_edges=*/4,
                                                      /*clients_per_edge=*/4,
                                                      gen);

  const sim::MultiTopology topo({4, 2, 2});  // depth-3 tree

  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());

  algo::TrainOptions opts;
  opts.rounds = rounds;
  opts.taus = {2, 2, 2};  // blocks per level: region, edge, local steps
  opts.batch_size = 4;
  opts.eta_w = 0.05;
  opts.eta_p = 0.005;
  opts.sampled_edges = 3;
  opts.eval_every = std::max<index_t>(1, rounds / 10);
  opts.seed = 7;

  const auto result = algo::train_hierminimax(model, fed, topo, opts, pool);
  const auto favg = algo::train_hierfavg(model, fed, topo, opts, pool);

  std::cout << "four-layer HierMinimax (cloud-region-edge-client), "
            << rounds << " rounds, taus = {2, 2, 2}\n\n"
            << "round\tavg_acc\tworst_acc\n";
  for (const auto& r : result.history.records()) {
    std::cout << r.round << '\t' << std::fixed << std::setprecision(4)
              << r.summary.average << '\t' << r.summary.worst << '\n';
  }
  const sim::CommStats& comm = result.comm;
  std::cout << "\ncommunication rounds (one per synchronized block):\n"
            << "  cloud-region link: " << comm.edge_cloud_rounds
            << " rounds, " << comm.edge_cloud_models_up << " models up\n"
            << "  links below it:    " << comm.client_edge_rounds
            << " rounds, " << comm.client_edge_models_up << " models up\n";
  std::cout << "\narea weights p: ";
  for (const scalar_t p : result.p) std::cout << p << ' ';
  std::cout << "\nDeeper levels absorb most synchronization; the cloud "
               "link sees only "
            << comm.edge_cloud_rounds << " of " << comm.total_rounds()
            << " total rounds.\n";

  // Fairness vs the L-level minimization baseline (multi-level local
  // SGD): same tree, same taus, no weight adaptation.
  const auto s_mm = result.history.tail_summary(5);
  const auto s_fa = favg.history.tail_summary(5);
  const auto gini_mm =
      metrics::gini_coefficient(result.history.back().edge_acc);
  const auto gini_fa =
      metrics::gini_coefficient(favg.history.back().edge_acc);
  std::cout << "\n                 avg     worst   var(pct^2)  gini\n"
            << std::fixed << std::setprecision(4)
            << "  minimax      " << s_mm.average << "  " << s_mm.worst
            << "  " << std::setw(8) << std::setprecision(2)
            << s_mm.variance_pct2 << "   " << std::setprecision(3)
            << gini_mm << '\n'
            << std::setprecision(4)
            << "  minimization " << s_fa.average << "  " << s_fa.worst
            << "  " << std::setw(8) << std::setprecision(2)
            << s_fa.variance_pct2 << "   " << std::setprecision(3)
            << gini_fa << '\n';
  return 0;
}
