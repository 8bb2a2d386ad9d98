// Communication-convergence tradeoff demo (§5 of the paper): run
// HierMinimax at a fixed local-iteration budget T with different
// (tau1, tau2) settings and watch edge-cloud communication fall as
// tau1*tau2 grows, while convergence (worst accuracy at budget) degrades
// gracefully.
//
// Usage: ./comm_tradeoff [--iterations 1600] [--dim 32]
#include <iomanip>
#include <iostream>

#include "algo/hierminimax.hpp"
#include "core/flags.hpp"
#include "data/federated.hpp"
#include "data/generators.hpp"
#include "nn/softmax_regression.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/topology.hpp"

int main(int argc, char** argv) {
  using namespace hm;
  const Flags flags = Flags::parse(argc, argv);
  parallel::ThreadPool pool;
  const index_t budget = flags.get_int("iterations", 1600);
  const index_t dim = flags.get_int("dim", 32);

  data::GaussianSpec spec;
  spec.dim = dim;
  spec.num_classes = 10;
  spec.num_samples = 6000;
  spec.separation = 3.0;
  const auto all = data::make_gaussian_classes(spec);
  rng::Xoshiro256 gen(21);
  const auto tt = data::split_train_test(all, 0.2, gen);
  const auto fed = data::partition_one_class_per_edge(tt, 10, 3, gen);
  const sim::HierTopology topo(10, 3);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());

  std::cout << "fixed budget T = " << budget
            << " local iterations per client\n\n"
            << std::left << std::setw(10) << "tau1xtau2" << std::right
            << std::setw(8) << "rounds" << std::setw(14) << "edge_cloud"
            << std::setw(14) << "client_edge" << std::setw(10) << "avg"
            << std::setw(10) << "worst" << '\n';
  for (const auto& [tau1, tau2] : std::vector<std::pair<index_t, index_t>>{
           {1, 1}, {2, 1}, {2, 2}, {4, 2}, {4, 4}, {8, 4}}) {
    algo::TrainOptions opts;
    opts.tau1 = tau1;
    opts.tau2 = tau2;
    opts.rounds = std::max<index_t>(1, budget / (tau1 * tau2));
    opts.batch_size = 4;
    opts.eta_w = 0.05;
    opts.eta_p = 0.02;
    opts.sampled_edges = 5;
    opts.eval_every = 0;
    opts.seed = 9;
    const auto result = algo::train_hierminimax(model, fed, topo, opts, pool);
    const auto& s = result.history.back().summary;
    std::cout << std::left << std::setw(10)
              << (std::to_string(tau1) + "x" + std::to_string(tau2))
              << std::right << std::setw(8) << opts.rounds << std::setw(14)
              << result.comm.edge_cloud_rounds << std::setw(14)
              << result.comm.client_edge_rounds << std::fixed
              << std::setprecision(4) << std::setw(10) << s.average
              << std::setw(10) << s.worst << std::defaultfloat
              << std::setprecision(6) << '\n';
  }
  std::cout << "\nLarger tau1*tau2 => fewer edge-cloud rounds for the same\n"
               "T (communication complexity O(T^{1-alpha})), at some cost\n"
               "in accuracy at the fixed budget (rate O(T^{-(1-alpha)/2})).\n";
  return 0;
}
