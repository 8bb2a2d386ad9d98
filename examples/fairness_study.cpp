// Fairness study: run all five methods of the paper on the same
// heterogeneous task and compare average accuracy, worst-edge accuracy,
// and accuracy variance — a miniature of Figs. 3/4 + Table 2.
//
// Usage: ./fairness_study [--rounds 300] [--dim 48] [--similarity 0.3]
#include <iomanip>
#include <iostream>

#include "algo/drfa.hpp"
#include "algo/fedavg.hpp"
#include "algo/hierfavg.hpp"
#include "algo/hierminimax.hpp"
#include "algo/qffl.hpp"
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
  const index_t rounds = flags.get_int("rounds", 300);
  const index_t dim = flags.get_int("dim", 48);
  const scalar_t similarity = flags.get_double("similarity", 0.3);

  auto spec = data::emnist_digits_like_spec(/*num_samples=*/8000);
  spec.dim = dim;
  const auto all = data::make_gaussian_classes(spec);
  rng::Xoshiro256 gen(11);
  const auto tt = data::split_train_test(all, 0.2, gen);
  const auto fed = data::partition_similarity(tt, 10, 3, similarity, gen);
  const sim::HierTopology topo(10, 3);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());

  algo::TrainOptions opts;
  opts.rounds = rounds;
  opts.tau1 = 2;
  opts.tau2 = 2;
  opts.batch_size = 4;
  opts.eta_w = 0.05;
  opts.eta_p = 0.002;
  opts.sampled_edges = 5;
  opts.eval_every = 0;
  opts.seed = 3;
  algo::TrainOptions flat = opts;
  flat.sampled_clients = opts.sampled_edges * topo.clients_per_edge();

  struct Entry {
    std::string name;
    algo::TrainResult result;
  };
  std::vector<Entry> entries;
  entries.push_back({"FedAvg", algo::train_fedavg(model, fed, flat, pool)});
  entries.push_back(
      {"Stochastic-AFL", algo::train_stochastic_afl(model, fed, flat, pool)});
  entries.push_back({"DRFA", algo::train_drfa(model, fed, flat, pool)});
  algo::TrainOptions qffl = flat;
  qffl.q = 2;
  entries.push_back({"q-FFL(q=2)", algo::train_qffl(model, fed, qffl, pool)});
  entries.push_back(
      {"HierFAVG", algo::train_hierfavg(model, fed, topo, opts, pool)});
  entries.push_back(
      {"HierMinimax", algo::train_hierminimax(model, fed, topo, opts, pool)});

  std::cout << "similarity s=" << similarity * 100 << "%, rounds=" << rounds
            << ", 10 edges x 3 clients\n\n"
            << std::left << std::setw(16) << "method" << std::right
            << std::setw(10) << "avg" << std::setw(10) << "worst"
            << std::setw(12) << "var(pct^2)" << std::setw(14)
            << "comm_rounds" << '\n';
  for (const auto& e : entries) {
    const auto& s = e.result.history.back().summary;
    std::cout << std::left << std::setw(16) << e.name << std::right
              << std::fixed << std::setprecision(4) << std::setw(10)
              << s.average << std::setw(10) << s.worst << std::setw(12)
              << std::setprecision(2) << s.variance_pct2 << std::setw(14)
              << e.result.comm.total_rounds() << std::defaultfloat
              << std::setprecision(6) << '\n';
  }
  std::cout << "\nExpected shape (paper Figs. 3-4): the three minimax\n"
               "methods hold much higher worst accuracy and lower variance\n"
               "than FedAvg/HierFAVG at a small average-accuracy cost.\n";
  return 0;
}
