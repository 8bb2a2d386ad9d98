// Multi-level generalization bench: the same 40-client population
// organized as a 3-layer (cloud-edge-client) vs a 4-layer
// (cloud-region-edge-client) hierarchy, with per-round local work held
// fixed (prod(taus) = 8 leaf iterations per round). Deeper trees push
// synchronization further down: the top (WAN) link sees the same 2
// rounds per training round, while every synchronized block below the
// areas is one client_edge round (sim::CommStats).
//
// Usage: bench_multilevel [--rounds K] [--dim D] [--seed S]
#include <iomanip>
#include <iostream>

#include "algo/hierminimax.hpp"
#include "bench_common.hpp"
#include "core/log.hpp"
#include "core/stopwatch.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace hm;

struct Config {
  std::string name;
  std::vector<index_t> branching;
  std::vector<index_t> taus;
};

int run(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  parallel::ThreadPool pool;
  const index_t rounds = flags.get_int("rounds", 300);
  const index_t dim = flags.get_int("dim", 48);
  const seed_t seed = static_cast<seed_t>(flags.get_int("seed", 8));

  // 10 areas x 4 leaves each = 40 clients in every configuration.
  const auto fed = bench::make_one_class_fed(
      bench::ImageFamily::kEmnistDigits, dim, /*num_edges=*/10,
      /*clients_per_edge=*/4, /*num_samples=*/8000, seed);

  const std::vector<Config> configs = {
      {"3-layer (10x4), taus {4,2}", {10, 4}, {4, 2}},
      {"4-layer (10x2x2), taus {2,2,2}", {10, 2, 2}, {2, 2, 2}},
      {"4-layer (10x2x2), taus {4,1,2}", {10, 2, 2}, {4, 1, 2}},
  };

  std::cout << "# Multi-level HierMinimax at fixed per-round local work "
               "(8 leaf iterations)\n"
            << "config\tavg\tworst\tvar_pct2\tedge_cloud_rounds\t"
               "client_edge_rounds\n";
  Stopwatch sw;
  for (const auto& config : configs) {
    const sim::MultiTopology topo(config.branching);
    HM_CHECK(topo.num_leaves() == fed.num_clients());
    const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
    algo::TrainOptions opts;
    opts.rounds = rounds;
    opts.taus = config.taus;
    opts.batch_size = 4;
    opts.eta_w = 0.05;
    opts.eta_p = 0.002;
    opts.sampled_edges = 5;
    opts.eval_every = std::max<index_t>(1, rounds / 15);
    opts.seed = seed;
    const auto result = algo::train_hierminimax(model, fed, topo, opts, pool);
    const auto s = result.history.tail_summary(5);
    std::cout << config.name << '\t' << std::fixed << std::setprecision(4)
              << s.average << '\t' << s.worst << '\t'
              << std::setprecision(2) << s.variance_pct2 << '\t'
              << std::defaultfloat << result.comm.edge_cloud_rounds << '\t'
              << result.comm.client_edge_rounds << '\n';
  }
  log::info() << "[bench_multilevel] done in " << sw.seconds() << " s";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    hm::log::error() << "error: " << e.what();
    return 1;
  }
}
