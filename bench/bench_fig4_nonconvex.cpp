// Figure 4 reproduction: average and worst test accuracies vs
// communication rounds with non-convex loss (two-hidden-layer ReLU MLP,
// Fashion-MNIST-like task, 50% similarity partition).
//
// Paper protocol (§6.2): N_E = 10, N_0 = 3, m_E = 2, tau1 = tau2 = 2,
// s = 50%, batch size 8, eta_w = 0.001, eta_p = 0.0001, hidden layers
// 300/100. Defaults shrink the input dimension and hidden widths so the
// run finishes in around a minute; --paper-scale restores the paper's
// architecture.
//
// Usage: bench_fig4_nonconvex [--rounds K] [--dim D] [--similarity 0.5]
//                             [--target 0.55] [--num-seeds N] [--paper-scale]
#include <iostream>

#include "bench_common.hpp"
#include "core/log.hpp"
#include "core/stopwatch.hpp"

namespace {

using namespace hm;

int run(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  const bool paper_scale = flags.get_bool("paper-scale", false);
  const index_t dim = flags.get_int("dim", paper_scale ? 784 : 32);
  const index_t rounds = flags.get_int("rounds", paper_scale ? 6000 : 1200);
  const index_t samples = flags.get_int("samples", paper_scale ? 60000 : 6000);
  const scalar_t similarity = flags.get_double("similarity", 0.5);
  const scalar_t target = flags.get_double("target", 0.55);
  const seed_t seed = static_cast<seed_t>(flags.get_int("seed", 2));

  const index_t num_edges = 10, clients_per_edge = 3;
  const auto fed = bench::make_similarity_fed(bench::ImageFamily::kFashion,
                                              dim, num_edges,
                                              clients_per_edge, similarity,
                                              samples, seed);
  const sim::HierTopology topo(num_edges, clients_per_edge);
  const nn::Mlp model = paper_scale
                            ? nn::make_paper_mlp(dim, fed.num_classes())
                            : nn::Mlp({dim, 48, 24, fed.num_classes()});

  algo::TrainOptions opts;
  opts.rounds = rounds;
  opts.tau1 = 2;
  opts.tau2 = 2;
  opts.batch_size = 8;
  opts.eta_w = flags.get_double("eta-w", paper_scale ? 0.001 : 0.03);
  opts.eta_p = flags.get_double("eta-p", paper_scale ? 0.0001 : 0.001);
  opts.sampled_edges = flags.get_int("m-e", 2);
  opts.eval_every = std::max<index_t>(1, rounds / 60);
  opts.seed = seed;

  std::cout << "# Figure 4: non-convex loss (ReLU MLP), "
            << bench::family_name(bench::ImageFamily::kFashion) << ", s="
            << similarity * 100 << "% similarity\n"
            << "# N_E=10 N_0=3 m_E=2 tau1=tau2=2 dim=" << dim
            << " params=" << model.num_params() << " rounds=" << rounds
            << "\n";

  Stopwatch sw;
  const index_t num_seeds = flags.get_int("num-seeds", 3);
  std::vector<std::vector<bench::MethodRun>> per_seed;
  for (index_t s = 0; s < num_seeds; ++s) {
    auto seed_opts = opts;
    seed_opts.seed = seed + static_cast<seed_t>(s);
    per_seed.push_back(bench::run_five_methods(model, fed, topo, seed_opts));
    log::info() << "[seed " << seed_opts.seed << "] done at "
                << sw.seconds() << " s";
  }
  const auto& runs = per_seed.front();
  bench::print_curves(std::cout, runs);
  bench::print_threshold_summary(std::cout, runs, target);
  bench::print_seed_averaged(
      std::cout, bench::average_over_seeds(per_seed, target), target);
  std::cout << "\n# final summary (dataset\tmethod\tavg\tworst\tvariance)\n";
  bench::print_final_summary(std::cout, "Fashion-MNIST-like", runs);
  log::info() << "[bench_fig4_nonconvex] done in " << sw.seconds() << " s";
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
