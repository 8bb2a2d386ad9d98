// Figure 3 reproduction: average and worst test accuracies vs
// communication rounds with convex loss (multinomial logistic regression,
// EMNIST-Digits-like task, one class per edge area).
//
// Paper protocol (§6.1): N_E = 10, N_0 = 3, m_E = 5, tau1 = tau2 = 2,
// eta_w = eta_p = 0.001, batch size 1. Defaults here use a 64-dim
// surrogate task and larger learning rates so the crossover structure
// appears in seconds; pass --paper-scale for the full setting.
//
// Usage: bench_fig3_convex [--rounds K] [--dim D] [--target 0.70]
//                          [--num-seeds N] [--paper-scale] [--seed S]
#include <iostream>

#include "bench_common.hpp"
#include "core/log.hpp"
#include "core/stopwatch.hpp"

namespace {

using namespace hm;

int run(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  const bool paper_scale = flags.get_bool("paper-scale", false);
  const index_t dim = flags.get_int("dim", paper_scale ? 784 : 64);
  const index_t rounds = flags.get_int("rounds", paper_scale ? 4000 : 800);
  const index_t samples = flags.get_int("samples", paper_scale ? 60000 : 8000);
  const scalar_t target = flags.get_double("target", 0.70);
  const seed_t seed = static_cast<seed_t>(flags.get_int("seed", 1));

  const index_t num_edges = 10, clients_per_edge = 3;
  const auto fed = bench::make_one_class_fed(
      bench::ImageFamily::kEmnistDigits, dim, num_edges, clients_per_edge,
      samples, seed);
  const sim::HierTopology topo(num_edges, clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());

  algo::TrainOptions opts;
  opts.rounds = rounds;
  opts.tau1 = 2;
  opts.tau2 = 2;
  opts.batch_size = paper_scale ? 1 : 4;
  opts.eta_w = flags.get_double("eta-w", paper_scale ? 0.001 : 0.05);
  opts.eta_p = flags.get_double("eta-p", paper_scale ? 0.001 : 0.002);
  opts.sampled_edges = flags.get_int("m-e", 5);
  opts.eval_every = std::max<index_t>(1, rounds / 100);
  opts.seed = seed;

  std::cout << "# Figure 3: convex loss (logistic regression), "
            << bench::family_name(bench::ImageFamily::kEmnistDigits)
            << ", one class per edge\n"
            << "# N_E=10 N_0=3 m_E=5 tau1=tau2=2 dim=" << dim
            << " rounds=" << rounds << "\n";

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
  bench::print_final_summary(std::cout, "EMNIST-Digits-like", runs);
  log::info() << "[bench_fig3_convex] done in " << sw.seconds() << " s";
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
