// Ablation benchmarks for HierMinimax's design choices (DESIGN.md §3):
//   (a) checkpoint mechanism vs last-iterate loss estimation,
//   (b) tau1 x tau2 grid at a fixed local-update budget,
//   (c) participation sweep over m_E.
//
// Usage: bench_ablation [--rounds K] [--dim D] [--seed S]
#include <iomanip>
#include <iostream>

#include "bench_common.hpp"
#include "core/log.hpp"
#include "core/stopwatch.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace hm;

void print_result_line(const std::string& label,
                       const algo::TrainResult& result) {
  const auto& s = result.history.back().summary;
  std::cout << label << '\t' << std::fixed << std::setprecision(4)
            << s.average << '\t' << s.worst << '\t' << s.variance_pct2
            << '\t' << std::defaultfloat << result.comm.total_rounds()
            << '\t' << result.comm.edge_cloud_rounds << '\n';
}

int run(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  parallel::ThreadPool pool;
  const index_t rounds = flags.get_int("rounds", 250);
  const index_t dim = flags.get_int("dim", 48);
  const seed_t seed = static_cast<seed_t>(flags.get_int("seed", 5));

  const index_t num_edges = 10, clients_per_edge = 3;
  const auto fed = bench::make_one_class_fed(
      bench::ImageFamily::kEmnistDigits, dim, num_edges, clients_per_edge,
      /*num_samples=*/8000, seed);
  const sim::HierTopology topo(num_edges, clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());

  algo::TrainOptions base;
  base.rounds = rounds;
  base.tau1 = 2;
  base.tau2 = 2;
  base.batch_size = 4;
  base.eta_w = 0.05;
  base.eta_p = 0.02;
  base.sampled_edges = 5;
  base.eval_every = 0;
  base.seed = seed;

  Stopwatch sw;
  std::cout << "# Ablation (a): checkpoint mechanism\n"
            << "variant\tavg\tworst\tvariance\ttotal_rounds\tedge_cloud\n";
  {
    auto on = base;
    on.use_checkpoint = true;
    print_result_line("checkpoint(Eq.6)",
                      algo::train_hierminimax(model, fed, topo, on, pool));
    auto off = base;
    off.use_checkpoint = false;
    print_result_line("last-iterate",
                      algo::train_hierminimax(model, fed, topo, off, pool));
  }

  std::cout << "\n# Ablation (b): tau1 x tau2 at fixed tau1*tau2*K budget\n"
            << "tau1xtau2\tavg\tworst\tvariance\ttotal_rounds\tedge_cloud\n";
  const index_t budget = rounds * base.tau1 * base.tau2;
  for (const auto& [t1, t2] : std::vector<std::pair<index_t, index_t>>{
           {1, 1}, {2, 1}, {1, 2}, {2, 2}, {4, 2}, {2, 4}, {4, 4}}) {
    auto opts = base;
    opts.tau1 = t1;
    opts.tau2 = t2;
    opts.rounds = std::max<index_t>(1, budget / (t1 * t2));
    print_result_line(std::to_string(t1) + "x" + std::to_string(t2),
                      algo::train_hierminimax(model, fed, topo, opts, pool));
  }

  std::cout << "\n# Ablation (c): participation m_E\n"
            << "m_E\tavg\tworst\tvariance\ttotal_rounds\tedge_cloud\n";
  for (const index_t m_e : {1, 2, 5, 10}) {
    auto opts = base;
    opts.sampled_edges = m_e;
    print_result_line(std::to_string(m_e),
                      algo::train_hierminimax(model, fed, topo, opts, pool));
  }
  log::info() << "[bench_ablation] done in " << sw.seconds() << " s";
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
