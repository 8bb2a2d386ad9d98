// Quantization ablation (Hier-Local-QSGD-style, after [22]): sweep the
// per-coordinate bit width of uplink model payloads and report final
// accuracy vs wide-area bytes for HierMinimax and HierFAVG. The expected
// shape: bytes fall ~linearly in bits while accuracy is flat down to
// ~6-8 bits and collapses below ~2-3 bits.
//
// Usage: bench_quantization [--rounds K] [--dim D] [--seed S]
#include <iomanip>
#include <iostream>

#include "bench_common.hpp"
#include "core/log.hpp"
#include "core/stopwatch.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace hm;

int run(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  parallel::ThreadPool pool;
  const index_t rounds = flags.get_int("rounds", 250);
  const index_t dim = flags.get_int("dim", 48);
  const seed_t seed = static_cast<seed_t>(flags.get_int("seed", 6));

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
  base.eta_p = 0.002;
  base.sampled_edges = 5;
  base.eval_every = std::max<index_t>(1, rounds / 20);
  base.seed = seed;

  Stopwatch sw;
  std::cout << "# Quantized uplinks: accuracy vs wide-area bytes\n"
            << "method\tbits\tavg\tworst\twan_mbytes\tclient_edge_mbytes\n"
            << std::fixed;
  for (const int bits : {0, 16, 8, 6, 4, 2, 1}) {
    auto opts = base;
    opts.quantize_bits = bits;
    const auto favg = algo::train_hierfavg(model, fed, topo, opts, pool);
    const auto mm = algo::train_hierminimax(model, fed, topo, opts, pool);
    for (const auto& [name, r] :
         {std::pair<const char*, const algo::TrainResult*>{"HierFAVG", &favg},
          {"HierMinimax", &mm}}) {
      const auto s = r->history.tail_summary(5);
      std::cout << name << '\t' << bits << '\t' << std::setprecision(4)
                << s.average << '\t' << s.worst << '\t'
                << std::setprecision(2)
                << static_cast<double>(r->comm.edge_cloud_bytes) / 1e6
                << '\t'
                << static_cast<double>(r->comm.client_edge_bytes) / 1e6
                << '\n';
    }
  }
  log::info() << "[bench_quantization] done in " << sw.seconds() << " s";
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
