// Table 2 reproduction: HierFAVG vs HierMinimax on five datasets —
// average accuracy, worst(-10%) accuracy, and across-edge accuracy
// variance. Logistic regression everywhere, as in the paper's Table 2.
//
// Datasets (surrogates per DESIGN.md §1):
//   EMNIST-Digits-like, Fashion-MNIST-like, MNIST-like: 10 edges x 3
//     clients, one class per edge.
//   Adult-like: 2 edges (Doctorate / non-Doctorate groups) x 3 clients.
//   Li-Synthetic(1,1): 100 edge areas (one device each), worst 10%
//     metric as in [19].
//
// Usage: bench_table2_fairness [--rounds K] [--dim D] [--seed S]
#include <algorithm>
#include <iomanip>
#include <iostream>

#include "bench_common.hpp"
#include "core/log.hpp"
#include "core/stopwatch.hpp"
#include "metrics/evaluation.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace hm;

struct Row {
  std::string dataset;
  std::string method;
  scalar_t average;
  scalar_t worst;
  scalar_t variance;
};

void append_rows(std::vector<Row>& rows, const std::string& dataset,
                 const algo::TrainResult& favg,
                 const algo::TrainResult& minimax, scalar_t worst_fraction) {
  // Tail-average the last evaluations to suppress snapshot noise.
  constexpr index_t kTailWindow = 10;
  auto make_row = [&](const std::string& method,
                      const algo::TrainResult& r) {
    const auto& records = r.history.records();
    const auto n = static_cast<index_t>(records.size());
    const index_t window = std::min(kTailWindow, n);
    Row row;
    row.dataset = dataset;
    row.method = method;
    row.average = 0;
    row.worst = 0;
    row.variance = 0;
    for (index_t i = n - window; i < n; ++i) {
      const auto& rec = records[static_cast<std::size_t>(i)];
      row.average += rec.summary.average;
      row.worst += worst_fraction >= 1.0
                       ? rec.summary.worst
                       : metrics::worst_fraction_accuracy(rec.edge_acc,
                                                          worst_fraction);
      row.variance += rec.summary.variance_pct2;
    }
    row.average /= static_cast<scalar_t>(window);
    row.worst /= static_cast<scalar_t>(window);
    row.variance /= static_cast<scalar_t>(window);
    return row;
  };
  rows.push_back(make_row("HierFAVG", favg));
  rows.push_back(make_row("HierMinimax", minimax));
}

int run(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  parallel::ThreadPool pool;
  const index_t rounds = flags.get_int("rounds", 300);
  const index_t dim = flags.get_int("dim", 64);
  const seed_t seed = static_cast<seed_t>(flags.get_int("seed", 3));

  algo::TrainOptions opts;
  opts.rounds = rounds;
  opts.tau1 = 2;
  opts.tau2 = 2;
  opts.batch_size = 4;
  opts.eta_w = flags.get_double("eta-w", 0.05);
  opts.eta_p = flags.get_double("eta-p", 0.002);
  opts.sampled_edges = 5;
  opts.eval_every = std::max<index_t>(1, rounds / 20);
  opts.seed = seed;

  std::vector<Row> rows;
  Stopwatch sw;

  // --- Three image-like datasets, one class per edge.
  for (const auto family :
       {bench::ImageFamily::kEmnistDigits, bench::ImageFamily::kFashion,
        bench::ImageFamily::kMnist}) {
    const auto fed = bench::make_one_class_fed(family, dim, 10, 3,
                                               /*num_samples=*/8000, seed);
    const sim::HierTopology topo(10, 3);
    const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
    const auto favg = algo::train_hierfavg(model, fed, topo, opts, pool);
    const auto mm = algo::train_hierminimax(model, fed, topo, opts, pool);
    append_rows(rows, bench::family_name(family), favg, mm, 1.0);
    log::info() << "[table2] " << bench::family_name(family) << " done at "
                << sw.seconds() << " s";
  }

  // --- Adult-like: 2 edges (groups), eta_p reduced as in the paper.
  {
    data::AdultLikeSpec spec;
    spec.seed = seed + 10;
    const auto groups = data::make_adult_like(spec);
    rng::Xoshiro256 gen(seed + 11);
    const auto fed = data::partition_by_group(groups, 3, 0.25, gen);
    const sim::HierTopology topo(2, 3);
    const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
    algo::TrainOptions adult_opts = opts;
    adult_opts.sampled_edges = 0;  // both groups participate
    adult_opts.eta_p = opts.eta_p;
    const auto favg = algo::train_hierfavg(model, fed, topo, adult_opts, pool);
    const auto mm = algo::train_hierminimax(model, fed, topo, adult_opts, pool);
    append_rows(rows, "Adult-like", favg, mm, 1.0);
    log::info() << "[table2] Adult-like done at " << sw.seconds() << " s";
  }

  // --- Li-Synthetic(1,1): 100 edge areas, worst-10% metric.
  {
    data::LiSyntheticSpec spec;
    spec.num_devices = flags.get_int("synthetic-devices", 100);
    spec.seed = seed + 20;
    const auto devices = data::make_li_synthetic(spec);
    rng::Xoshiro256 gen(seed + 21);
    const auto fed = data::partition_by_group(devices, 1, 0.25, gen);
    const sim::HierTopology topo(static_cast<index_t>(devices.size()), 1);
    const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
    algo::TrainOptions li_opts = opts;
    li_opts.sampled_edges = 10;
    li_opts.eta_w = flags.get_double("synthetic-eta-w", 0.02);
    li_opts.eta_p = flags.get_double("synthetic-eta-p", 0.002);
    const auto favg = algo::train_hierfavg(model, fed, topo, li_opts, pool);
    const auto mm = algo::train_hierminimax(model, fed, topo, li_opts, pool);
    append_rows(rows, "Synthetic(1,1)", favg, mm, 0.10);
    log::info() << "[table2] Synthetic done at " << sw.seconds() << " s";
  }

  std::cout << "# Table 2: comparison of HierFAVG and HierMinimax\n"
            << "# (worst = worst edge accuracy; worst-10% for Synthetic)\n"
            << "dataset\tmethod\taverage\tworst\tvariance_pct2\n"
            << std::fixed << std::setprecision(4);
  for (const auto& row : rows) {
    std::cout << row.dataset << '\t' << row.method << '\t' << row.average
              << '\t' << row.worst << '\t' << row.variance << '\n';
  }
  log::info() << "[bench_table2_fairness] done in " << sw.seconds() << " s";
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
