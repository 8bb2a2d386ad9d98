#include "bench_common.hpp"

#include <iomanip>

#include "core/check.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/latency.hpp"

namespace hm::bench {

ImageFamily family_from_string(const std::string& name) {
  if (name == "emnist") return ImageFamily::kEmnistDigits;
  if (name == "mnist") return ImageFamily::kMnist;
  if (name == "fashion") return ImageFamily::kFashion;
  HM_CHECK_MSG(false, "unknown dataset family '" << name << "'");
  return ImageFamily::kEmnistDigits;
}

std::string family_name(ImageFamily family) {
  switch (family) {
    case ImageFamily::kEmnistDigits: return "EMNIST-Digits-like";
    case ImageFamily::kMnist: return "MNIST-like";
    case ImageFamily::kFashion: return "Fashion-MNIST-like";
  }
  return "?";
}

namespace {

data::GaussianSpec family_spec(ImageFamily family, index_t dim,
                               index_t num_samples, seed_t seed) {
  data::GaussianSpec spec;
  switch (family) {
    case ImageFamily::kEmnistDigits:
      spec = data::emnist_digits_like_spec(num_samples, seed);
      break;
    case ImageFamily::kMnist:
      spec = data::mnist_like_spec(num_samples, seed);
      break;
    case ImageFamily::kFashion:
      spec = data::fashion_like_spec(num_samples, seed);
      break;
  }
  spec.dim = dim;
  return spec;
}

}  // namespace

data::FederatedDataset make_one_class_fed(ImageFamily family, index_t dim,
                                          index_t num_edges,
                                          index_t clients_per_edge,
                                          index_t num_samples, seed_t seed) {
  const auto all = data::make_gaussian_classes(
      family_spec(family, dim, num_samples, seed));
  rng::Xoshiro256 gen(seed + 1000);
  const auto tt = data::split_train_test(all, 0.2, gen);
  return data::partition_one_class_per_edge(tt, num_edges, clients_per_edge,
                                            gen);
}

data::FederatedDataset make_similarity_fed(ImageFamily family, index_t dim,
                                           index_t num_edges,
                                           index_t clients_per_edge,
                                           scalar_t similarity,
                                           index_t num_samples, seed_t seed) {
  const auto all = data::make_gaussian_classes(
      family_spec(family, dim, num_samples, seed));
  rng::Xoshiro256 gen(seed + 2000);
  const auto tt = data::split_train_test(all, 0.2, gen);
  return data::partition_similarity(tt, num_edges, clients_per_edge,
                                    similarity, gen);
}

std::vector<MethodRun> run_five_methods(const nn::Model& model,
                                        const data::FederatedDataset& fed,
                                        const sim::HierTopology& topo,
                                        const algo::TrainOptions& opts) {
  // Two-layer methods sample the same number of devices per round as the
  // hierarchical ones (m = m_E * N_0).
  algo::TrainOptions flat = opts;
  flat.tau2 = 1;
  const index_t m_e =
      opts.sampled_edges > 0 ? opts.sampled_edges : topo.num_edges();
  flat.sampled_clients = m_e * topo.clients_per_edge();

  std::vector<MethodRun> runs;
  parallel::ThreadPool pool;
  runs.push_back({"FedAvg", algo::train_fedavg(model, fed, flat, pool)});
  runs.push_back(
      {"Stochastic-AFL", algo::train_stochastic_afl(model, fed, flat, pool)});
  runs.push_back({"DRFA", algo::train_drfa(model, fed, flat, pool)});
  runs.push_back({"HierFAVG", algo::train_hierfavg(model, fed, topo, opts,
                                                   pool)});
  runs.push_back(
      {"HierMinimax", algo::train_hierminimax(model, fed, topo, opts, pool)});
  return runs;
}

void print_curves(std::ostream& os, const std::vector<MethodRun>& runs) {
  metrics::TrainingHistory::write_tsv_header(os);
  for (const auto& run : runs) {
    run.result.history.write_tsv(os, run.name);
  }
}

void print_threshold_summary(std::ostream& os,
                             const std::vector<MethodRun>& runs,
                             scalar_t target_worst) {
  os << "\n# wide-area communication overhead (edge-cloud model payloads)"
        " to reach sustained worst accuracy >= "
     << target_worst << "  (trailing mean of 3 evaluations)\n";
  std::optional<std::uint64_t> ours;
  for (const auto& run : runs) {
    if (run.name == "HierMinimax") {
      ours = run.result.history.wan_payloads_to_sustained_worst(
          target_worst);
    }
  }
  os << "method\twan_payloads_to_target\treduction_by_hierminimax\n";
  for (const auto& run : runs) {
    const auto rounds =
        run.result.history.wan_payloads_to_sustained_worst(target_worst);
    os << run.name << '\t';
    if (rounds) {
      os << *rounds;
    } else {
      os << "not_reached";
    }
    os << '\t';
    if (run.name == "HierMinimax") {
      os << "-";
    } else if (ours && rounds && *rounds > 0) {
      const double reduction =
          100.0 * (1.0 - static_cast<double>(*ours) /
                             static_cast<double>(*rounds));
      os << std::fixed << std::setprecision(1) << reduction << "%"
         << std::defaultfloat << std::setprecision(6);
    } else {
      os << "n/a";
    }
    os << '\n';
  }
}

void print_final_summary(std::ostream& os, const std::string& dataset,
                         const std::vector<MethodRun>& runs) {
  // Tail-average the last evaluations: single-snapshot summaries are
  // dominated by SGD noise on these small simulated tasks.
  for (const auto& run : runs) {
    const auto s = run.result.history.tail_summary(/*window=*/10);
    os << dataset << '\t' << run.name << '\t' << std::fixed
       << std::setprecision(4) << s.average << '\t' << s.worst << '\t'
       << std::setprecision(4) << s.variance_pct2 << std::defaultfloat
       << std::setprecision(6) << '\n';
  }
}

std::vector<SeedAveraged> average_over_seeds(
    const std::vector<std::vector<MethodRun>>& per_seed,
    scalar_t target_worst) {
  HM_CHECK(!per_seed.empty());
  const std::size_t num_methods = per_seed.front().size();
  std::vector<SeedAveraged> rows(num_methods);
  for (std::size_t m = 0; m < num_methods; ++m) {
    auto& row = rows[m];
    row.name = per_seed.front()[m].name;
    row.seeds = static_cast<index_t>(per_seed.size());
    for (const auto& runs : per_seed) {
      HM_CHECK(runs[m].name == row.name);
      const auto tail = runs[m].result.history.tail_summary(10);
      row.tail.average += tail.average;
      row.tail.worst += tail.worst;
      row.tail.best += tail.best;
      row.tail.variance_pct2 += tail.variance_pct2;
      const auto payloads =
          runs[m].result.history.wan_payloads_to_sustained_worst(
              target_worst);
      if (payloads) {
        row.mean_payloads += static_cast<double>(*payloads);
        ++row.reached;
      }
      row.mean_seconds += sim::NetworkProfile{}.seconds(
          runs[m].result.comm, /*concurrency=*/8);
    }
    const auto inv = scalar_t{1} / static_cast<scalar_t>(row.seeds);
    row.tail.average *= inv;
    row.tail.worst *= inv;
    row.tail.best *= inv;
    row.tail.variance_pct2 *= inv;
    if (row.reached > 0) {
      row.mean_payloads /= static_cast<double>(row.reached);
    }
    row.mean_seconds /= static_cast<double>(row.seeds);
  }
  return rows;
}

void print_seed_averaged(std::ostream& os,
                         const std::vector<SeedAveraged>& rows,
                         scalar_t target_worst) {
  const SeedAveraged* ours = nullptr;
  for (const auto& row : rows) {
    if (row.name == "HierMinimax") ours = &row;
  }
  os << "\n# seed-averaged results (" << rows.front().seeds << " seeds); "
     << "payloads = mean WAN payloads to sustained worst accuracy >= "
     << target_worst << "\n"
     << "method\tavg\tworst\tvariance_pct2\tpayloads_to_target\treached\t"
        "reduction_by_hierminimax\test_wallclock_s\n";
  for (const auto& row : rows) {
    os << row.name << '\t' << std::fixed << std::setprecision(4)
       << row.tail.average << '\t' << row.tail.worst << '\t'
       << std::setprecision(2) << row.tail.variance_pct2 << '\t';
    if (row.reached > 0) {
      os << std::setprecision(0) << row.mean_payloads;
    } else {
      os << "not_reached";
    }
    os << '\t' << row.reached << '/' << row.seeds << '\t';
    if (row.name == "HierMinimax") {
      os << "-";
    } else if (ours != nullptr && ours->reached > 0 && row.reached > 0 &&
               row.mean_payloads > 0) {
      os << std::setprecision(1)
         << 100.0 * (1.0 - ours->mean_payloads / row.mean_payloads) << "%";
    } else {
      os << "n/a";
    }
    os << '\t' << std::setprecision(1) << row.mean_seconds;
    os << std::defaultfloat << std::setprecision(6) << '\n';
  }
}

}  // namespace hm::bench
