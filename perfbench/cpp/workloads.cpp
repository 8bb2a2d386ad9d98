#include "workloads.hpp"

#include <filesystem>

#include "algo/drfa.hpp"
#include "algo/fedavg.hpp"
#include "algo/hierfavg.hpp"
#include "algo/hierminimax.hpp"
#include "core/check.hpp"
#include "core/stopwatch.hpp"
#include "data/generators.hpp"
#include "nn/mlp.hpp"
#include "nn/softmax_regression.hpp"

namespace hm::perfbench {

namespace {

Inputs finish(data::FederatedDataset fed, std::unique_ptr<nn::Model> model) {
  Inputs in;
  in.fed = std::move(fed);
  in.model = std::move(model);
  in.topo = std::make_unique<sim::HierTopology>(kNumEdges, kClientsPerEdge);
  return in;
}

Inputs make_fig4_inputs(std::uint64_t seed, index_t num_samples) {
  auto spec = data::fashion_like_spec(num_samples, seed);
  spec.dim = kDim;
  const auto all = data::make_gaussian_classes(spec);
  rng::Xoshiro256 gen(seed + 2000);
  const auto tt = data::split_train_test(all, 0.2, gen);
  auto fed = data::partition_similarity(tt, kNumEdges, kClientsPerEdge,
                                        /*similarity=*/0.5, gen);
  const index_t classes = fed.num_classes();
  return finish(std::move(fed), std::make_unique<nn::Mlp>(
                                    nn::make_paper_mlp(kDim, classes)));
}

Inputs make_fig3_inputs(std::uint64_t seed, index_t num_samples) {
  auto spec = data::emnist_digits_like_spec(num_samples, seed);
  spec.dim = kDim;
  const auto all = data::make_gaussian_classes(spec);
  rng::Xoshiro256 gen(seed + 1000);
  const auto tt = data::split_train_test(all, 0.2, gen);
  auto fed = data::partition_one_class_per_edge(tt, kNumEdges,
                                                kClientsPerEdge, gen);
  const index_t classes = fed.num_classes();
  return finish(std::move(fed),
                std::make_unique<nn::SoftmaxRegression>(kDim, classes));
}

}  // namespace

algo::TrainOptions fig4_options(std::uint64_t seed, index_t rounds,
                                const std::string& snapshot_dir) {
  algo::TrainOptions opts;
  opts.rounds = rounds;
  opts.tau1 = 2;
  opts.tau2 = 2;
  opts.batch_size = 8;
  opts.eta_w = 0.03;
  opts.eta_p = 0.001;
  opts.sampled_edges = 2;
  opts.eval_every = 0;  // sparse: final-round evaluation only
  opts.seed = seed;
  opts.snapshot.every_k_rounds = 5;
  opts.snapshot.dir = snapshot_dir;
  return opts;
}

algo::TrainOptions fig3_options(std::uint64_t seed, index_t rounds) {
  algo::TrainOptions opts;
  opts.rounds = rounds;
  opts.tau1 = 2;
  opts.tau2 = 2;
  opts.batch_size = 4;
  opts.eta_w = 0.05;
  opts.eta_p = 0.002;
  opts.sampled_edges = 5;
  opts.eval_every = 1;  // the paper's curves evaluate every round
  opts.seed = seed;
  return opts;
}

algo::TrainOptions hostile_options(std::uint64_t seed, index_t rounds,
                                   net::TransportKind kind) {
  algo::TrainOptions opts = fig3_options(seed, rounds);
  opts.eval_every = 0;
  opts.fault.enabled = true;
  opts.fault.client_dropout_prob = 0.1;
  opts.fault.edge_loss_prob = 0.1;
  opts.fault.attack = sim::AttackKind::kSignFlip;
  opts.fault.attack_prob = 0.2;
  opts.fault.seed = seed ^ 0x686f7374696c65ULL;  // "hostile"
  opts.on_fault = algo::OnFault::kRenormalize;
  opts.aggregate = algo::Aggregate::kMedian;
  opts.transport.kind = kind;
  opts.transport.workers = 2;
  opts.transport.rpc_timeout_ms = 500;
  opts.transport.rpc_retries = 2;
  opts.transport.rpc_backoff_ms = 100;
  return opts;
}

const char* method_name(Method m) {
  switch (m) {
    case Method::kFedAvg: return "fedavg";
    case Method::kStochasticAfl: return "stochastic_afl";
    case Method::kDrfa: return "drfa";
    case Method::kHierFavg: return "hierfavg";
    case Method::kHierMinimax: return "hierminimax";
  }
  return "?";
}

MethodRun run_method(Method method, const Inputs& in,
                     const algo::TrainOptions& opts,
                     parallel::ThreadPool& pool) {
  const index_t n0 = in.topo->clients_per_edge();
  algo::TrainOptions flat = opts;
  flat.tau2 = 1;
  const index_t m_e =
      opts.sampled_edges > 0 ? opts.sampled_edges : in.topo->num_edges();
  flat.sampled_clients = m_e * n0;

  MethodRun run;
  run.method = method;
  Stopwatch sw;
  // Samples per model upload: local steps x batch, times the clients
  // behind each uploaded edge model for the hierarchical methods.
  double per_upload = 0;
  switch (method) {
    case Method::kFedAvg:
      run.result = algo::train_fedavg(*in.model, in.fed, flat, pool);
      per_upload = static_cast<double>(flat.tau1 * flat.batch_size);
      break;
    case Method::kStochasticAfl:
      run.result = algo::train_stochastic_afl(*in.model, in.fed, flat, pool);
      per_upload = 0.5 * static_cast<double>(flat.batch_size);  // model+ckpt
      break;
    case Method::kDrfa:
      run.result = algo::train_drfa(*in.model, in.fed, flat, pool);
      per_upload = 0.5 * static_cast<double>(flat.tau1 * flat.batch_size);
      break;
    case Method::kHierFavg:
      run.result =
          algo::train_hierfavg(*in.model, in.fed, *in.topo, opts, pool);
      per_upload = static_cast<double>(n0 * opts.tau1 * opts.tau2 *
                                       opts.batch_size);
      break;
    case Method::kHierMinimax:
      run.result =
          algo::train_hierminimax(*in.model, in.fed, *in.topo, opts, pool);
      per_upload = 0.5 * static_cast<double>(n0 * opts.tau1 * opts.tau2 *
                                             opts.batch_size);
      break;
  }
  run.seconds = sw.seconds();
  run.samples =
      per_upload * static_cast<double>(run.result.comm.edge_cloud_models_up);
  return run;
}

// Calls are long enough that the per-call work, which depends on how many
// distinct edges the seed's sampling draws, varies little between seeds.
index_t rounds_per_call(const std::string& workload) {
  if (workload == "fig4_mlp") return 40;
  if (workload == "fig3_sweep") return 24;
  if (workload == "socket_hostile") return 10;
  HM_CHECK_MSG(false, "unknown workload '" << workload << "'");
  return 0;
}

Inputs make_inputs(const std::string& workload, std::uint64_t seed) {
  if (workload == "fig4_mlp") return make_fig4_inputs(seed, 3000);
  return make_fig3_inputs(seed, 4000);
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& scratch_dir) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.rounds = rounds_per_call(name);
  if (name == "fig4_mlp") {
    w.snapshot_dir = scratch_dir + "/snapshots";
    w.opts = fig4_options(seed, w.rounds, w.snapshot_dir);
    w.methods = {Method::kHierMinimax};
  } else if (name == "fig3_sweep") {
    w.opts = fig3_options(seed, w.rounds);
    w.methods.assign(std::begin(kAllMethods), std::end(kAllMethods));
  } else {
    w.opts = hostile_options(seed, w.rounds, net::TransportKind::kSocket);
    w.methods = {Method::kHierMinimax};
  }
  return w;
}

std::vector<MethodRun> run_call(const Workload& w, const algo::TrainOptions& opts,
                                parallel::ThreadPool& pool) {
  if (!w.snapshot_dir.empty()) std::filesystem::remove_all(w.snapshot_dir);
  std::vector<MethodRun> runs;
  for (const Method m : w.methods) {
    runs.push_back(run_method(m, w.inputs, opts, pool));
  }
  return runs;
}

}  // namespace hm::perfbench
