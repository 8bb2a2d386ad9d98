// The three benchmark workloads: their generated inputs, their training
// configuration, and one closed-loop train call each.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "algo/options.hpp"
#include "data/federated.hpp"
#include "nn/model.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/topology.hpp"

namespace hm::perfbench {

inline constexpr index_t kNumEdges = 10;
inline constexpr index_t kClientsPerEdge = 3;
inline constexpr index_t kDim = 784;

/// Everything a train call consumes, generated from the workload seed.
struct Inputs {
  data::FederatedDataset fed;
  std::unique_ptr<nn::Model> model;
  std::unique_ptr<sim::HierTopology> topo;
};

/// Training options of each workload. `rounds` is the length of one call.
algo::TrainOptions fig4_options(std::uint64_t seed, index_t rounds,
                                const std::string& snapshot_dir);
algo::TrainOptions fig3_options(std::uint64_t seed, index_t rounds);
/// socket_hostile's options over `kind` (kInproc for the oracle run).
algo::TrainOptions hostile_options(std::uint64_t seed, index_t rounds,
                                   net::TransportKind kind);

/// The paper's five methods, in sweep order.
enum class Method { kFedAvg, kStochasticAfl, kDrfa, kHierFavg, kHierMinimax };
const char* method_name(Method m);
inline constexpr Method kAllMethods[] = {
    Method::kFedAvg, Method::kStochasticAfl, Method::kDrfa, Method::kHierFavg,
    Method::kHierMinimax};

struct MethodRun {
  Method method = Method::kHierMinimax;
  algo::TrainResult result;
  double seconds = 0;
  double samples = 0;  // training samples consumed by local SGD
};

/// One train call of `method` with the §6 conventions: two-layer methods
/// sample m_E * N_0 clients with tau2 = 1 so every method trains the same
/// device count per round.
MethodRun run_method(Method method, const Inputs& in,
                     const algo::TrainOptions& opts,
                     parallel::ThreadPool& pool);

/// Static description of a workload instance: its inputs, its measured
/// options, and which methods one call runs.
struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  index_t rounds = 0;  // rounds per train call
  std::vector<Method> methods;
  algo::TrainOptions opts;
  Inputs inputs;
  std::string snapshot_dir;  // fig4_mlp only; cleared before every call
};

/// Rounds per call of each workload (fixed by the benchmark).
index_t rounds_per_call(const std::string& workload);

/// Generate the workload's inputs from `seed`: the Fig. 4 family
/// (Fashion-like, s=0.5 similarity split, MLP) for fig4_mlp, the Fig. 3
/// family (EMNIST-Digits-like, one class per edge, softmax regression)
/// for the other two.
Inputs make_inputs(const std::string& workload, std::uint64_t seed);

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& scratch_dir);

/// One closed-loop train call: every method of the workload in order.
std::vector<MethodRun> run_call(const Workload& w, const algo::TrainOptions& opts,
                                parallel::ThreadPool& pool);

}  // namespace hm::perfbench
