// Quickstart: train a fair global model over a client-edge-cloud
// hierarchy with HierMinimax in ~40 lines of user code.
//
// The walkthrough:
//   1. build a heterogeneous federated dataset (one class per edge area),
//   2. describe the hierarchy (N_E edge areas x N_0 clients),
//   3. pick a model (convex logistic regression here),
//   4. configure HierMinimax (tau1/tau2, learning rates, participation),
//   5. train and inspect per-edge fairness metrics and the learned
//      adversarial edge weights p.
//
// Build & run:  ./quickstart [--rounds 200]
//
// Fault injection (see src/algo/fault_config.hpp for the full set):
//   ./quickstart --dropout 0.2 --on-fault stale
// trains the same seeded run under 20% per-round client dropout, reusing
// decayed stale updates for the casualties, and reports delivery stats.
//
// Byzantine attacks & robust aggregation (DESIGN.md §13):
//   ./quickstart --attack sign-flip --attack-frac 0.2 --aggregate trimmed
// makes ~20% of clients per round upload sign-flipped models while the
// servers defend with the trimmed mean; the attacked run replays
// bit-identically under the same --fault-seed.
//
// Interrupt & resume (see src/algo/snapshot_config.hpp):
//   ./quickstart --snapshot-every 10         # durable snapshot every 10 rounds
//   ^C mid-run, then
//   ./quickstart --snapshot-every 10 --resume
// finishes the run from the newest valid snapshot with a bit-identical
// trajectory (same final model, weights, history, and comm counters).
//
// Multi-process transport (see src/algo/transport_config.hpp):
//   ./quickstart --transport socket --workers 4
// forks 4 edge-worker processes that talk to the coordinator over
// Unix-domain sockets; the run is bit-identical to the in-process one,
// and a SIGKILLed worker degrades like a crashed edge (--on-fault).
//
// Observability (see src/algo/obs_config.hpp and DESIGN.md §15):
//   ./quickstart --obs --trace-out trace.json --metrics-out metrics.json
// records round/phase/RPC spans and exports them as a Chrome trace
// (chrome://tracing or https://ui.perfetto.dev) plus a metrics snapshot;
// neither changes the trajectory — the run stays bit-identical.
// --log-level debug (or HM_LOG_LEVEL=debug) raises diagnostic verbosity.
#include <iostream>
#include <sstream>

#include "algo/fault_config.hpp"
#include "algo/hierminimax.hpp"
#include "algo/obs_config.hpp"
#include "algo/snapshot_config.hpp"
#include "algo/transport_config.hpp"
#include "io/snapshot.hpp"
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

  // 1. Data: a 10-class Gaussian classification task, split so each of 5
  //    edge areas only holds two classes' worth of data -> heterogeneous.
  data::GaussianSpec spec;
  spec.dim = 32;
  spec.num_classes = 10;
  spec.num_samples = 6000;
  spec.separation = 2.8;
  const auto all = data::make_gaussian_classes(spec);
  rng::Xoshiro256 gen(7);
  const auto tt = data::split_train_test(all, 0.2, gen);
  const auto fed = data::partition_similarity(tt, /*num_edges=*/5,
                                              /*clients_per_edge=*/3,
                                              /*similarity=*/0.2, gen);

  // 2. Topology: 5 edge servers, 3 clients each, one cloud.
  const sim::HierTopology topo(5, 3);

  // 3. Model: multinomial logistic regression over flat parameters.
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());

  // 4. Algorithm configuration (Algorithm 1 of the paper).
  algo::TrainOptions opts;
  opts.rounds = flags.get_int("rounds", 200);  // K
  opts.tau1 = 2;             // local SGD steps per client-edge aggregation
  opts.tau2 = 2;             // client-edge aggregations per round
  opts.batch_size = 4;
  opts.eta_w = 0.05;         // model learning rate
  opts.eta_p = 0.02;         // edge-weight learning rate
  opts.sampled_edges = 3;    // m_E: partial edge participation
  opts.eval_every = opts.rounds / 10;
  opts.seed = 1;

  // Optional fault injection: --dropout/--straggler/--edge-loss/... turn
  // on a deterministic FaultPlan; --on-fault picks the degradation policy.
  algo::apply_fault_flags(flags, opts);

  // Optional crash-safe snapshots: --snapshot-every/--snapshot-dir write
  // durable snapshots; --resume restarts bit-exactly from the newest one.
  algo::apply_snapshot_flags(flags, opts);

  // Optional multi-process backend: --transport socket --workers N runs
  // the edge phases in forked worker processes, bit-identical to inproc.
  algo::apply_transport_flags(flags, opts);

  // Optional observability: --obs/--trace-out/--metrics-out record spans
  // and metrics without perturbing the trajectory; --log-level (or
  // HM_LOG_LEVEL) tunes diagnostic verbosity.
  const algo::ObsOptions obs_opts = algo::apply_obs_flags(flags);
  if (opts.transport.kind != net::TransportKind::kInproc) {
    std::cout << "transport: " << net::to_string(opts.transport.kind)
              << " (workers=" << opts.transport.workers << ")\n";
  }
  if (opts.snapshot.enabled()) {
    std::cout << "snapshots: every " << opts.snapshot.every_k_rounds
              << " rounds -> " << opts.snapshot.dir << "/ (keep "
              << opts.snapshot.keep << ")\n";
  }

  // 5. Train and report.
  const auto result = algo::train_hierminimax(model, fed, topo, opts, pool);
  algo::finish_obs_run(obs_opts,
                       algo::build_run_manifest(flags, opts, topo.branching()));

  std::cout << "round\tcomm_rounds\tavg_acc\tworst_acc\n";
  for (const auto& r : result.history.records()) {
    std::cout << r.round << '\t' << r.comm.total_rounds() << '\t'
              << r.summary.average << '\t' << r.summary.worst << '\n';
  }
  std::cout << "\nlearned edge weights p (higher = harder edge):\n";
  for (std::size_t e = 0; e < result.p.size(); ++e) {
    std::cout << "  edge " << e << ": " << result.p[e] << '\n';
  }
  // Persist the trained model as a one-section snapshot container, which
  // io::Snapshot::parse reads back, and the training curve as the
  // history TSV; both are written atomically.
  constexpr std::uint32_t kTagW = 0x5f5f5f57;  // "W___", as in snapshots
  io::Snapshot model_file;
  model_file.put_f64_vec(kTagW, result.w);
  const auto model_bytes = model_file.serialize();
  io::atomic_write_file("quickstart_model.snap", model_bytes.data(),
                        model_bytes.size());
  std::ostringstream tsv;
  metrics::TrainingHistory::write_tsv_header(tsv);
  result.history.write_tsv(tsv, "HierMinimax");
  const std::string tsv_text = tsv.str();
  io::atomic_write_file(
      "quickstart_history.tsv",
      reinterpret_cast<const std::uint8_t*>(tsv_text.data()), tsv_text.size());
  std::cout << "\nwrote quickstart_model.snap and quickstart_history.tsv\n";

  const auto& final_summary = result.history.back().summary;
  std::cout << "\nfinal: avg=" << final_summary.average
            << " worst=" << final_summary.worst
            << " variance=" << final_summary.variance_pct2 << " pct^2\n";
  if (opts.fault.enabled) {
    std::cout << "faults (" << algo::to_string(opts.on_fault)
              << " policy): delivered=" << result.comm.msgs_delivered()
              << " dropped=" << result.comm.msgs_dropped()
              << " straggled=" << result.comm.msgs_straggled() << '\n';
  }
  return 0;
}
