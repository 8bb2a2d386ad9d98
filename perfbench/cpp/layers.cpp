#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "algo/local_sgd.hpp"
#include "algo/trainer_common.hpp"
#include "core/check.hpp"
#include "core/stopwatch.hpp"
#include "io/snapshot.hpp"
#include "metrics/evaluation.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "parallel/parallel_for.hpp"
#include "sim/cluster.hpp"
#include "tensor/gemm.hpp"
#include "workloads.hpp"

namespace hm::perfbench {

Stat summarize(std::vector<double> v) {
  Stat s;
  s.samples = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto at = [&](double pos) {  // 1-based fractional position
    const double clamped =
        std::clamp(pos, 1.0, static_cast<double>(v.size()));
    const auto lo = static_cast<std::size_t>(std::floor(clamped)) - 1;
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = clamped - std::floor(clamped);
    return v[lo] + frac * (v[hi] - v[lo]);
  };
  const double n1 = static_cast<double>(v.size()) + 1;
  s.value = at(n1 * 0.5);
  s.q1 = at(n1 * 0.25);
  s.q3 = at(n1 * 0.75);
  return s;
}

Stat exact(double v) { return Stat{v, v, v, 1}; }

std::vector<double> time_reps(const std::function<void()>& fn,
                              double budget_s, std::size_t min_reps,
                              std::size_t max_reps) {
  std::vector<double> out;
  Stopwatch total;
  while (out.size() < max_reps &&
         (out.size() < min_reps || total.seconds() < budget_s)) {
    Stopwatch sw;
    fn();
    out.push_back(sw.seconds());
  }
  return out;
}

namespace {

// Keeps checksum results observable so the loops are not optimised away.
volatile std::uint32_t g_sink = 0;

using tensor::ConstMatView;
using tensor::MatView;

std::vector<scalar_t> filled(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  std::vector<scalar_t> v(n);
  for (auto& x : v) x = gen.uniform() - 0.5;
  return v;
}

Stat scaled(const std::vector<double>& secs, double numerator) {
  std::vector<double> rates;
  rates.reserve(secs.size());
  for (const double s : secs) rates.push_back(numerator / s);
  return summarize(std::move(rates));
}

/// Per-call times in another unit: `scale` = 1e3 for ms, 1e6 for us.
Stat times(const std::vector<double>& secs, double scale) {
  std::vector<double> v;
  v.reserve(secs.size());
  for (const double s : secs) v.push_back(s * scale);
  return summarize(std::move(v));
}

/// The Phase-1-sized reply of the hostile workload: ten 7,850-double rows
/// (the fig3 softmax model) in one snapshot container.
io::Snapshot phase1_reply(std::uint64_t seed) {
  std::vector<std::vector<scalar_t>> rows;
  for (int i = 0; i < 10; ++i) rows.push_back(filled(7850, seed + i));
  io::Snapshot s;
  s.put_f64_vec_list(1, rows);
  return s;
}

}  // namespace

void measure_layers(std::uint64_t seed, double budget_s,
                    const std::string& scratch_dir,
                    parallel::ThreadPool& pool,
                    std::map<std::string, Stat>& out) {
  const double slot = budget_s / 20;  // about twenty timed groups below
  const Inputs fig4 = make_inputs("fig4_mlp", seed);
  const Inputs fig3 = make_inputs("fig3_sweep", seed);

  // --- tensor
  {
    const index_t n = 512;
    const auto a = filled(static_cast<std::size_t>(n * n), seed);
    const auto b = filled(static_cast<std::size_t>(n * n), seed + 1);
    std::vector<scalar_t> c(static_cast<std::size_t>(n * n));
    const auto secs = time_reps(
        [&] {
          tensor::gemm(ConstMatView(a.data(), n, n),
                       ConstMatView(b.data(), n, n), MatView(c.data(), n, n));
        },
        slot, 3);
    out["tensor.peak_gflops"] = scaled(secs, 2.0 * n * n * n * 1e-9);
  }
  {
    const index_t bsz = 8, in = kDim, hid = 300;
    const auto x = filled(static_cast<std::size_t>(bsz * in), seed);
    const auto w1 = filled(static_cast<std::size_t>(in * hid), seed + 1);
    const auto dz = filled(static_cast<std::size_t>(bsz * hid), seed + 2);
    std::vector<scalar_t> z(static_cast<std::size_t>(bsz * hid));
    std::vector<scalar_t> dw(static_cast<std::size_t>(in * hid));
    const auto secs = time_reps(
        [&] {
          tensor::gemm(ConstMatView(x.data(), bsz, in),
                       ConstMatView(w1.data(), in, hid),
                       MatView(z.data(), bsz, hid));
          tensor::gemm_tn(ConstMatView(x.data(), bsz, in),
                          ConstMatView(dz.data(), bsz, hid),
                          MatView(dw.data(), in, hid));
        },
        slot, 20);
    out["tensor.gemm.fig4_gflops"] =
        scaled(secs, 2.0 * 2.0 * bsz * in * hid * 1e-9);
    out["tensor.gemm.fig4_peak_frac"] =
        exact(out["tensor.gemm.fig4_gflops"].value /
              out["tensor.peak_gflops"].value);
  }
  {
    const index_t rows = fig3.fed.edge_test[0].size(), classes = 10;
    const auto x = filled(static_cast<std::size_t>(rows * kDim), seed);
    const auto w = filled(static_cast<std::size_t>(classes * kDim), seed + 1);
    std::vector<scalar_t> c(static_cast<std::size_t>(rows * classes));
    const auto secs = time_reps(
        [&] {
          tensor::gemm_nt_fma(ConstMatView(x.data(), rows, kDim),
                              ConstMatView(w.data(), classes, kDim),
                              MatView(c.data(), rows, classes));
        },
        slot, 20);
    out["tensor.gemm_nt_fma.eval_gflops"] =
        scaled(secs, 2.0 * rows * kDim * classes * 1e-9);
  }

  // --- nn
  const auto step_us = [&](const Inputs& in, index_t batch) {
    const nn::Model& model = *in.model;
    std::vector<scalar_t> w(static_cast<std::size_t>(model.num_params()));
    rng::Xoshiro256 gen(seed);
    model.init_params(w, gen);
    std::vector<scalar_t> grad(w.size());
    const auto ws = model.make_workspace();
    std::vector<index_t> idx(static_cast<std::size_t>(batch));
    for (index_t i = 0; i < batch; ++i) idx[static_cast<std::size_t>(i)] = i;
    const auto secs = time_reps(
        [&] {
          model.loss_and_grad(w, in.fed.client_train[0], idx, grad, *ws);
        },
        slot, 20);
    return times(secs, 1e6);
  };
  out["nn.mlp.step_us"] = step_us(fig4, 8);
  out["nn.softmax.step_us"] = step_us(fig3, 4);

  std::vector<scalar_t> w3(static_cast<std::size_t>(fig3.model->num_params()));
  {
    rng::Xoshiro256 gen(seed);
    fig3.model->init_params(w3, gen);
  }
  {
    std::vector<std::vector<index_t>> idx;
    std::vector<nn::LossJob> jobs;
    double rows = 0;
    for (const auto& test : fig3.fed.edge_test) {
      idx.push_back(nn::all_indices(test.size()));
      rows += static_cast<double>(test.size());
    }
    for (std::size_t e = 0; e < idx.size(); ++e) {
      jobs.push_back({w3, &fig3.fed.edge_test[e], idx[e]});
    }
    std::vector<scalar_t> losses(jobs.size());
    const auto ws = fig3.model->make_workspace();
    const auto secs = time_reps(
        [&] { fig3.model->loss_many(jobs, losses, *ws); }, slot, 10);
    out["nn.loss_many.rows_per_s"] = scaled(secs, rows);
  }

  // --- algo local SGD block and sim device scheduling (fig4 cohort:
  // 2 edges x 3 clients, tau1 = 2, batch 8)
  {
    const nn::Model& model = *fig4.model;
    const auto d = static_cast<std::size_t>(model.num_params());
    std::vector<scalar_t> w0(d);
    rng::Xoshiro256 init(seed);
    model.init_params(w0, init);
    const index_t jobs_n = 2 * kClientsPerEdge;
    std::vector<std::vector<scalar_t>> ws(static_cast<std::size_t>(jobs_n), w0);
    std::vector<rng::Xoshiro256> gens;
    for (index_t j = 0; j < jobs_n; ++j) gens.emplace_back(seed + 100 + j);
    std::vector<algo::ClientScratch> scratch(static_cast<std::size_t>(jobs_n));
    algo::BatchEngineState batch_state;
    algo::LocalSgdConfig cfg;
    cfg.steps = 2;
    cfg.batch_size = 8;
    cfg.eta = 0.03;
    const sim::ClusterSim cluster(pool);
    std::vector<algo::LocalSgdJob> jobs;
    for (index_t j = 0; j < jobs_n; ++j) {
      jobs.push_back({&fig4.fed.client_train[static_cast<std::size_t>(j)],
                      ws[static_cast<std::size_t>(j)], {},
                      &gens[static_cast<std::size_t>(j)], j});
    }
    const auto secs = time_reps(
        [&] {
          algo::run_local_sgd_jobs(model, cfg, jobs, scratch, batch_state,
                                   /*batched=*/false, cluster);
        },
        slot, 10);
    out["algo.local_sgd.block_ms"] = times(secs, 1e3);

    std::vector<double> busy_fracs;
    std::vector<double> job_s(static_cast<std::size_t>(jobs_n));
    const double threads = static_cast<double>(pool.num_threads());
    time_reps(
        [&] {
          Stopwatch wall;
          cluster.run_devices(jobs_n, [&](index_t j) {
            const auto ju = static_cast<std::size_t>(j);
            Stopwatch sw;
            algo::run_local_sgd(model, fig4.fed.client_train[ju], cfg,
                                ws[ju], {}, gens[ju], scratch[ju]);
            job_s[ju] = sw.seconds();
          });
          double busy = 0;
          for (const double t : job_s) busy += t;
          busy_fracs.push_back(busy / (threads * wall.seconds()));
        },
        slot, 10);
    out["sim.run_devices.busy_frac"] = summarize(std::move(busy_fracs));

    // Edge-cloud mean of the 2 fig4 edge models.
    algo::detail::Participants parts;
    parts.ids = {0, 1};
    parts.multiplicity = {1, 1};
    parts.total = 2;
    std::vector<scalar_t> avg(d);
    const auto wa = time_reps(
        [&] { algo::detail::weighted_average(ws, parts, avg); }, slot, 20);
    out["algo.weighted_average_ms"] = times(wa, 1e3);
  }

  // --- algo: each paper method's train call on the fig3 configuration,
  // timed separately
  {
    const index_t rounds = rounds_per_call("fig3_sweep");
    const algo::TrainOptions opts = fig3_options(seed, rounds);
    std::map<Method, std::vector<double>> per_round_ms;
    Stopwatch sw;
    while (per_round_ms.empty() ||
           (per_round_ms.begin()->second.size() < 10 &&
            sw.seconds() < 2 * slot)) {
      for (const Method m : kAllMethods) {
        const MethodRun run = run_method(m, fig3, opts, pool);
        per_round_ms[m].push_back(run.seconds * 1e3 /
                                  static_cast<double>(rounds));
      }
    }
    for (auto& [m, v] : per_round_ms) {
      out[std::string("algo.") + method_name(m) + ".round_ms"] =
          summarize(std::move(v));
    }
  }

  // --- parallel: an empty 64-chunk region
  {
    const int per = 200;
    const auto secs = time_reps(
        [&] {
          for (int r = 0; r < per; ++r) {
            parallel::parallel_for(pool, 0, 64, [](index_t) {}, 1);
          }
        },
        slot, 5);
    out["parallel.region_us"] = times(secs, 1e6 / per);
  }

  // --- algo: robust median over the hostile report set (m_E = 5 reports)
  {
    std::vector<std::vector<scalar_t>> reports;
    for (int i = 0; i < 5; ++i) reports.push_back(filled(7850, seed + 10 + i));
    std::vector<const std::vector<scalar_t>*> srcs;
    for (const auto& r : reports) srcs.push_back(&r);
    const std::vector<index_t> mults(5, 1);
    std::vector<scalar_t> outv(7850);
    const algo::detail::AggregateSpec agg{algo::Aggregate::kMedian, 0.2};
    const auto secs = time_reps(
        [&] { algo::detail::robust_combine(srcs, mults, 5, agg, outv); },
        slot, 20);
    out["algo.robust_combine_ms"] = times(secs, 1e3);
  }

  // --- metrics: per-edge sweeps of the fig3 model
  {
    const auto acc = time_reps(
        [&] {
          (void)metrics::per_edge_accuracy(*fig3.model, w3, fig3.fed, pool);
        },
        slot, 10);
    const auto loss = time_reps(
        [&] { (void)metrics::per_edge_loss(*fig3.model, w3, fig3.fed, pool); },
        slot, 10);
    out["metrics.per_edge_accuracy_ms"] = times(acc, 1e3);
    out["metrics.per_edge_loss_ms"] = times(loss, 1e3);
  }

  // --- io: checksum and snapshot codec of the Phase-1 reply
  const io::Snapshot reply = phase1_reply(seed);
  const std::vector<std::uint8_t> bytes = reply.serialize();
  const double mb = static_cast<double>(bytes.size()) * 1e-6;
  {
    std::uint32_t sink = 0;
    const auto crc = time_reps(
        [&] { sink ^= io::crc32(bytes.data(), bytes.size()); }, slot, 10);
    const auto ser = time_reps([&] { (void)reply.serialize(); }, slot, 10);
    const auto par = time_reps(
        [&] { (void)io::Snapshot::parse(bytes.data(), bytes.size()); }, slot,
        10);
    out["io.crc32.mbps"] = scaled(crc, mb);
    out["io.snapshot.serialize_mbps"] = scaled(ser, mb);
    out["io.snapshot.parse_mbps"] = scaled(par, mb);
    g_sink = sink;
  }
  {
    // A fig4-sized snapshot: w, w_avg, and the mirrors of 2 edges, plus
    // headers (about 4.3 MB).
    const auto d = static_cast<std::size_t>(fig4.model->num_params());
    io::Snapshot snap;
    for (std::uint32_t t = 0; t < 2; ++t) snap.put_f64_vec(t, filled(d, seed + t));
    const auto file = snap.serialize();
    const std::string path = scratch_dir + "/layer_snapshot.bin";
    const auto secs = time_reps(
        [&] { io::atomic_write_file(path, file.data(), file.size()); }, slot,
        5, 200);
    out["io.snapshot.write_ms"] = times(secs, 1e3);
  }

  // --- net: frame codec and one socket exchange at the Phase-1 size
  {
    net::Frame frame;
    frame.type = net::FrameType::kReply;
    frame.seq = 1;
    frame.tag = 2;
    frame.payload = bytes;
    const auto wire = net::encode_frame(frame);
    const auto enc = time_reps([&] { (void)net::encode_frame(frame); }, slot, 10);
    net::Frame decoded;
    const auto dec = time_reps(
        [&] {
          HM_CHECK(net::decode_frame(wire.data(), wire.size(), decoded) ==
                   net::FrameError::kOk);
        },
        slot, 10);
    out["net.frame.encode_mbps"] = scaled(enc, mb);
    out["net.frame.decode_mbps"] = scaled(dec, mb);
  }
  {
    net::TransportSpec spec;
    spec.kind = net::TransportKind::kSocket;
    spec.workers = 2;
    auto transport = net::make_socket_transport(spec, 2, [](index_t) {
      return net::Handler(
          [](std::uint64_t, const net::Bytes& req) { return req; });
    });
    std::vector<std::optional<net::RpcRequest>> reqs(
        2, net::RpcRequest{4, bytes});
    const auto secs = time_reps(
        [&] {
          const auto replies = transport->exchange(reqs);
          for (const auto& r : replies) {
            HM_CHECK_MSG(r.has_value() && r->size() == bytes.size(),
                         "socket echo exchange lost a reply");
          }
        },
        slot, 10);
    transport->shutdown();
    out["net.socket.exchange_ms"] = times(secs, 1e3);
  }
}

}  // namespace hm::perfbench
