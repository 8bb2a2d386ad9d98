#include "algo/edge_channel.hpp"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>

#include "algo/edge_program.hpp"
#include "core/check.hpp"
#include "io/snapshot.hpp"
#include "net/transport.hpp"
#include "tensor/vecops.hpp"

namespace hm::algo::detail {

namespace {

// ——— Wire schema ———
//
// Round state rides the transport as an io::Snapshot container (the
// PR 4 tagged-section format) inside one CRC-checked frame per
// request/reply. Section tags are little-endian FourCC constants;
// kWireKind discriminates the four message shapes.
inline constexpr std::uint32_t kWireKind = 0x444e494b;     // "KIND"
inline constexpr std::uint32_t kWireRound = 0x4b444e52;    // "RNDK"
inline constexpr std::uint32_t kWireC1 = 0x5f5f3143;       // "C1__"
inline constexpr std::uint32_t kWireC2 = 0x5f5f3243;       // "C2__"
inline constexpr std::uint32_t kWireEdges = 0x53474445;    // "EDGS"
inline constexpr std::uint32_t kWireW = 0x43455657;        // "WVEC"
inline constexpr std::uint32_t kWireEdgeW = 0x534c5745;    // "EWLS"
inline constexpr std::uint32_t kWireCkpt = 0x534c4b43;     // "CKLS"
inline constexpr std::uint32_t kWireHasCkpt = 0x564b4348;  // "HCKV"
inline constexpr std::uint32_t kWireOk = 0x43564b4f;       // "OKVC"
inline constexpr std::uint32_t kWireLoss = 0x53534f4c;     // "LOSS"

inline constexpr std::uint64_t kKindPhase1Req = 1;
inline constexpr std::uint64_t kKindPhase1Rep = 2;
inline constexpr std::uint64_t kKindPhase2Req = 3;
inline constexpr std::uint64_t kKindPhase2Rep = 4;

std::vector<std::int64_t> to_i64(const std::vector<index_t>& v) {
  return std::vector<std::int64_t>(v.begin(), v.end());
}

std::vector<index_t> to_index(const std::vector<std::int64_t>& v) {
  return std::vector<index_t>(v.begin(), v.end());
}

/// Build one lane's request handler: a process-local EdgeProgram plus
/// full-size area buffers, dispatching on the wire kind. `pool` is the
/// pool to run on; when null (a forked socket worker) the handler owns a
/// fresh pool of `threads` threads — the coordinator's pool threads do
/// not survive fork().
net::Handler make_worker_handler(const nn::Model& model,
                                 const data::FederatedDataset& fed,
                                 const Hierarchy& h,
                                 parallel::ThreadPool* pool,
                                 std::size_t threads = 0) {
  struct Worker {
    Hierarchy h;  // stable copy EdgeProgram references
    std::unique_ptr<parallel::ThreadPool> owned_pool;
    std::unique_ptr<EdgeProgram> program;
    std::vector<std::vector<scalar_t>> edge_w;
    std::vector<std::vector<scalar_t>> edge_ckpt;
    std::vector<char> edge_has_ckpt;
  };
  auto wk = std::make_shared<Worker>(Worker{h, nullptr, nullptr, {}, {}, {}});
  if (pool == nullptr) {
    wk->owned_pool = std::make_unique<parallel::ThreadPool>(threads);
    pool = wk->owned_pool.get();
  }
  wk->program = std::make_unique<EdgeProgram>(model, fed, wk->h, *pool);
  const auto num_edges = static_cast<std::size_t>(h.tree.num_areas());
  wk->edge_w.resize(num_edges);
  wk->edge_ckpt.resize(num_edges);
  wk->edge_has_ckpt.assign(num_edges, 1);
  const index_t n0 = h.tree.leaves_per_area();
  return [wk, n0](std::uint64_t, const net::Bytes& request) -> net::Bytes {
    const io::Snapshot req = io::Snapshot::parse(request.data(),
                                                 request.size());
    const std::uint64_t kind = req.get_u64(kWireKind);
    const auto k = static_cast<index_t>(req.get_u64(kWireRound));
    const std::vector<index_t> edges = to_index(req.get_i64_vec(kWireEdges));
    io::Snapshot rep;
    if (kind == kKindPhase1Req) {
      const auto c1 = static_cast<index_t>(req.get_u64(kWireC1));
      const auto c2 = static_cast<index_t>(req.get_u64(kWireC2));
      const std::vector<scalar_t> w = req.get_f64_vec(kWireW);
      wk->program->phase1(k, c1, c2, edges, w, wk->edge_w, wk->edge_ckpt,
                          wk->edge_has_ckpt);
      std::vector<std::vector<scalar_t>> ew;
      std::vector<std::vector<scalar_t>> ck;
      std::vector<std::int64_t> has;
      ew.reserve(edges.size());
      ck.reserve(edges.size());
      has.reserve(edges.size());
      for (const index_t e : edges) {
        const auto s = static_cast<std::size_t>(e);
        ew.push_back(wk->edge_w[s]);
        const bool fresh = wk->edge_has_ckpt[s] != 0;
        has.push_back(fresh ? 1 : 0);
        // An edge with no fresh checkpoint ships an empty slot — its
        // stale local buffer must not overwrite the coordinator mirror.
        ck.push_back(fresh ? wk->edge_ckpt[s] : std::vector<scalar_t>{});
      }
      rep.put_u64(kWireKind, kKindPhase1Rep);
      rep.put_f64_vec_list(kWireEdgeW, ew);
      rep.put_f64_vec_list(kWireCkpt, ck);
      rep.put_i64_vec(kWireHasCkpt, has);
    } else {
      HM_CHECK_MSG(kind == kKindPhase2Req,
                   "unknown wire message kind " << kind);
      const std::vector<scalar_t> checkpoint = req.get_f64_vec(kWireW);
      const std::vector<std::int64_t> ok_raw = req.get_i64_vec(kWireOk);
      const std::vector<char> client_ok(ok_raw.begin(), ok_raw.end());
      std::vector<scalar_t> losses(
          edges.size() * static_cast<std::size_t>(n0), 0);
      wk->program->phase2(k, edges, checkpoint, client_ok, losses);
      rep.put_u64(kWireKind, kKindPhase2Rep);
      rep.put_f64_vec(kWireLoss, losses);
    }
    return rep.serialize();
  };
}

// ——— In-process channel (the oracle) ———

class InprocEdgeChannel final : public EdgeChannel {
 public:
  InprocEdgeChannel(const nn::Model& model, const data::FederatedDataset& fed,
                    const Hierarchy& h, parallel::ThreadPool& pool)
      : program_(model, fed, h, pool) {}

  void phase1(index_t k, index_t c1, index_t c2,
              const std::vector<index_t>& edges,
              const std::vector<scalar_t>& w,
              std::vector<std::vector<scalar_t>>& edge_w,
              std::vector<std::vector<scalar_t>>& edge_ckpt,
              std::vector<char>& edge_has_ckpt,
              sim::EdgeLiveness&) override {
    program_.phase1(k, c1, c2, edges, w, edge_w, edge_ckpt, edge_has_ckpt);
  }

  void phase2(index_t k, const std::vector<index_t>& edges,
              const std::vector<scalar_t>& checkpoint,
              const std::vector<char>& client_ok,
              std::vector<scalar_t>& client_losses,
              sim::EdgeLiveness&) override {
    program_.phase2(k, edges, checkpoint, client_ok, client_losses);
  }

 private:
  EdgeProgram program_;
};

// ——— Transport-backed channel (loopback or socket workers) ———

class RpcEdgeChannel final : public EdgeChannel {
 public:
  RpcEdgeChannel(const nn::Model& model, const data::FederatedDataset& fed,
                 const Hierarchy& h, parallel::ThreadPool& pool)
      : num_edges_(h.tree.num_areas()),
        n0_(h.tree.leaves_per_area()),
        d_(model.num_params()) {
    const net::TransportSpec& spec = h.opts.transport;
    index_t lanes = spec.workers > 0
                        ? spec.workers
                        : (num_edges_ + 3) / 4;  // default: 4 edges per lane
    if (lanes < 1) lanes = 1;
    if (lanes > num_edges_) lanes = num_edges_;
    if (spec.kind == net::TransportKind::kSocket) {
      // The workers share the host's cores: each gets an equal share of
      // the hardware threads, at least one.
      const std::size_t threads = std::max<std::size_t>(
          1, std::thread::hardware_concurrency() /
                 static_cast<std::size_t>(lanes));
      transport_ = net::make_socket_transport(spec, lanes, [&](index_t) {
        // Runs inside the freshly forked child: build a worker with its
        // own thread pool (null pool argument).
        return make_worker_handler(model, fed, h, nullptr, threads);
      });
    } else {
      transport_ = net::make_loopback_transport(lanes, [&](index_t) {
        return make_worker_handler(model, fed, h, &pool);
      });
    }
  }

  void phase1(index_t k, index_t c1, index_t c2,
              const std::vector<index_t>& edges,
              const std::vector<scalar_t>& w,
              std::vector<std::vector<scalar_t>>& edge_w,
              std::vector<std::vector<scalar_t>>& edge_ckpt,
              std::vector<char>& edge_has_ckpt,
              sim::EdgeLiveness& live) override {
    // Per-round heartbeat: a worker that died since the last round
    // (e.g. right after sending its final reply) is detected here, so
    // its edges enter this round's fault handling from the start.
    transport_->check_liveness();
    // Seed the coordinator mirror: a dead lane's edges keep the
    // broadcast model, exactly like a planned edge crash freezes the
    // seeded model in the in-proc path.
    for (const index_t e : edges) {
      auto& v = edge_w[static_cast<std::size_t>(e)];
      if (v.empty()) v.assign(static_cast<std::size_t>(d_), 0);
      tensor::copy(w, v);
    }
    const std::vector<std::vector<index_t>> lane_edges = by_lane(edges);
    const index_t lanes = transport_->lanes();
    std::vector<std::optional<net::RpcRequest>> requests(
        static_cast<std::size_t>(lanes));
    for (index_t lane = 0; lane < lanes; ++lane) {
      const auto& mine = lane_edges[static_cast<std::size_t>(lane)];
      if (mine.empty()) continue;
      if (!transport_->lane_up(lane)) {
        lane_down(lane, mine, live, &edge_has_ckpt);
        continue;
      }
      io::Snapshot req;
      req.put_u64(kWireKind, kKindPhase1Req);
      req.put_u64(kWireRound, static_cast<std::uint64_t>(k));
      req.put_u64(kWireC1, static_cast<std::uint64_t>(c1));
      req.put_u64(kWireC2, static_cast<std::uint64_t>(c2));
      req.put_i64_vec(kWireEdges, to_i64(mine));
      req.put_f64_vec(kWireW, w);
      requests[static_cast<std::size_t>(lane)] =
          net::RpcRequest{net::round_tag(k, 1), req.serialize()};
    }
    const auto replies = transport_->exchange(requests);
    for (index_t lane = 0; lane < lanes; ++lane) {
      const auto s = static_cast<std::size_t>(lane);
      if (!requests[s].has_value()) continue;
      const auto& mine = lane_edges[s];
      if (!replies[s].has_value()) {
        lane_down(lane, mine, live, &edge_has_ckpt);
        continue;
      }
      const io::Snapshot rep =
          io::Snapshot::parse(replies[s]->data(), replies[s]->size());
      HM_CHECK(rep.get_u64(kWireKind) == kKindPhase1Rep);
      const auto ew = rep.get_f64_vec_list(kWireEdgeW);
      const auto ck = rep.get_f64_vec_list(kWireCkpt);
      const auto has = rep.get_i64_vec(kWireHasCkpt);
      HM_CHECK(ew.size() == mine.size() && ck.size() == mine.size() &&
               has.size() == mine.size());
      for (std::size_t j = 0; j < mine.size(); ++j) {
        const auto e = static_cast<std::size_t>(mine[j]);
        edge_w[e] = ew[j];
        edge_has_ckpt[e] = has[j] != 0 ? 1 : 0;
        if (has[j] != 0) edge_ckpt[e] = ck[j];
      }
    }
  }

  void phase2(index_t k, const std::vector<index_t>& edges,
              const std::vector<scalar_t>& checkpoint,
              const std::vector<char>& client_ok,
              std::vector<scalar_t>& client_losses,
              sim::EdgeLiveness& live) override {
    const index_t n0 = n0_;
    const index_t lanes = transport_->lanes();
    // Group the loss edges by lane, remembering each edge's position in
    // `edges` so the ok/loss slots stay aligned.
    std::vector<std::vector<index_t>> lane_edges(
        static_cast<std::size_t>(lanes));
    std::vector<std::vector<std::size_t>> lane_pos(
        static_cast<std::size_t>(lanes));
    for (std::size_t j = 0; j < edges.size(); ++j) {
      const auto lane = static_cast<std::size_t>(lane_of(edges[j]));
      lane_edges[lane].push_back(edges[j]);
      lane_pos[lane].push_back(j);
    }
    std::vector<std::optional<net::RpcRequest>> requests(
        static_cast<std::size_t>(lanes));
    for (index_t lane = 0; lane < lanes; ++lane) {
      const auto s = static_cast<std::size_t>(lane);
      if (lane_edges[s].empty()) continue;
      if (!transport_->lane_up(lane)) {
        lane_down(lane, lane_edges[s], live, nullptr);
        continue;
      }
      std::vector<std::int64_t> ok;
      ok.reserve(lane_edges[s].size() * static_cast<std::size_t>(n0));
      for (const std::size_t j : lane_pos[s]) {
        for (index_t i = 0; i < n0; ++i) {
          ok.push_back(client_ok[j * static_cast<std::size_t>(n0) +
                                 static_cast<std::size_t>(i)]);
        }
      }
      io::Snapshot req;
      req.put_u64(kWireKind, kKindPhase2Req);
      req.put_u64(kWireRound, static_cast<std::uint64_t>(k));
      req.put_i64_vec(kWireEdges, to_i64(lane_edges[s]));
      req.put_f64_vec(kWireW, checkpoint);
      req.put_i64_vec(kWireOk, ok);
      requests[s] = net::RpcRequest{net::round_tag(k, 2), req.serialize()};
    }
    const auto replies = transport_->exchange(requests);
    for (index_t lane = 0; lane < lanes; ++lane) {
      const auto s = static_cast<std::size_t>(lane);
      if (!requests[s].has_value()) continue;
      if (!replies[s].has_value()) {
        lane_down(lane, lane_edges[s], live, nullptr);
        continue;
      }
      const io::Snapshot rep =
          io::Snapshot::parse(replies[s]->data(), replies[s]->size());
      HM_CHECK(rep.get_u64(kWireKind) == kKindPhase2Rep);
      const std::vector<scalar_t> losses = rep.get_f64_vec(kWireLoss);
      HM_CHECK(losses.size() ==
               lane_edges[s].size() * static_cast<std::size_t>(n0));
      for (std::size_t q = 0; q < lane_pos[s].size(); ++q) {
        const std::size_t j = lane_pos[s][q];
        for (index_t i = 0; i < n0; ++i) {
          client_losses[j * static_cast<std::size_t>(n0) +
                        static_cast<std::size_t>(i)] =
              losses[q * static_cast<std::size_t>(n0) +
                     static_cast<std::size_t>(i)];
        }
      }
    }
  }

  std::uint64_t unplanned_deaths() const override {
    return transport_->stats().unplanned_deaths;
  }

 private:
  index_t lane_of(index_t e) const { return e % transport_->lanes(); }

  std::vector<std::vector<index_t>> by_lane(
      const std::vector<index_t>& edges) const {
    std::vector<std::vector<index_t>> out(
        static_cast<std::size_t>(transport_->lanes()));
    for (const index_t e : edges) {
      out[static_cast<std::size_t>(lane_of(e))].push_back(e);
    }
    return out;
  }

  /// A lane is gone: every edge it serves (not just this round's
  /// participants — lane death is permanent and the mapping is static)
  /// goes into the liveness ledger, and the participating edges lose
  /// their checkpoint flag like a planned crash at block c2 would.
  void lane_down(index_t lane, const std::vector<index_t>& participating,
                 sim::EdgeLiveness& live, std::vector<char>* edge_has_ckpt) {
    for (index_t e = 0; e < num_edges_; ++e) {
      if (lane_of(e) == lane) live.mark_down(e);
    }
    if (edge_has_ckpt != nullptr) {
      for (const index_t e : participating) {
        (*edge_has_ckpt)[static_cast<std::size_t>(e)] = 0;
      }
    }
  }

  index_t num_edges_;
  index_t n0_;
  index_t d_;
  std::unique_ptr<net::Transport> transport_;
};

}  // namespace

std::unique_ptr<EdgeChannel> make_edge_channel(
    const nn::Model& model, const data::FederatedDataset& fed,
    const Hierarchy& h, parallel::ThreadPool& pool) {
  if (h.opts.transport.kind == net::TransportKind::kInproc) {
    return std::make_unique<InprocEdgeChannel>(model, fed, h, pool);
  }
  return std::make_unique<RpcEdgeChannel>(model, fed, h, pool);
}

}  // namespace hm::algo::detail
