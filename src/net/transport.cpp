#include "net/transport.hpp"

#include "core/check.hpp"
#include "net/frame.hpp"
#include "obs/obs.hpp"

namespace hm::net {

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInproc: return "inproc";
    case TransportKind::kLoopback: return "loopback";
    case TransportKind::kSocket: return "socket";
  }
  return "unknown";
}

bool parse_transport_kind(const std::string& name, TransportKind& out) {
  if (name == "inproc") {
    out = TransportKind::kInproc;
  } else if (name == "loopback") {
    out = TransportKind::kLoopback;
  } else if (name == "socket") {
    out = TransportKind::kSocket;
  } else {
    return false;
  }
  return true;
}

namespace {

/// In-process backend: every message round-trips through the real frame
/// codec (encode → decode → handle → encode → decode), so the wire
/// schema and the codec get full coverage with zero failure modes.
class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(index_t lanes, const HandlerFactory& factory) {
    HM_CHECK(lanes > 0);
    handlers_.reserve(static_cast<std::size_t>(lanes));
    for (index_t lane = 0; lane < lanes; ++lane) {
      handlers_.push_back(factory(lane));
    }
  }

  index_t lanes() const override {
    return static_cast<index_t>(handlers_.size());
  }
  bool lane_up(index_t) const override { return true; }

  std::vector<std::optional<Bytes>> exchange(
      const std::vector<std::optional<RpcRequest>>& requests) override {
    HM_CHECK(static_cast<index_t>(requests.size()) == lanes());
    HM_OBS_SPAN("exchange", "net", requests.size(), 0);
    HM_OBS_INC("net.exchanges");
    std::vector<std::optional<Bytes>> replies(requests.size());
    for (std::size_t lane = 0; lane < requests.size(); ++lane) {
      if (!requests[lane].has_value()) continue;
      Frame req;
      req.type = FrameType::kRequest;
      req.seq = ++seq_;
      req.tag = requests[lane]->tag;
      req.payload = requests[lane]->payload;
      const std::vector<std::uint8_t> wire = encode_frame(req);
      stats_.frames_sent += 1;
      stats_.bytes_sent += wire.size();
      HM_OBS_INC("net.frames_sent");
      HM_OBS_ADD("net.bytes_sent", wire.size());
      Frame delivered;
      std::string detail;
      const FrameError err =
          decode_frame(wire.data(), wire.size(), delivered, &detail);
      HM_CHECK_MSG(err == FrameError::kOk,
                   "loopback frame failed to round-trip: " << detail);
      Frame rep;
      rep.type = FrameType::kReply;
      rep.seq = delivered.seq;
      rep.tag = delivered.tag;
      rep.payload = handlers_[lane](delivered.tag, delivered.payload);
      const std::vector<std::uint8_t> rep_wire = encode_frame(rep);
      Frame rep_delivered;
      const FrameError rep_err = decode_frame(rep_wire.data(),
                                              rep_wire.size(),
                                              rep_delivered, &detail);
      HM_CHECK_MSG(rep_err == FrameError::kOk,
                   "loopback reply failed to round-trip: " << detail);
      stats_.frames_received += 1;
      stats_.bytes_received += rep_wire.size();
      HM_OBS_INC("net.frames_received");
      HM_OBS_ADD("net.bytes_received", rep_wire.size());
      replies[lane] = std::move(rep_delivered.payload);
    }
    return replies;
  }

  void check_liveness() override {}
  const TransportStats& stats() const override { return stats_; }
  void shutdown() override {}

 private:
  std::vector<Handler> handlers_;
  TransportStats stats_;
  std::uint64_t seq_ = 0;
};

}  // namespace

std::unique_ptr<Transport> make_loopback_transport(
    index_t lanes, const HandlerFactory& factory) {
  return std::make_unique<LoopbackTransport>(lanes, factory);
}

}  // namespace hm::net
