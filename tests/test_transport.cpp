// Transport layer suite:
//   (a) frame codec: round-trip, the full corruption/truncation decode
//       table, the pinned FrameError taxonomy names, pinned frame bytes,
//       and payload lengths above kMaxFramePayload,
//   (b) frames over a real socketpair: delivery, timeout before a frame,
//       torn writes (via the FrameFaultHook seam), boundary close, and
//       crafted payload lengths refused before allocating,
//   (c) transports: loopback echo + stats, socket retry-after-slow-start,
//       timeout demotion, kill injection, orderly shutdown with no
//       leaked fds and no zombie children,
//   (d) the trainer x backend table: HierMinimax and HierFAVG, on the
//       client-edge-cloud tree and on a depth-3 tree, over loopback and
//       socket backends are bit-identical (w, p, averages, history TSV,
//       comm counters) to the in-process oracle under sampling and
//       faults, and with a worker SIGKILLed at each kill point under
//       each OnFault policy, where the dead process must degrade exactly
//       like the equivalent in-proc edge-crash fault plan; the two-layer
//       trainers refuse every backend but in-proc. The clean backends
//       are an axis of test_golden's determinism matrix.
//
// NOT labeled PARALLEL in tests/CMakeLists.txt: the socket backend forks
// workers, and TSan does not support fork from a threaded process. The
// ASan+UBSan CI leg covers this suite instead (workers _exit, so LSan
// never scans the children).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/drfa.hpp"
#include "algo/fault_config.hpp"
#include "algo/fedavg.hpp"
#include "algo/hierfavg.hpp"
#include "algo/hierminimax.hpp"
#include "algo/qffl.hpp"
#include "io/snapshot.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "nn/mlp.hpp"
#include "nn/softmax_regression.hpp"
#include "sim/topology.hpp"
#include "test_util.hpp"

namespace hm::algo {
namespace {

using testing_util::bits;
using testing_util::deep_task;
using testing_util::expect_same_output;
using testing_util::heterogeneous_task;
using testing_util::HookedModel;
using testing_util::mix_vec;
using testing_util::no_children_remain;
using testing_util::open_fd_count;
using testing_util::output_of;
using testing_util::pinned_codec_snapshot;
using testing_util::RunOutput;
using testing_util::shared_task;
using testing_util::test_pool;
using testing_util::with_taus;

std::chrono::steady_clock::time_point in_ms(int ms) {
  return net::MonoClock::now() + std::chrono::milliseconds(ms);
}

net::Frame sample_frame() {
  net::Frame f;
  f.type = net::FrameType::kReply;
  f.seq = 0x1122334455667788ull;
  f.tag = 42;
  f.payload.resize(257);
  for (std::size_t i = 0; i < f.payload.size(); ++i) {
    f.payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  return f;
}

// ---------------------------------------------------------------------
// (a) Frame codec.

TEST(FrameCodec, RoundTripPreservesEverything) {
  const net::Frame f = sample_frame();
  const auto bytes = net::encode_frame(f);
  ASSERT_EQ(bytes.size(), net::kFrameHeaderBytes + f.payload.size());

  net::Frame out;
  std::string detail;
  ASSERT_EQ(net::decode_frame(bytes.data(), bytes.size(), out, &detail),
            net::FrameError::kOk)
      << detail;
  EXPECT_EQ(out.type, f.type);
  EXPECT_EQ(out.seq, f.seq);
  EXPECT_EQ(out.tag, f.tag);
  EXPECT_EQ(out.payload, f.payload);
}

TEST(FrameCodec, EmptyPayloadRoundTrips) {
  net::Frame f;
  f.type = net::FrameType::kPing;
  f.seq = 5;
  const auto bytes = net::encode_frame(f);
  ASSERT_EQ(bytes.size(), net::kFrameHeaderBytes);
  net::Frame out;
  ASSERT_EQ(net::decode_frame(bytes.data(), bytes.size(), out),
            net::FrameError::kOk);
  EXPECT_EQ(out.type, net::FrameType::kPing);
  EXPECT_TRUE(out.payload.empty());
}

/// The taxonomy names are diagnostics the transport quotes verbatim;
/// pin them so log output stays greppable.
TEST(FrameCodec, ErrorNamesArePinned) {
  EXPECT_STREQ(net::frame_error_name(net::FrameError::kOk), "ok");
  EXPECT_STREQ(net::frame_error_name(net::FrameError::kClosed), "closed");
  EXPECT_STREQ(net::frame_error_name(net::FrameError::kTorn), "torn");
  EXPECT_STREQ(net::frame_error_name(net::FrameError::kCorrupt), "corrupt");
  EXPECT_STREQ(net::frame_error_name(net::FrameError::kTimeout), "timeout");
}

/// A valid-CRC header declaring `len` payload bytes. The header CRC is
/// no authentication: anyone can stamp one on any length.
std::vector<std::uint8_t> header_declaring(std::uint64_t len) {
  auto h = net::encode_frame(sample_frame());
  h.resize(net::kFrameHeaderBytes);
  for (int i = 0; i < 8; ++i) {
    h[32 + i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  const std::uint32_t crc = io::crc32(h.data(), 44);
  for (int i = 0; i < 4; ++i) {
    h[44 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return h;
}

const std::uint64_t kHostileLengths[] = {
    ~std::uint64_t{0},          // 48 + len wraps to 47
    std::uint64_t{1} << 40,     // a 1 TB allocation
    net::kMaxFramePayload + 1,  // just past the bound
};

/// Decode table: every damage class maps to the documented FrameError —
/// and in particular "no data" (kClosed) and "mid-frame cut" (kTorn)
/// stay distinguishable from structural corruption (kCorrupt).
TEST(FrameCodec, DamageTableMapsToTheDocumentedErrors) {
  const auto good = net::encode_frame(sample_frame());
  net::Frame out;
  std::string detail;

  // No data at all: benign close, not an error.
  EXPECT_EQ(net::decode_frame(good.data(), 0, out, &detail),
            net::FrameError::kClosed);
  EXPECT_EQ(detail, "empty buffer (closed)");

  // Cut mid-header / mid-payload: torn.
  EXPECT_EQ(net::decode_frame(good.data(), 10, out, &detail),
            net::FrameError::kTorn);
  EXPECT_EQ(detail, "short header (torn frame)");
  EXPECT_EQ(net::decode_frame(good.data(), good.size() - 3, out, &detail),
            net::FrameError::kTorn);
  EXPECT_EQ(detail, "short payload (torn frame)");

  // Structural damage: corrupt, with the cause named.
  auto bad = good;
  bad[0] ^= 0xff;  // magic
  EXPECT_EQ(net::decode_frame(bad.data(), bad.size(), out, &detail),
            net::FrameError::kCorrupt);
  EXPECT_EQ(detail, "bad magic");

  bad = good;
  bad[4] ^= 0xff;  // version
  EXPECT_EQ(net::decode_frame(bad.data(), bad.size(), out, &detail),
            net::FrameError::kCorrupt);
  EXPECT_EQ(detail, "unsupported frame version");

  bad = good;
  bad[44] ^= 0x01;  // header CRC itself
  EXPECT_EQ(net::decode_frame(bad.data(), bad.size(), out, &detail),
            net::FrameError::kCorrupt);
  EXPECT_EQ(detail, "header checksum mismatch");

  bad = good;
  bad[8] = 99;  // frame type, with the header CRC re-stamped to match
  const std::uint32_t fixed = io::crc32(bad.data(), 44);
  std::memcpy(bad.data() + 44, &fixed, sizeof(fixed));
  EXPECT_EQ(net::decode_frame(bad.data(), bad.size(), out, &detail),
            net::FrameError::kCorrupt);
  EXPECT_EQ(detail, "unknown frame type");

  bad = good;
  bad[net::kFrameHeaderBytes + 5] ^= 0x20;  // payload bit flip
  EXPECT_EQ(net::decode_frame(bad.data(), bad.size(), out, &detail),
            net::FrameError::kCorrupt);
  EXPECT_EQ(detail, "payload checksum mismatch");

  bad = good;
  bad.push_back(0);  // trailing garbage
  EXPECT_EQ(net::decode_frame(bad.data(), bad.size(), out, &detail),
            net::FrameError::kCorrupt);
  EXPECT_EQ(detail, "trailing bytes after frame");

  for (const std::uint64_t len : kHostileLengths) {
    const auto h = header_declaring(len);
    EXPECT_EQ(net::decode_frame(h.data(), h.size(), out, &detail),
              net::FrameError::kCorrupt)
        << "len=" << len;
    EXPECT_EQ(detail, "payload length exceeds kMaxFramePayload");
  }
}

/// A frame of pinned_codec_snapshot() is the bytes the bytewise codec
/// wrote: header fields, both CRCs and the payload all land in the
/// whole-frame checksum.
TEST(FrameCodec, PinnedSnapshotFrameBytes) {
  net::Frame f;
  f.type = net::FrameType::kReply;
  f.seq = 42;
  f.tag = 7;
  f.payload = pinned_codec_snapshot().serialize();
  const auto wire = net::encode_frame(f);
  ASSERT_EQ(wire.size(), 16231u);
  EXPECT_EQ(io::crc32(wire.data(), wire.size()), 0x80399623u);

  net::Frame out;
  ASSERT_EQ(net::decode_frame(wire.data(), wire.size(), out),
            net::FrameError::kOk);
  EXPECT_EQ(out.payload, f.payload);
}

// ---------------------------------------------------------------------
// (b) Frames over a real socketpair.

class Socketpair {
 public:
  Socketpair() {
    int sv[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    a_ = sv[0];
    b_ = sv[1];
  }
  ~Socketpair() {
    close_a();
    close_b();
  }
  int a() const { return a_; }
  int b() const { return b_; }
  void close_a() {
    if (a_ >= 0) ::close(a_);
    a_ = -1;
  }
  void close_b() {
    if (b_ >= 0) ::close(b_);
    b_ = -1;
  }

 private:
  int a_ = -1, b_ = -1;
};

TEST(FrameWire, SendAndRecvAcrossASocketpair) {
  Socketpair sp;
  const net::Frame f = sample_frame();
  ASSERT_EQ(net::send_frame(sp.a(), f, in_ms(2000)), net::FrameError::kOk);

  net::Frame out;
  std::string detail;
  ASSERT_EQ(net::recv_frame(sp.b(), out, in_ms(2000), &detail),
            net::FrameError::kOk)
      << detail;
  EXPECT_EQ(out.seq, f.seq);
  EXPECT_EQ(out.tag, f.tag);
  EXPECT_EQ(out.payload, f.payload);
}

TEST(FrameWire, DeadlineBeforeAnyByteIsATimeout) {
  Socketpair sp;
  net::Frame out;
  std::string detail;
  EXPECT_EQ(net::recv_frame(sp.b(), out, in_ms(50), &detail),
            net::FrameError::kTimeout);
  EXPECT_EQ(detail, "deadline expired waiting for a frame");
}

TEST(FrameWire, PeerCloseAtBoundaryIsClosedNotTorn) {
  Socketpair sp;
  sp.close_a();
  net::Frame out;
  std::string detail;
  EXPECT_EQ(net::recv_frame(sp.b(), out, in_ms(200), &detail),
            net::FrameError::kClosed);
  EXPECT_EQ(detail, "peer closed at frame boundary");
}

/// The FrameFaultHook seam models a writer dying mid-frame: the reader
/// must report kTorn (unrecoverable), never kClosed or a bogus decode.
TEST(FrameWire, TruncatedWriteThenCloseIsTorn) {
  for (const std::uint64_t cut :
       {std::uint64_t{5}, net::kFrameHeaderBytes + std::uint64_t{8}}) {
    Socketpair sp;
    const net::FrameFaultHook hook{cut};
    net::set_frame_fault_hook(&hook);
    ASSERT_EQ(net::send_frame(sp.a(), sample_frame(), in_ms(2000)),
              net::FrameError::kOk);
    net::set_frame_fault_hook(nullptr);
    sp.close_a();

    net::Frame out;
    std::string detail;
    EXPECT_EQ(net::recv_frame(sp.b(), out, in_ms(2000), &detail),
              net::FrameError::kTorn)
        << "cut=" << cut << " " << detail;
  }
}

/// A crafted header must be refused before its length sizes a buffer:
/// under ASan the wrapped 47-byte buffer would overflow on the next recv,
/// and 2^40 would try to allocate a terabyte.
TEST(FrameWire, CraftedPayloadLengthIsCorruptBeforeAllocating) {
  for (const std::uint64_t len : kHostileLengths) {
    Socketpair sp;
    auto wire = header_declaring(len);
    wire.resize(wire.size() + 64, 0xAB);  // bytes an overflow would land
    ASSERT_EQ(::send(sp.a(), wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    net::Frame out;
    std::string detail;
    EXPECT_EQ(net::recv_frame(sp.b(), out, in_ms(2000), &detail),
              net::FrameError::kCorrupt)
        << "len=" << len;
    EXPECT_EQ(detail, "payload length exceeds kMaxFramePayload");
  }
}

// ---------------------------------------------------------------------
// (c) Transport backends.

net::HandlerFactory echo_factory() {
  return [](index_t lane) {
    return [lane](std::uint64_t tag, const net::Bytes& req) {
      net::Bytes out = req;
      out.push_back(static_cast<std::uint8_t>(tag));
      out.push_back(static_cast<std::uint8_t>(lane));
      return out;
    };
  };
}

TEST(TransportKinds, NamesParseAndPrint) {
  net::TransportKind k = net::TransportKind::kSocket;
  EXPECT_TRUE(net::parse_transport_kind("inproc", k));
  EXPECT_EQ(k, net::TransportKind::kInproc);
  EXPECT_TRUE(net::parse_transport_kind("loopback", k));
  EXPECT_EQ(k, net::TransportKind::kLoopback);
  EXPECT_TRUE(net::parse_transport_kind("socket", k));
  EXPECT_EQ(k, net::TransportKind::kSocket);
  EXPECT_FALSE(net::parse_transport_kind("carrier-pigeon", k));
  EXPECT_STREQ(net::to_string(net::TransportKind::kInproc), "inproc");
  EXPECT_STREQ(net::to_string(net::TransportKind::kLoopback), "loopback");
  EXPECT_STREQ(net::to_string(net::TransportKind::kSocket), "socket");
}

TEST(LoopbackTransport, EchoesThroughTheWireCodecAndMeters) {
  auto t = net::make_loopback_transport(2, echo_factory());
  EXPECT_EQ(t->lanes(), 2);

  std::vector<std::optional<net::RpcRequest>> reqs(2);
  reqs[0] = net::RpcRequest{7, {1, 2, 3}};
  // Lane 1 idle this round.
  const auto replies = t->exchange(reqs);
  ASSERT_EQ(replies.size(), 2u);
  ASSERT_TRUE(replies[0].has_value());
  EXPECT_EQ(*replies[0], (net::Bytes{1, 2, 3, 7, 0}));
  EXPECT_FALSE(replies[1].has_value());
  EXPECT_TRUE(t->lane_up(0));
  EXPECT_TRUE(t->lane_up(1));
  // One request + one reply crossed the (simulated) wire.
  EXPECT_EQ(t->stats().frames_sent, 1u);
  EXPECT_EQ(t->stats().frames_received, 1u);
  EXPECT_GT(t->stats().bytes_sent, 0u);
  t->shutdown();
}

TEST(SocketTransport, ExchangeRoundTripsAndShutdownLeaksNothing) {
  const int fds_before = open_fd_count();
  {
    net::TransportSpec spec;
    spec.kind = net::TransportKind::kSocket;
    auto t = net::make_socket_transport(spec, 3, echo_factory());

    std::vector<std::optional<net::RpcRequest>> reqs(3);
    for (index_t l = 0; l < 3; ++l) {
      reqs[static_cast<std::size_t>(l)] =
          net::RpcRequest{static_cast<std::uint64_t>(l + 10),
                          {static_cast<std::uint8_t>(l)}};
    }
    const auto replies = t->exchange(reqs);
    for (index_t l = 0; l < 3; ++l) {
      const auto& r = replies[static_cast<std::size_t>(l)];
      ASSERT_TRUE(r.has_value()) << "lane " << l;
      EXPECT_EQ(*r, (net::Bytes{static_cast<std::uint8_t>(l),
                                static_cast<std::uint8_t>(l + 10),
                                static_cast<std::uint8_t>(l)}));
    }
    t->check_liveness();
    for (index_t l = 0; l < 3; ++l) EXPECT_TRUE(t->lane_up(l));
    EXPECT_EQ(t->stats().worker_deaths, 0u);
    t->shutdown();
    EXPECT_TRUE(no_children_remain());
  }
  EXPECT_EQ(open_fd_count(), fds_before);
}

/// A worker that is merely slow to boot must be absorbed by the retry
/// envelope: the first attempt times out, the retransmission (with its
/// backoff-extended deadline) succeeds, and the lane stays up.
TEST(SocketTransport, SlowWorkerIsAbsorbedByRetries) {
  net::TransportSpec spec;
  spec.kind = net::TransportKind::kSocket;
  spec.rpc_timeout_ms = 300;
  spec.rpc_retries = 3;
  spec.rpc_backoff_ms = 400;
  auto t = net::make_socket_transport(spec, 1, [](index_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1000));
    return [](std::uint64_t tag, const net::Bytes& req) {
      net::Bytes out = req;
      out.push_back(static_cast<std::uint8_t>(tag));
      return out;
    };
  });
  std::vector<std::optional<net::RpcRequest>> reqs(1);
  reqs[0] = net::RpcRequest{7, {9}};
  const auto replies = t->exchange(reqs);
  ASSERT_TRUE(replies[0].has_value());
  EXPECT_EQ(*replies[0], (net::Bytes{9, 7}));
  EXPECT_TRUE(t->lane_up(0));
  EXPECT_GE(t->stats().retries, 1u);
  EXPECT_EQ(t->stats().worker_deaths, 0u);
  t->shutdown();
  EXPECT_TRUE(no_children_remain());
}

/// A lane that exhausts its retry budget is demoted — and shutdown must
/// still reap the (hung) worker without hanging itself.
TEST(SocketTransport, UnresponsiveLaneTimesOutAndIsDemoted) {
  net::TransportSpec spec;
  spec.kind = net::TransportKind::kSocket;
  spec.rpc_timeout_ms = 100;
  spec.rpc_retries = 1;
  spec.rpc_backoff_ms = 50;
  auto t = net::make_socket_transport(spec, 2, [](index_t lane) {
    return [lane](std::uint64_t tag, const net::Bytes& req) {
      if (lane == 1) {  // hang forever; SIGKILL is the only way out
        std::this_thread::sleep_for(std::chrono::hours(1));
      }
      net::Bytes out = req;
      out.push_back(static_cast<std::uint8_t>(tag));
      return out;
    };
  });
  std::vector<std::optional<net::RpcRequest>> reqs(2);
  reqs[0] = net::RpcRequest{3, {1}};
  reqs[1] = net::RpcRequest{3, {2}};
  const auto replies = t->exchange(reqs);
  ASSERT_TRUE(replies[0].has_value());
  EXPECT_FALSE(replies[1].has_value());
  EXPECT_TRUE(t->lane_up(0));
  EXPECT_FALSE(t->lane_up(1));
  EXPECT_GE(t->stats().retries, 1u);
  EXPECT_GE(t->stats().timeouts, 1u);
  t->shutdown();
  EXPECT_TRUE(no_children_remain());
}

/// Kill injection at the transport level: the targeted worker dies on
/// the matching tag, the other lane is unaffected, and a liveness sweep
/// confirms the demotion.
TEST(SocketTransport, KillInjectionDemotesOnlyTheTargetLane) {
  for (const net::KillPoint point :
       {net::KillPoint::kPreHandle, net::KillPoint::kTornReply,
        net::KillPoint::kPostReply}) {
    net::TransportSpec spec;
    spec.kind = net::TransportKind::kSocket;
    spec.kill = net::KillSpec{0, 42, point};
    auto t = net::make_socket_transport(spec, 2, echo_factory());

    // Payloads well past the torn-reply truncation point, so the
    // kTornReply worker really does die mid-frame.
    std::vector<std::optional<net::RpcRequest>> reqs(2);
    reqs[0] = net::RpcRequest{42, net::Bytes(64, 1)};
    reqs[1] = net::RpcRequest{42, net::Bytes(64, 2)};
    const auto replies = t->exchange(reqs);
    ASSERT_TRUE(replies[1].has_value());
    if (point == net::KillPoint::kPostReply) {
      // The full reply made it out before the crash.
      ASSERT_TRUE(replies[0].has_value());
    } else {
      EXPECT_FALSE(replies[0].has_value())
          << "point=" << static_cast<int>(point);
    }
    t->check_liveness();
    EXPECT_FALSE(t->lane_up(0));
    EXPECT_TRUE(t->lane_up(1));
    EXPECT_GE(t->stats().worker_deaths, 1u);
    EXPECT_EQ(t->stats().unplanned_deaths, 0u);
    t->shutdown();
    EXPECT_TRUE(no_children_remain());
  }
}

TEST(SocketTransport, PostReplyKillStaysPlannedPastTheNextRequest) {
  // A post-reply kill lands after its reply: the lane's next request may
  // still reach the socket before the worker is gone. Either way the
  // death is the armed kill's.
  net::TransportSpec spec;
  spec.kind = net::TransportKind::kSocket;
  spec.kill = net::KillSpec{0, 42, net::KillPoint::kPostReply};
  auto t = net::make_socket_transport(spec, 2, echo_factory());
  std::vector<std::optional<net::RpcRequest>> reqs(2);
  reqs[0] = net::RpcRequest{42, net::Bytes(8, 1)};
  reqs[1] = net::RpcRequest{42, net::Bytes(8, 2)};
  ASSERT_TRUE(t->exchange(reqs)[0].has_value());
  reqs[0] = net::RpcRequest{43, net::Bytes(8, 1)};
  reqs[1] = net::RpcRequest{43, net::Bytes(8, 2)};
  const auto replies = t->exchange(reqs);
  t->check_liveness();
  EXPECT_FALSE(replies[0].has_value());
  EXPECT_TRUE(replies[1].has_value());
  EXPECT_FALSE(t->lane_up(0));
  EXPECT_EQ(t->stats().worker_deaths, 1u);
  EXPECT_EQ(t->stats().unplanned_deaths, 0u);
  t->shutdown();
  EXPECT_TRUE(no_children_remain());
}

TEST(SocketTransport, DeathOutsideTheKillSpecIsUnplanned) {
  // Lane 0's handler exits on its own at tag 7 (round 3, Phase 2) while
  // the armed kill waits for lane 1 at a tag that never comes: one death,
  // unplanned, logged at error level with its round, phase and lane.
  net::TransportSpec spec;
  spec.kind = net::TransportKind::kSocket;
  spec.kill = net::KillSpec{1, 99, net::KillPoint::kPreHandle};
  auto t = net::make_socket_transport(spec, 2, [](index_t lane) {
    return [lane](std::uint64_t tag, const net::Bytes& req) {
      if (lane == 0 && tag == 7) ::_exit(3);
      return req;
    };
  });
  std::vector<std::optional<net::RpcRequest>> reqs(2);
  reqs[0] = net::RpcRequest{7, net::Bytes(8, 1)};
  reqs[1] = net::RpcRequest{7, net::Bytes(8, 2)};
  testing::internal::CaptureStderr();
  const auto replies = t->exchange(reqs);
  t->check_liveness();
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(replies[0].has_value());
  ASSERT_TRUE(replies[1].has_value());
  EXPECT_FALSE(t->lane_up(0));
  EXPECT_TRUE(t->lane_up(1));
  EXPECT_EQ(t->stats().worker_deaths, 1u);
  EXPECT_EQ(t->stats().unplanned_deaths, 1u);
  EXPECT_NE(log.find("worker lane 0 died unplanned in round 3 phase 2"),
            std::string::npos)
      << log;
  t->shutdown();
  EXPECT_TRUE(no_children_remain());
}

// ---------------------------------------------------------------------
// (d) Trainer acceptance: backends vs the in-proc oracle.

TrainOptions transport_opts() {
  TrainOptions o;
  o.rounds = 4;
  o.tau1 = 2;
  o.tau2 = 2;
  o.batch_size = 4;
  o.eta_w = 0.1;
  o.eta_p = 0.02;
  o.eval_every = 2;
  o.seed = 9;
  return o;
}

/// The trainers that run over every backend. `round1_last_tag` is the
/// frame tag (2*round + phase - 1) of the last exchange of round 1:
/// HierFAVG has no Phase 2. A `deep` row trains on the depth-3 tree
/// {4, 2, 2} with taus {2, 2, 2}, 8-bit uplinks and weight decay.
struct Trainer {
  const char* name;
  TrainResult (*train)(const nn::Model&, const data::FederatedDataset&,
                       const sim::MultiTopology&, const TrainOptions&,
                       parallel::ThreadPool&);
  std::uint64_t round1_last_tag;
  bool deep;
};

const Trainer kTrainers[] = {
    {"hierminimax", train_hierminimax, 3, false},
    {"hierfavg", train_hierfavg, 2, false},
    {"hierminimax_d3", train_hierminimax, 3, true},
    {"hierfavg_d3", train_hierfavg, 2, true},
};

RunOutput run_with(const Trainer& t, TrainOptions opts) {
  if (!t.deep) {
    const auto& fed = shared_task();
    const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
    const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
    return output_of(t.train(model, fed, topo, opts, test_pool()));
  }
  opts = with_taus(opts, {2, 2, 2});
  opts.quantize_bits = 8;
  opts.weight_decay = 0.01;
  const auto& fed = deep_task();
  const sim::MultiTopology topo({4, 2, 2});
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  return output_of(t.train(model, fed, topo, opts, test_pool()));
}

/// One process, an in-proc train call first, then a socket run: the
/// forked workers inherit every pool the first call used, and must build
/// and use only their own. The 784-300-100-10 MLP with 2 sampled areas x
/// 2 leaves x 48 rows stacks 192 rows into Phase 2's first-layer forward,
/// which splits its row bands across a pool, in the coordinator and in
/// each worker.
TEST(TransportOracle, SocketAfterInprocMlpRunIsBitIdentical) {
  data::GaussianSpec spec;
  spec.dim = 784;
  spec.num_classes = 10;
  spec.num_samples = 1000;
  spec.seed = 31;
  const auto all = data::make_gaussian_classes(spec);
  rng::Xoshiro256 gen(32);
  const auto tt = data::split_train_test(all, 0.2, gen);
  const auto fed = data::partition_iid(tt, 4, 2, gen);
  const sim::HierTopology topo(4, 2);
  const nn::Mlp model = nn::make_paper_mlp(fed.dim(), fed.num_classes());
  TrainOptions o;
  o.rounds = 2;
  o.tau1 = 2;
  o.tau2 = 1;
  o.batch_size = 8;
  o.eta_w = 0.05;
  o.eta_p = 0.02;
  o.sampled_edges = 2;
  o.loss_est_batch = 48;
  o.eval_every = 1;
  o.seed = 11;
  const TrainResult inproc = train_hierminimax(model, fed, topo, o,
                                               test_pool());
  o.transport.kind = net::TransportKind::kSocket;
  o.transport.workers = 2;
  const TrainResult socket = train_hierminimax(model, fed, topo, o,
                                               test_pool());
  ASSERT_EQ(inproc.p.size(), socket.p.size());
  for (std::size_t e = 0; e < inproc.p.size(); ++e) {
    EXPECT_EQ(bits(inproc.p[e]), bits(socket.p[e])) << "p[" << e << "]";
  }
  expect_same_output(output_of(inproc), output_of(socket),
                     "mlp socket workers=2 after an in-proc run");
  EXPECT_TRUE(no_children_remain());
}

/// Backends must also agree under partial edge participation (the lane
/// grouping then changes round to round) and an active fault plan.
TEST(TransportOracle, BackendsAgreeUnderSamplingAndFaults) {
  TrainOptions base = transport_opts();
  base.sampled_edges = 3;
  base.fault.enabled = true;
  base.fault.client_dropout_prob = 0.25;
  base.fault.straggler_prob = 0.3;
  base.fault.edge_loss_prob = 0.2;
  base.on_fault = OnFault::kReuseStale;

  for (const Trainer& t : kTrainers) {
    const RunOutput oracle = run_with(t, base);
    TrainOptions lo = base;
    lo.transport.kind = net::TransportKind::kLoopback;
    expect_same_output(oracle, run_with(t, lo),
                       std::string(t.name) + " loopback+faults");
    TrainOptions so = base;
    so.transport.kind = net::TransportKind::kSocket;
    so.transport.workers = 2;
    expect_same_output(oracle, run_with(t, so),
                       std::string(t.name) + " socket+faults");
  }
  EXPECT_TRUE(no_children_remain());
}

/// Leaf buffers belong to slots, and each lane's EdgeProgram numbers its
/// slots differently: the in-proc program numbers the leaves of every
/// live sampled area, a lane only those of its own areas. Sampling,
/// churn, crashes and dropout change the job set from round to round, so
/// any state a slot carried across blocks or rounds would split the
/// backends.
/// Attackers, quantization and the median combiner read and rewrite the
/// slots after the jobs; both attack families run.
TEST(TransportOracle, LeafSlotsKeepNoStateAcrossRounds) {
  static const data::FederatedDataset fed = heterogeneous_task(4, 3);
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  TrainOptions base = transport_opts();
  base.rounds = 6;
  base.sampled_edges = 3;
  base.quantize_bits = 8;
  base.aggregate = Aggregate::kMedian;
  base.on_fault = OnFault::kReuseStale;
  base.fault.enabled = true;
  base.fault.churn_prob = 0.3;
  base.fault.churn_dwell = 2;
  base.fault.client_dropout_prob = 0.2;
  base.fault.client_crash_round = {-1, -1, -1, -1, 2};  // client 4
  base.fault.edge_crash_round = {-1, -1, 3};             // edge 2
  base.fault.attack_prob = 0.3;
  for (const sim::AttackKind attack :
       {sim::AttackKind::kLabelFlip, sim::AttackKind::kSignFlip}) {
    TrainOptions o = base;
    o.fault.attack = attack;
    const RunOutput oracle =
        output_of(train_hierminimax(model, fed, topo, o, test_pool()));
    for (const index_t workers : {index_t{1}, index_t{3}}) {
      TrainOptions lo = o;
      lo.transport.kind = net::TransportKind::kLoopback;
      lo.transport.workers = workers;
      expect_same_output(
          oracle, output_of(train_hierminimax(model, fed, topo, lo,
                                              test_pool())),
          std::string(attack == sim::AttackKind::kSignFlip ? "sign-flip"
                                                           : "label-flip") +
              " loopback workers=" + std::to_string(workers));
    }
  }
}

/// The kill matrix. Worker 1 of 2 serves edges {1, 3} (lane = edge % 2).
/// SIGKILLing it {before handling, mid-reply-frame, after the reply} is
/// observed by the coordinator at a known round, so each cell must be
/// bit-identical to the in-proc oracle whose FaultSpec crashes exactly
/// those edges at that round — under every OnFault policy, for every
/// trainer. Both sides run an enabled zero-probability plan so
/// degraded-mode metering is active in both.
TEST(TransportOracle, KillMatrixMatchesTheEdgeCrashOracle) {
  struct KillCase {
    const char* name;
    net::KillPoint point;
    bool last_of_round1;  // tag: round 1's last exchange, else phase 1
    index_t crash_round;  // oracle crash round for lane-1 edges
  };
  // pre/torn at round 1 phase 1: the round-1 request dies -> the oracle
  // crashes the edges at round 1. post after round 1's last exchange:
  // the round completes, the corpse is found at round 2's liveness sweep.
  const KillCase cases[] = {
      {"pre", net::KillPoint::kPreHandle, false, 1},
      {"torn", net::KillPoint::kTornReply, false, 1},
      {"post", net::KillPoint::kPostReply, true, 2},
  };
  const OnFault policies[] = {OnFault::kRenormalize, OnFault::kReuseStale,
                              OnFault::kSkipRound};

  TrainOptions base = transport_opts();
  base.fault.enabled = true;  // zero probabilities: only the crash differs

  for (const Trainer& t : kTrainers) {
    std::map<std::pair<index_t, int>, RunOutput> oracles;
    for (const OnFault policy : policies) {
      for (const KillCase& kc : cases) {
        const auto key =
            std::make_pair(kc.crash_round, static_cast<int>(policy));
        if (oracles.find(key) == oracles.end()) {
          TrainOptions o = base;
          o.on_fault = policy;
          o.fault.edge_crash_round = {-1, kc.crash_round, -1, kc.crash_round};
          oracles.emplace(key, run_with(t, o));
        }

        TrainOptions s = base;
        s.on_fault = policy;
        s.transport.kind = net::TransportKind::kSocket;
        s.transport.workers = 2;
        s.transport.kill = net::KillSpec{
            1, kc.last_of_round1 ? t.round1_last_tag : 2, kc.point};
        const RunOutput killed = run_with(t, s);
        const std::string label = std::string(t.name) + " kill=" + kc.name +
                                  " policy=" + to_string(policy);
        expect_same_output(oracles.at(key), killed, label);
        EXPECT_EQ(killed.unplanned_deaths, 0u) << label;
      }
    }
  }
  EXPECT_TRUE(no_children_remain());
}

TEST(TransportOracle, UnplannedWorkerDeathReachesTheTrainResult) {
  // A worker process that exits inside local SGD of area 1 (lane 1 of 2
  // serves the odd areas), with no KillSpec armed: the run degrades as
  // for any lane death and reports exactly one unplanned death.
  const auto& fed = shared_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression inner(fed.dim(), fed.num_classes());
  const pid_t coordinator = ::getpid();
  const data::Dataset* doomed = &fed.client_train[static_cast<std::size_t>(
      1 * fed.clients_per_edge)];
  const HookedModel model(inner, [=](const data::Dataset& shard) {
    if (::getpid() != coordinator && &shard == doomed) ::_exit(3);
  });
  TrainOptions o = transport_opts();
  o.sampled_edges = 0;  // every area, area 1 included, every round
  o.transport.kind = net::TransportKind::kSocket;
  o.transport.workers = 2;
  const TrainResult r = train_hierminimax(model, fed, topo, o, test_pool());
  EXPECT_EQ(r.unplanned_deaths, 1u);
  EXPECT_TRUE(no_children_remain());
}

/// A worker death needs no fault plan to degrade as DESIGN.md §9 says:
/// under kReuseStale the dead lane's areas are substituted by their last
/// delivered reports, so fault-free rounds must refresh the stale store
/// too. Lane 1 is killed before handling round 3's Phase 1; the run must
/// equal the same kill under an enabled zero-probability plan in every
/// model-visible value (only an enabled plan meters deliveries, so the
/// comm counters are not compared).
TEST(TransportOracle, PlanlessSocketKillReusesStaleReports) {
  const auto& fed = shared_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  TrainOptions o = transport_opts();
  o.rounds = 6;
  o.on_fault = OnFault::kReuseStale;
  o.transport.kind = net::TransportKind::kSocket;
  o.transport.workers = 2;
  o.transport.kill = net::KillSpec{1, /*round 3, Phase 1*/ 6,
                                   net::KillPoint::kPreHandle};
  const TrainResult planless = train_hierminimax(model, fed, topo, o,
                                                 test_pool());
  o.fault.enabled = true;
  const TrainResult planned = train_hierminimax(model, fed, topo, o,
                                                test_pool());
  const auto losses = [](const TrainResult& r) {
    std::vector<std::uint64_t> out;
    for (const auto& rec : r.history.records()) {
      out.push_back(bits(rec.global_loss));
    }
    return out;
  };
  EXPECT_EQ(mix_vec(0, planless.w), mix_vec(0, planned.w));
  EXPECT_EQ(mix_vec(0, planless.p), mix_vec(0, planned.p));
  EXPECT_EQ(mix_vec(0, planless.w_avg), mix_vec(0, planned.w_avg));
  EXPECT_EQ(mix_vec(0, planless.p_avg), mix_vec(0, planned.p_avg));
  EXPECT_EQ(losses(planless), losses(planned));
  EXPECT_TRUE(no_children_remain());
}

/// Transport is exempt from the options record because every backend is
/// bit-identical, and the stale store is kept iff on_fault is stale, so
/// a snapshot written over one backend resumes over another and the
/// result equals the straight in-proc run.
TEST(TransportOracle, SnapshotsResumeAcrossTransports) {
  for (const Trainer& t : kTrainers) {
    for (const OnFault policy :
         {OnFault::kRenormalize, OnFault::kReuseStale}) {
      TrainOptions base = transport_opts();
      base.on_fault = policy;
      const RunOutput straight = run_with(t, base);
      for (const bool socket_first : {true, false}) {
        const std::string label = std::string(t.name) + "_" +
                                  to_string(policy) +
                                  (socket_first ? "_socket_to_inproc"
                                                : "_inproc_to_socket");
        const std::string dir = "/tmp/hm_transport_test/" + label;
        std::filesystem::remove_all(dir);
        TrainOptions first = base;
        first.snapshot.every_k_rounds = 2;
        first.snapshot.dir = dir;
        first.snapshot.crash_after_round = 2;
        TrainOptions second = base;
        second.resume_from = dir;
        TrainOptions& socket = socket_first ? first : second;
        socket.transport.kind = net::TransportKind::kSocket;
        socket.transport.workers = 2;
        EXPECT_THROW(run_with(t, first), io::SimulatedCrash) << label;
        expect_same_output(straight, run_with(t, second), label);
      }
    }
  }
  EXPECT_TRUE(no_children_remain());
}

/// The two-layer trainers have no edge tier to ship and no tree: a
/// non-inproc transport or a non-empty taus is an error that names the
/// trainer, never silently ignored.
TEST(TransportSupport, TwoLayerTrainersRejectOtherBackends) {
  const auto& fed = shared_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  using Run = std::function<void(const TrainOptions&)>;
  const std::pair<const char*, Run> trainers[] = {
      {"train_fedavg",
       [&](const TrainOptions& o) { train_fedavg(model, fed, o,
                                                 test_pool()); }},
      {"train_drfa", [&](const TrainOptions& o) { train_drfa(model, fed, o,
                                                             test_pool()); }},
      {"train_stochastic_afl",
       [&](const TrainOptions& o) { train_stochastic_afl(model, fed, o,
                                                         test_pool()); }},
      {"train_qffl",
       [&](const TrainOptions& o) { train_qffl(model, fed, o, test_pool()); }},
  };
  for (const auto& [name, run] : trainers) {
    for (const net::TransportKind kind :
         {net::TransportKind::kLoopback, net::TransportKind::kSocket}) {
      TrainOptions o = transport_opts();
      o.transport.kind = kind;
      try {
        run(o);
        ADD_FAILURE() << name << " accepted transport "
                      << net::to_string(kind);
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << e.what();
      }
    }
    try {
      run(with_taus(transport_opts(), {2, 2, 2}));
      ADD_FAILURE() << name << " accepted taus";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
    TrainOptions o = transport_opts();
    o.rounds = 1;
    EXPECT_NO_THROW(run(o)) << name << " in-proc";
  }
  EXPECT_TRUE(no_children_remain());
}

}  // namespace
}  // namespace hm::algo
