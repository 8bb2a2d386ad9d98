// Pluggable transport layer (ROADMAP item 1, FedML-style separation of
// topology from communication backend): the coordinator talks to a fixed
// set of numbered *lanes*, each lane serving a disjoint subset of the
// simulated entities. The pipeline per message is serialize (caller) →
// send (frames, net/frame.hpp) → meter (TransportStats) → deliver
// (handler reply or a detected failure).
//
// Two backends:
//   * loopback — handlers run in-process, every message round-trips
//     through the real frame codec, nothing ever fails. The wire-format
//     testbed: a loopback run must bit-match the in-proc oracle.
//   * socket   — one forked worker process per lane over a Unix-domain
//     socketpair, with the full robustness envelope: per-request
//     monotonic deadlines, bounded retransmission with deterministic
//     exponential deadline-extension backoff, heartbeat/liveness
//     tracking (ping/pong + waitpid sweeps), worker-crash detection
//     (EOF / torn frames / reaped pids), and orderly shutdown that
//     leaks neither sockets nor zombies.
//
// Failure surface: a lane that dies stays dead (`lane_up` false, every
// later exchange yields nullopt for it). The algorithm layer maps dead
// lanes onto the same edge-crash fault events the simulator emits, so
// the OnFault policies handle real process deaths with no extra code.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace hm::net {

enum class TransportKind {
  kInproc,    // direct in-process calls, no serialization (the oracle)
  kLoopback,  // in-process over the wire codec (never fails)
  kSocket,    // forked worker processes over Unix-domain sockets
};

const char* to_string(TransportKind kind);
bool parse_transport_kind(const std::string& name, TransportKind& out);

/// The trainer's app-routing tag of round `round`'s phase 1 or 2:
/// 2 * round + (phase - 1). The socket transport decodes it to name the
/// round and phase a worker died in.
constexpr std::uint64_t round_tag(index_t round, int phase) {
  return 2 * static_cast<std::uint64_t>(round) +
         static_cast<std::uint64_t>(phase - 1);
}
constexpr std::uint64_t tag_round(std::uint64_t tag) { return tag / 2; }
constexpr int tag_phase(std::uint64_t tag) {
  return static_cast<int>(tag % 2) + 1;
}

/// Deterministic worker-kill injection for the fault matrix: when the
/// request with `tag` reaches worker `worker`, the worker SIGKILLs
/// itself at the chosen point. Tags are app-routing tags (round_tag),
/// so the injection is independent of retry sequence numbers.
enum class KillPoint {
  kNone = 0,
  kPreHandle,   // before computing the reply (crash pre-send)
  kTornReply,   // after sending a truncated reply frame (crash mid-frame)
  kPostReply,   // after the full reply is on the wire (crash post-send)
};

struct KillSpec {
  index_t worker = -1;
  std::uint64_t tag = 0;
  KillPoint point = KillPoint::kNone;

  bool armed() const { return point != KillPoint::kNone && worker >= 0; }
};

struct TransportSpec {
  TransportKind kind = TransportKind::kInproc;
  index_t workers = 0;          // lane count; 0 = one lane per 4 entities,
                                // clamped to [1, entities] by the caller
  index_t rpc_timeout_ms = 5000;  // per-attempt reply deadline
  index_t rpc_retries = 2;        // retransmissions after the first attempt
  index_t rpc_backoff_ms = 100;   // deadline extension of retry r (1-based):
                                  // rpc_backoff_ms << (r - 1)
  KillSpec kill;                  // fault-matrix injection (tests/CLI)
};

/// Real traffic counters, kept separate from sim::CommStats: the
/// simulator meters the *modeled* payload bytes (a bit-compared model
/// quantity), the transport meters what actually crossed the wire.
struct TransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t retries = 0;        // retransmitted requests
  std::uint64_t timeouts = 0;       // lanes declared dead by deadline
  std::uint64_t worker_deaths = 0;  // lanes declared dead by EOF/waitpid
  // Of those, deaths the armed KillSpec did not plan: any death of
  // another lane, or of its lane before the kill tag was sent to it.
  std::uint64_t unplanned_deaths = 0;
};

using Bytes = std::vector<std::uint8_t>;

struct RpcRequest {
  std::uint64_t tag = 0;
  Bytes payload;
};

/// Pure request handler: (tag, request payload) → reply payload. Must
/// not depend on call count or ordering — retransmitted requests may be
/// handled twice, and only the reply matching the live attempt is kept.
using Handler = std::function<Bytes(std::uint64_t tag, const Bytes& request)>;

/// Invoked once per lane to build its handler. For the socket backend
/// the factory runs in the forked child (so it can build process-local
/// state like thread pools); for loopback it runs in-process.
using HandlerFactory = std::function<Handler(index_t lane)>;

class Transport {
 public:
  virtual ~Transport() = default;

  virtual index_t lanes() const = 0;

  /// Liveness as of the last exchange()/check_liveness() call.
  virtual bool lane_up(index_t lane) const = 0;

  /// Scatter-gather round: one optional request per lane (nullopt =
  /// lane idle this round), one optional reply per lane back (nullopt =
  /// idle or dead). All posted requests are in flight concurrently; the
  /// call blocks until every lane replied, timed out of its retry
  /// budget, or died.
  virtual std::vector<std::optional<Bytes>> exchange(
      const std::vector<std::optional<RpcRequest>>& requests) = 0;

  /// Heartbeat sweep: reap exited workers, ping the rest, and demote
  /// lanes that fail to pong within the request deadline.
  virtual void check_liveness() = 0;

  virtual const TransportStats& stats() const = 0;

  /// Orderly teardown (idempotent; also run by the destructor): polite
  /// shutdown frames, bounded grace, then SIGKILL + reap. After it
  /// returns no child processes or lane sockets remain.
  virtual void shutdown() = 0;
};

std::unique_ptr<Transport> make_loopback_transport(
    index_t lanes, const HandlerFactory& factory);

std::unique_ptr<Transport> make_socket_transport(
    const TransportSpec& spec, index_t lanes, const HandlerFactory& factory);

}  // namespace hm::net
