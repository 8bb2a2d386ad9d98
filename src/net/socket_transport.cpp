// The multi-process backend: one forked worker per lane over a
// SOCK_STREAM Unix-domain socketpair.
//
// Child lifecycle: fork → close every inherited coordinator-side fd →
// arm PR_SET_PDEATHSIG (an orphaned worker dies with its coordinator) →
// build the handler via the factory (process-local thread pools etc.) →
// serve request frames until EOF/shutdown → _exit (never runs parent
// destructors, never flushes parent buffers).
//
// Coordinator robustness envelope, per exchange():
//   1. waitpid(WNOHANG) sweep — workers that died since the last round
//      are reaped and their lanes demoted before any send.
//   2. Scatter: all requests are written up front so workers compute
//      concurrently; a failed write demotes the lane immediately.
//   3. Gather: one poll() loop over every pending lane. EOF at a frame
//      boundary, a torn frame, or a corrupt frame demotes the lane (the
//      stream cannot be resynchronized). A deadline expiry retransmits
//      the request under a fresh sequence number with the deadline
//      extended by rpc_backoff_ms << (attempt-1) — deterministic
//      exponential backoff with no sleeping — until the retry budget is
//      spent, at which point the worker is SIGKILLed and reaped.
// Stale replies (sequence number of an abandoned attempt) are drained
// and discarded; handlers are pure, so duplicated work is harmless.
//
// Shutdown: best-effort kShutdown frame per live lane, close sockets, a
// bounded poll-based grace wait for voluntary exits, SIGKILL stragglers,
// and a final blocking reap of every child — no zombies, no leaked fds.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <exception>

#include "core/check.hpp"
#include "core/log.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "obs/obs.hpp"

namespace hm::net {

namespace {

MonoClock::time_point deadline_in_ms(index_t ms) {
  return MonoClock::now() + std::chrono::milliseconds(ms);
}

// Manual RPC-attempt spans: an attempt opens at post() and resolves in a
// later poll iteration (reply, lane death, or deadline), so RAII cannot
// scope it. Everything here is timing channel — attempts, retries, and
// their durations exist only because of real-wire behavior.
#if HM_OBS_ENABLED
std::uint64_t attempt_clock() {
  return obs::trace_enabled() ? obs::trace_now_ns() : 0;
}

void record_attempt(std::uint64_t start_ns, index_t lane,
                    std::uint64_t tag) {
  if (start_ns == 0 || !obs::trace_enabled()) return;
  obs::SpanRecord r;
  r.name = "rpc_attempt";
  r.cat = "net";
  r.a0 = static_cast<std::uint64_t>(lane);
  r.a1 = tag;
  r.channel = static_cast<std::uint8_t>(obs::Channel::kTiming);
  r.start_ns = start_ns;
  r.end_ns = obs::trace_now_ns();
  obs::trace_record(r);
}
#else
std::uint64_t attempt_clock() { return 0; }
void record_attempt(std::uint64_t, index_t, std::uint64_t) {}
#endif

/// Child-side request loop. Runs until the coordinator closes the
/// socket, sends a shutdown frame, or the stream breaks. The injected
/// kill (fault matrix) fires when the matching tag arrives.
void serve_worker(int fd, index_t lane, const Handler& handler,
                  const KillSpec& kill) {
  const auto forever = MonoClock::time_point::max();
  FrameFaultHook torn_hook;
  for (;;) {
    Frame req;
    if (recv_frame(fd, req, forever) != FrameError::kOk) return;
    if (req.type == FrameType::kShutdown) return;
    if (req.type == FrameType::kPing) {
      Frame pong;
      pong.type = FrameType::kPong;
      pong.seq = req.seq;
      pong.tag = req.tag;
      if (send_frame(fd, pong, forever) != FrameError::kOk) return;
      continue;
    }
    if (req.type != FrameType::kRequest) continue;
    const bool killed =
        kill.armed() && kill.worker == lane && kill.tag == req.tag;
    if (killed && kill.point == KillPoint::kPreHandle) {
      ::raise(SIGKILL);
    }
    Frame rep;
    rep.type = FrameType::kReply;
    rep.seq = req.seq;
    rep.tag = req.tag;
    rep.payload = handler(req.tag, req.payload);
    if (killed && kill.point == KillPoint::kTornReply) {
      // Torn-write injection: ship a prefix of the reply frame, then
      // die mid-send — the socket analog of io::WriteFaultHook.
      torn_hook.truncate_after_bytes = kFrameHeaderBytes + 8;
      set_frame_fault_hook(&torn_hook);
      send_frame(fd, rep, forever);
      ::raise(SIGKILL);
    }
    if (send_frame(fd, rep, forever) != FrameError::kOk) return;
    if (killed && kill.point == KillPoint::kPostReply) {
      ::raise(SIGKILL);
    }
  }
}

class SocketTransport final : public Transport {
 public:
  SocketTransport(const TransportSpec& spec, index_t lanes,
                  const HandlerFactory& factory)
      : spec_(spec) {
    HM_CHECK(lanes > 0);
    HM_CHECK(spec.rpc_timeout_ms > 0 && spec.rpc_retries >= 0 &&
             spec.rpc_backoff_ms >= 0);
    lanes_.resize(static_cast<std::size_t>(lanes));
    const pid_t coordinator = ::getpid();
    for (index_t lane = 0; lane < lanes; ++lane) {
      int sv[2];
      HM_CHECK_MSG(
          ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) == 0,
          "socketpair failed for worker lane " << lane);
      const pid_t pid = ::fork();
      HM_CHECK_MSG(pid >= 0, "fork failed for worker lane " << lane);
      if (pid == 0) {
        // Child: drop every coordinator-side fd inherited from earlier
        // lanes (fd hygiene — a sibling holding a duplicate would mask
        // EOF-based crash detection), keep only our own endpoint.
        ::close(sv[0]);
        for (index_t prev = 0; prev < lane; ++prev) {
          ::close(lanes_[static_cast<std::size_t>(prev)].fd);
        }
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != coordinator) ::_exit(0);  // lost the race
        int status = 0;
        try {
          const Handler handler = factory(lane);
          serve_worker(sv[1], lane, handler, spec_.kill);
        } catch (const std::exception& e) {
          // Diagnose through the leveled logger (stderr is shared with
          // the coordinator); the nonzero exit is what the coordinator
          // acts on.
          log::error() << "net: worker lane " << lane
                       << " died on unhandled exception: " << e.what();
          status = 1;
        } catch (...) {
          log::error() << "net: worker lane " << lane
                       << " died on unhandled non-standard exception";
          status = 1;
        }
        ::close(sv[1]);
        ::_exit(status);  // never unwind into the parent's state
      }
      ::close(sv[1]);
      auto& ln = lanes_[static_cast<std::size_t>(lane)];
      ln.pid = pid;
      ln.fd = sv[0];
      ln.up = true;
    }
  }

  ~SocketTransport() override { shutdown(); }

  index_t lanes() const override {
    return static_cast<index_t>(lanes_.size());
  }
  bool lane_up(index_t lane) const override {
    return lanes_[static_cast<std::size_t>(lane)].up;
  }
  const TransportStats& stats() const override { return stats_; }

  std::vector<std::optional<Bytes>> exchange(
      const std::vector<std::optional<RpcRequest>>& requests) override {
    HM_CHECK(static_cast<index_t>(requests.size()) == lanes());
    HM_OBS_SPAN_T("exchange", "net", requests.size(), 0);
    HM_OBS_INC_T("net.socket.exchanges");
    reap_exited();
    std::vector<std::optional<Bytes>> replies(requests.size());

    struct Pending {
      index_t lane = 0;
      const RpcRequest* req = nullptr;
      std::uint64_t seq = 0;
      index_t attempts = 0;  // retransmissions used so far
      MonoClock::time_point deadline;
      std::uint64_t obs_start_ns = 0;  // attempt span origin (0 = idle)
      bool done = false;
    };
    std::vector<Pending> pending;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (!requests[i].has_value()) continue;
      const auto lane = static_cast<index_t>(i);
      if (!lanes_[i].up) continue;  // dead lane: reply stays nullopt
      Pending p;
      p.lane = lane;
      p.req = &*requests[i];
      p.deadline = deadline_in_ms(spec_.rpc_timeout_ms);
      p.obs_start_ns = attempt_clock();
      if (!post(lane, *p.req, p.seq, p.deadline)) {
        record_attempt(p.obs_start_ns, lane, p.req->tag);
        continue;
      }
      pending.push_back(p);
    }

    std::size_t open = pending.size();
    while (open > 0) {
      // One poll over every still-pending lane, bounded by the nearest
      // per-lane deadline.
      auto nearest = MonoClock::time_point::max();
      std::vector<struct pollfd> pfds;
      std::vector<std::size_t> pfd_slot;
      for (std::size_t s = 0; s < pending.size(); ++s) {
        Pending& p = pending[s];
        if (p.done) continue;
        if (!lanes_[static_cast<std::size_t>(p.lane)].up) {
          p.done = true;
          --open;
          continue;
        }
        nearest = p.deadline < nearest ? p.deadline : nearest;
        struct pollfd pfd {};
        pfd.fd = lanes_[static_cast<std::size_t>(p.lane)].fd;
        pfd.events = POLLIN;
        pfds.push_back(pfd);
        pfd_slot.push_back(s);
      }
      if (pfds.empty()) break;
      const auto now = MonoClock::now();
      int wait_ms = 0;
      if (nearest > now) {
        const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            nearest - now)
                            .count();
        wait_ms = ms > 60000 ? 60000 : static_cast<int>(ms);
      }
      ::poll(pfds.data(), pfds.size(), wait_ms);
      for (std::size_t j = 0; j < pfds.size(); ++j) {
        Pending& p = pending[pfd_slot[j]];
        if (p.done) continue;
        if ((pfds[j].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          if (drain_reply(p, replies)) {
            if (p.done) {
              record_attempt(p.obs_start_ns, p.lane, p.req->tag);
              --open;
            }
            continue;
          }
        }
        if (MonoClock::now() >= p.deadline) {
          record_attempt(p.obs_start_ns, p.lane, p.req->tag);
          if (p.attempts < spec_.rpc_retries) {
            // Retransmit under a fresh seq; the deadline grows by the
            // deterministic exponential backoff term.
            p.attempts += 1;
            stats_.retries += 1;
            HM_OBS_INC_T("net.socket.retries");
            p.deadline = deadline_in_ms(
                spec_.rpc_timeout_ms +
                (spec_.rpc_backoff_ms << (p.attempts - 1)));
            p.obs_start_ns = attempt_clock();
            if (!post(p.lane, *p.req, p.seq, p.deadline)) {
              record_attempt(p.obs_start_ns, p.lane, p.req->tag);
              p.done = true;
              --open;
            }
          } else {
            log::warn() << "net: worker lane " << p.lane
                        << " exhausted its retry budget (tag " << p.req->tag
                        << "); killing the hung worker";
            stats_.timeouts += 1;
            HM_OBS_INC_T("net.socket.timeouts");
            demote(p.lane);
            p.done = true;
            --open;
          }
        }
      }
    }
    return replies;
  }

  void check_liveness() override {
    reap_exited();
    for (index_t lane = 0; lane < lanes(); ++lane) {
      auto& ln = lanes_[static_cast<std::size_t>(lane)];
      if (!ln.up) continue;
      Frame ping;
      ping.type = FrameType::kPing;
      ping.seq = ++seq_counter_;
      HM_OBS_INC_T("net.socket.heartbeats");
      const auto deadline = deadline_in_ms(spec_.rpc_timeout_ms);
      if (send_frame(ln.fd, ping, deadline) != FrameError::kOk) {
        demote(lane);
        continue;
      }
      stats_.frames_sent += 1;
      bool ponged = false;
      while (!ponged) {
        Frame f;
        std::string detail;
        const FrameError err = recv_frame(ln.fd, f, deadline, &detail);
        if (err != FrameError::kOk) {
          log::warn() << "net: worker lane " << lane
                      << " failed its heartbeat (" << frame_error_name(err)
                      << ": " << detail << ")";
          demote(lane);
          break;
        }
        stats_.frames_received += 1;
        // Stale replies from abandoned attempts may still be queued
        // ahead of the pong; drain them.
        ponged = f.type == FrameType::kPong && f.seq == ping.seq;
      }
    }
  }

  void shutdown() override {
    if (shut_) return;
    shut_ = true;
    // Polite phase: shutdown frames + closed sockets let workers exit
    // on their own.
    for (auto& ln : lanes_) {
      if (ln.pid == -1) continue;
      if (ln.up) {
        Frame bye;
        bye.type = FrameType::kShutdown;
        bye.seq = ++seq_counter_;
        send_frame(ln.fd, bye, deadline_in_ms(100));
      }
      if (ln.fd != -1) {
        ::close(ln.fd);
        ln.fd = -1;
      }
    }
    // Bounded grace, then force. poll(nullptr) is the sleep primitive
    // (no wall clock, no extra fds).
    const auto grace = deadline_in_ms(1000);
    for (;;) {
      bool alive = false;
      for (auto& ln : lanes_) {
        if (ln.pid == -1) continue;
        if (::waitpid(ln.pid, nullptr, WNOHANG) > 0) {
          ln.pid = -1;
          ln.up = false;
        } else {
          alive = true;
        }
      }
      if (!alive || MonoClock::now() >= grace) break;
      ::poll(nullptr, 0, 10);
    }
    for (auto& ln : lanes_) {
      if (ln.pid == -1) continue;
      ::kill(ln.pid, SIGKILL);
      ::waitpid(ln.pid, nullptr, 0);
      ln.pid = -1;
      ln.up = false;
    }
  }

 private:
  struct Lane {
    pid_t pid = -1;
    int fd = -1;
    bool up = false;
    bool sent = false;          // a request reached the lane's socket
    std::uint64_t last_tag = 0;  // the last such request's tag
    bool kill_sent = false;     // the armed kill's request reached it
  };

  /// Reap every worker that exited since the last sweep and demote its
  /// lane. The waitpid sweep doubles as the SIGCHLD path: no signal
  /// handler is installed (the host process owns its signal
  /// disposition), polling at every exchange/heartbeat is enough.
  void reap_exited() {
    for (index_t lane = 0; lane < lanes(); ++lane) {
      auto& ln = lanes_[static_cast<std::size_t>(lane)];
      if (!ln.up || ln.pid == -1) continue;
      if (::waitpid(ln.pid, nullptr, WNOHANG) > 0) {
        log::warn() << "net: worker lane " << lane << " (pid " << ln.pid
                    << ") exited; marking the lane down";
        ln.pid = -1;
        close_lane(lane);
      }
    }
  }

  /// Kill + reap + close one lane. Safe to call on an already-dead lane.
  void demote(index_t lane) {
    auto& ln = lanes_[static_cast<std::size_t>(lane)];
    if (ln.pid != -1) {
      ::kill(ln.pid, SIGKILL);
      ::waitpid(ln.pid, nullptr, 0);
      ln.pid = -1;
    }
    close_lane(lane);
  }

  void close_lane(index_t lane) {
    auto& ln = lanes_[static_cast<std::size_t>(lane)];
    if (ln.fd != -1) {
      ::close(ln.fd);
      ln.fd = -1;
    }
    if (!ln.up) return;
    ln.up = false;
    stats_.worker_deaths += 1;
    HM_OBS_INC_T("net.socket.worker_deaths");
    // Planned: the armed kill's lane, once the kill tag was sent to it. A
    // post-reply kill may land after the lane's next request went out.
    if (ln.kill_sent) return;
    stats_.unplanned_deaths += 1;
    HM_OBS_INC_T("net.socket.unplanned_deaths");
    auto line = log::error();
    line << "net: worker lane " << lane << " died unplanned";
    if (ln.sent) {
      line << " in round " << tag_round(ln.last_tag) << " phase "
           << tag_phase(ln.last_tag) << " (tag " << ln.last_tag << ")";
    } else {
      line << " before its first request";
    }
  }

  /// Send one request attempt. Returns false (lane demoted) on failure.
  bool post(index_t lane, const RpcRequest& req, std::uint64_t& seq,
            MonoClock::time_point deadline) {
    auto& ln = lanes_[static_cast<std::size_t>(lane)];
    Frame f;
    f.type = FrameType::kRequest;
    f.seq = seq = ++seq_counter_;
    f.tag = req.tag;
    f.payload = req.payload;
    HM_OBS_INC_T("net.socket.rpc_attempts");
    const FrameError err = send_frame(ln.fd, f, deadline);
    if (err != FrameError::kOk) {
      log::warn() << "net: request to worker lane " << lane << " failed ("
                  << frame_error_name(err) << "); marking the lane down";
      demote(lane);
      return false;
    }
    ln.last_tag = req.tag;
    ln.sent = true;
    const KillSpec& kill = spec_.kill;
    if (kill.armed() && kill.worker == lane && kill.tag == req.tag) {
      ln.kill_sent = true;
    }
    stats_.frames_sent += 1;
    stats_.bytes_sent += kFrameHeaderBytes + f.payload.size();
    HM_OBS_INC_T("net.socket.frames_sent");
    HM_OBS_ADD_T("net.socket.bytes_sent",
                 kFrameHeaderBytes + f.payload.size());
    return true;
  }

  /// Read one available frame from a pending lane. `out` receives the
  /// reply when it matches `want_seq`; `dead` is set when the stream
  /// failed and the lane was demoted. Returns true when the frame
  /// resolved the attempt (reply or death), false for discarded stale
  /// traffic.
  bool drain_reply_impl(index_t lane, std::uint64_t want_seq,
                        std::optional<Bytes>& out, bool& dead) {
    auto& ln = lanes_[static_cast<std::size_t>(lane)];
    Frame f;
    std::string detail;
    const FrameError err =
        recv_frame(ln.fd, f, deadline_in_ms(spec_.rpc_timeout_ms), &detail);
    if (err != FrameError::kOk) {
      log::warn() << "net: worker lane " << lane << " stream failed ("
                  << frame_error_name(err) << ": " << detail
                  << "); marking the lane down";
      demote(lane);
      dead = true;
      return true;
    }
    stats_.frames_received += 1;
    stats_.bytes_received += kFrameHeaderBytes + f.payload.size();
    HM_OBS_INC_T("net.socket.frames_received");
    HM_OBS_ADD_T("net.socket.bytes_received",
                 kFrameHeaderBytes + f.payload.size());
    if (f.type == FrameType::kReply && f.seq == want_seq) {
      out = std::move(f.payload);
      return true;
    }
    HM_OBS_INC_T("net.socket.stale_frames");
    return false;  // stale reply or pong: discarded
  }

  /// Per-lane wrapper over drain_reply_impl for exchange()'s local
  /// Pending records (templated because Pending is exchange-local).
  template <typename P>
  bool drain_reply(P& p, std::vector<std::optional<Bytes>>& replies) {
    bool dead = false;
    std::optional<Bytes> out;
    const bool resolved = drain_reply_impl(p.lane, p.seq, out, dead);
    if (dead) {
      p.done = true;
      return true;
    }
    if (resolved && out.has_value()) {
      replies[static_cast<std::size_t>(p.lane)] = std::move(out);
      p.done = true;
      return true;
    }
    return resolved;
  }

  TransportSpec spec_;
  std::vector<Lane> lanes_;
  TransportStats stats_;
  std::uint64_t seq_counter_ = 0;
  bool shut_ = false;
};

}  // namespace

std::unique_ptr<Transport> make_socket_transport(
    const TransportSpec& spec, index_t lanes, const HandlerFactory& factory) {
  return std::make_unique<SocketTransport>(spec, lanes, factory);
}

}  // namespace hm::net
