// Wire framing for the transport layer: length-prefixed, CRC-checked,
// versioned frames carrying opaque payloads (io::Snapshot containers in
// the trainer protocol, but the codec is payload-agnostic).
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       4     magic "HMFR"
//   4       4     u32 format version (currently 1)
//   8       4     u32 frame type (FrameType wire values)
//   12      4     u32 reserved (0)
//   16      8     u64 seq      — per-attempt sequence number; replies echo
//                               the request's seq so stale retransmission
//                               replies can be discarded
//   24      8     u64 tag      — application routing tag (the trainer uses
//                               2*round + phase); kill injection matches on
//                               it because seq drifts under retries
//   32      8     u64 payload length
//   40      4     u32 CRC32 (IEEE) of the payload
//   44      4     u32 CRC32 (IEEE) of header bytes [0, 44)
//   48      ...   payload
//
// Error taxonomy (FrameError) — the transport's failure semantics hang on
// these distinctions:
//   kClosed  — clean EOF at a frame boundary: the peer exited or closed
//              the socket between frames (benign shutdown or a crash
//              detected at a quiescent point).
//   kTorn    — EOF or deadline mid-frame: the peer died while writing (a
//              torn frame desynchronizes the stream, so the connection is
//              unrecoverable — never retried).
//   kCorrupt — structural damage with the stream intact: bad magic,
//              unsupported version, checksum mismatch, a payload length
//              above kMaxFramePayload (hard error).
//   kTimeout — the deadline expired before the first byte of a frame
//              arrived; the stream is still aligned, so the caller may
//              retransmit and keep waiting.
//
// Deadlines are std::chrono::steady_clock time points (monotonic; the
// determinism lint bans wall clocks, and a suspended host must not fire
// spurious timeouts).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace hm::net {

inline constexpr std::uint32_t kFrameMagic = 0x52464d48;  // "HMFR" LE
inline constexpr std::uint32_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 48;

/// Largest payload a frame may declare (1 GiB). The header CRC is no
/// authentication, so recv_frame checks the declared length against this
/// bound before allocating; encode_frame refuses larger payloads. The
/// largest trainer payload, a Phase-1 reply of per-client models at
/// paper scale, is tens of MB.
inline constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 30;

enum class FrameType : std::uint32_t {
  kRequest = 1,
  kReply = 2,
  kPing = 3,
  kPong = 4,
  kShutdown = 5,
};

enum class FrameError {
  kOk = 0,
  kClosed,   // clean EOF at a frame boundary ("no data" — benign)
  kTorn,     // EOF / deadline mid-frame (peer died writing — hard)
  kCorrupt,  // bad magic / version / checksum (hard)
  kTimeout,  // deadline expired before a frame started (retryable)
};

/// Stable diagnostic name ("ok", "closed", "torn", "corrupt", "timeout").
const char* frame_error_name(FrameError err);

struct Frame {
  FrameType type = FrameType::kRequest;
  std::uint64_t seq = 0;
  std::uint64_t tag = 0;
  std::vector<std::uint8_t> payload;
};

/// Test seam for torn-write injection — the socket analog of
/// io::WriteFaultHook. While installed, send_frame transmits only the
/// first `truncate_after_bytes` bytes of the encoded frame and reports
/// success; the caller then models the crash (the kill matrix raises
/// SIGKILL right after). Not thread-safe: install/clear around
/// single-threaded test code only. The hook object must outlive its
/// installation.
struct FrameFaultHook {
  std::uint64_t truncate_after_bytes = 0;
};

/// Install (or with nullptr clear) the process-global frame fault hook.
void set_frame_fault_hook(const FrameFaultHook* hook);

using MonoClock = std::chrono::steady_clock;

/// Encode to the wire layout (header + payload). Throws CheckError when
/// the payload exceeds kMaxFramePayload.
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Strict decode of one complete frame occupying exactly [data, data+n).
/// On error, `detail` (when non-null) receives a one-line diagnostic
/// naming what failed.
FrameError decode_frame(const std::uint8_t* data, std::size_t n,
                        Frame& out, std::string* detail = nullptr);

/// Write one frame to `fd`, honoring the deadline (kTimeout/kTorn when
/// the peer stops draining, kClosed when the peer is gone).
FrameError send_frame(int fd, const Frame& frame,
                      MonoClock::time_point deadline);

/// Read one frame from `fd`. Blocks (via poll) until a full frame
/// arrives, the deadline expires, or the stream fails; see the taxonomy
/// above for which error each case maps to.
FrameError recv_frame(int fd, Frame& out, MonoClock::time_point deadline,
                      std::string* detail = nullptr);

}  // namespace hm::net
