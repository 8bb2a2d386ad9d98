#include "net/frame.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "core/check.hpp"
#include "io/snapshot.hpp"  // io::crc32, io::ByteWriter/ByteReader

namespace hm::net {

namespace {

const FrameFaultHook* g_frame_fault_hook = nullptr;

/// Remaining budget in whole milliseconds, clamped for poll(): at least
/// 0 (expired), at most ~1min per poll round so a far-future deadline
/// ("block forever") never overflows the int timeout.
int remaining_ms(MonoClock::time_point deadline) {
  const auto now = MonoClock::now();
  if (deadline <= now) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
          .count();
  return ms > 60000 ? 60000 : static_cast<int>(ms);
}

bool deadline_passed(MonoClock::time_point deadline) {
  return MonoClock::now() >= deadline;
}

enum class IoStatus { kDone, kPeerClosed, kTimedOut, kFailed };

/// Write exactly n bytes, polling for writability against the deadline.
IoStatus write_exact(int fd, const std::uint8_t* data, std::size_t n,
                     MonoClock::time_point deadline) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return IoStatus::kPeerClosed;
    }
    if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
        errno != EINTR) {
      return IoStatus::kFailed;
    }
    if (deadline_passed(deadline)) return IoStatus::kTimedOut;
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    ::poll(&pfd, 1, remaining_ms(deadline));
  }
  return IoStatus::kDone;
}

/// Read exactly n bytes; `got` reports how many arrived before EOF or
/// the deadline (distinguishes boundary-EOF from mid-frame death).
IoStatus read_exact(int fd, std::uint8_t* data, std::size_t n,
                    MonoClock::time_point deadline, std::size_t& got) {
  got = 0;
  while (got < n) {
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, remaining_ms(deadline));
    if (pr == 0) {
      if (deadline_passed(deadline)) return IoStatus::kTimedOut;
      continue;
    }
    if (pr < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kFailed;
    }
    const ssize_t r = ::recv(fd, data + got, n - got, 0);
    if (r == 0) return IoStatus::kPeerClosed;
    if (r < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        continue;
      }
      if (errno == ECONNRESET) return IoStatus::kPeerClosed;
      return IoStatus::kFailed;
    }
    got += static_cast<std::size_t>(r);
  }
  return IoStatus::kDone;
}

void fail(std::string* detail, const char* what) {
  if (detail != nullptr) *detail = what;
}

}  // namespace

const char* frame_error_name(FrameError err) {
  switch (err) {
    case FrameError::kOk: return "ok";
    case FrameError::kClosed: return "closed";
    case FrameError::kTorn: return "torn";
    case FrameError::kCorrupt: return "corrupt";
    case FrameError::kTimeout: return "timeout";
  }
  return "unknown";
}

void set_frame_fault_hook(const FrameFaultHook* hook) {
  g_frame_fault_hook = hook;
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  HM_CHECK_MSG(frame.payload.size() <= kMaxFramePayload,
               "frame payload of " << frame.payload.size()
                                   << " bytes exceeds kMaxFramePayload ("
                                   << kMaxFramePayload << ")");
  io::ByteWriter header;
  header.reserve(kFrameHeaderBytes + frame.payload.size());
  header.put_u32(kFrameMagic);
  header.put_u32(kFrameVersion);
  header.put_u32(static_cast<std::uint32_t>(frame.type));
  header.put_u32(0);  // reserved
  header.put_u64(frame.seq);
  header.put_u64(frame.tag);
  header.put_u64(frame.payload.size());
  header.put_u32(io::crc32(frame.payload.data(), frame.payload.size()));
  header.put_u32(io::crc32(header.bytes().data(), header.bytes().size()));
  header.put_bytes(frame.payload.data(), frame.payload.size());
  std::vector<std::uint8_t> out = header.take();
  HM_CHECK(out.size() == kFrameHeaderBytes + frame.payload.size());
  return out;
}

FrameError decode_frame(const std::uint8_t* data, std::size_t n,
                        Frame& out, std::string* detail) {
  if (n == 0) {
    fail(detail, "empty buffer (closed)");
    return FrameError::kClosed;
  }
  if (n < kFrameHeaderBytes) {
    fail(detail, "short header (torn frame)");
    return FrameError::kTorn;
  }
  io::ByteReader r(data, kFrameHeaderBytes);
  const std::uint32_t magic = r.u32();
  const std::uint32_t version = r.u32();
  const std::uint32_t type = r.u32();
  r.u32();  // reserved
  const std::uint64_t seq = r.u64();
  const std::uint64_t tag = r.u64();
  const std::uint64_t len = r.u64();
  const std::uint32_t payload_crc = r.u32();
  const std::uint32_t header_crc = r.u32();
  if (magic != kFrameMagic) {
    fail(detail, "bad magic");
    return FrameError::kCorrupt;
  }
  if (version != kFrameVersion) {
    fail(detail, "unsupported frame version");
    return FrameError::kCorrupt;
  }
  if (header_crc != io::crc32(data, kFrameHeaderBytes - 4)) {
    fail(detail, "header checksum mismatch");
    return FrameError::kCorrupt;
  }
  if (type < static_cast<std::uint32_t>(FrameType::kRequest) ||
      type > static_cast<std::uint32_t>(FrameType::kShutdown)) {
    fail(detail, "unknown frame type");
    return FrameError::kCorrupt;
  }
  // Bounding len first also keeps kFrameHeaderBytes + len from wrapping.
  if (len > kMaxFramePayload) {
    fail(detail, "payload length exceeds kMaxFramePayload");
    return FrameError::kCorrupt;
  }
  if (n < kFrameHeaderBytes + len) {
    fail(detail, "short payload (torn frame)");
    return FrameError::kTorn;
  }
  if (n > kFrameHeaderBytes + len) {
    fail(detail, "trailing bytes after frame");
    return FrameError::kCorrupt;
  }
  if (payload_crc != io::crc32(data + kFrameHeaderBytes, len)) {
    fail(detail, "payload checksum mismatch");
    return FrameError::kCorrupt;
  }
  out.type = static_cast<FrameType>(type);
  out.seq = seq;
  out.tag = tag;
  out.payload.assign(data + kFrameHeaderBytes, data + kFrameHeaderBytes + len);
  return FrameError::kOk;
}

FrameError send_frame(int fd, const Frame& frame,
                      MonoClock::time_point deadline) {
  std::vector<std::uint8_t> bytes = encode_frame(frame);
  std::size_t n = bytes.size();
  if (g_frame_fault_hook != nullptr &&
      g_frame_fault_hook->truncate_after_bytes < n) {
    n = static_cast<std::size_t>(g_frame_fault_hook->truncate_after_bytes);
  }
  switch (write_exact(fd, bytes.data(), n, deadline)) {
    case IoStatus::kDone: return FrameError::kOk;
    case IoStatus::kPeerClosed: return FrameError::kClosed;
    case IoStatus::kTimedOut: return FrameError::kTimeout;
    case IoStatus::kFailed: return FrameError::kCorrupt;
  }
  return FrameError::kCorrupt;
}

FrameError recv_frame(int fd, Frame& out, MonoClock::time_point deadline,
                      std::string* detail) {
  std::uint8_t header[kFrameHeaderBytes];
  std::size_t got = 0;
  switch (read_exact(fd, header, kFrameHeaderBytes, deadline, got)) {
    case IoStatus::kDone:
      break;
    case IoStatus::kPeerClosed:
      if (got == 0) {
        fail(detail, "peer closed at frame boundary");
        return FrameError::kClosed;
      }
      fail(detail, "peer closed mid-header (torn frame)");
      return FrameError::kTorn;
    case IoStatus::kTimedOut:
      if (got == 0) {
        fail(detail, "deadline expired waiting for a frame");
        return FrameError::kTimeout;
      }
      fail(detail, "deadline expired mid-header (torn frame)");
      return FrameError::kTorn;
    case IoStatus::kFailed:
      fail(detail, "socket read failed");
      return FrameError::kCorrupt;
  }
  // Validate the header before trusting the payload length.
  io::ByteReader r(header, kFrameHeaderBytes);
  const std::uint32_t magic = r.u32();
  const std::uint32_t version = r.u32();
  r.u32();  // type — rechecked by decode_frame
  r.u32();  // reserved
  r.u64();  // seq
  r.u64();  // tag
  const std::uint64_t len = r.u64();
  r.u32();  // payload crc — checked by decode_frame
  const std::uint32_t header_crc = r.u32();
  if (magic != kFrameMagic) {
    fail(detail, "bad magic");
    return FrameError::kCorrupt;
  }
  if (version != kFrameVersion) {
    fail(detail, "unsupported frame version");
    return FrameError::kCorrupt;
  }
  if (header_crc != io::crc32(header, kFrameHeaderBytes - 4)) {
    fail(detail, "header checksum mismatch");
    return FrameError::kCorrupt;
  }
  // Anyone can stamp a valid header CRC, so bound the length before it
  // sizes an allocation (this also keeps the sum below from wrapping).
  if (len > kMaxFramePayload) {
    fail(detail, "payload length exceeds kMaxFramePayload");
    return FrameError::kCorrupt;
  }
  std::vector<std::uint8_t> whole(kFrameHeaderBytes + len);
  std::memcpy(whole.data(), header, kFrameHeaderBytes);
  if (len > 0) {
    switch (read_exact(fd, whole.data() + kFrameHeaderBytes, len, deadline,
                       got)) {
      case IoStatus::kDone:
        break;
      case IoStatus::kPeerClosed:
        fail(detail, "peer closed mid-payload (torn frame)");
        return FrameError::kTorn;
      case IoStatus::kTimedOut:
        fail(detail, "deadline expired mid-payload (torn frame)");
        return FrameError::kTorn;
      case IoStatus::kFailed:
        fail(detail, "socket read failed");
        return FrameError::kCorrupt;
    }
  }
  return decode_frame(whole.data(), whole.size(), out, detail);
}

}  // namespace hm::net
