#include "io/snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/check.hpp"
#include "core/log.hpp"
#include "obs/obs.hpp"

namespace hm::io {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'H', 'M', 'S', 'N'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 24;  // magic + version + count + rsvd + payload
constexpr std::size_t kCrcBytes = 4;
constexpr std::size_t kSectionHeaderBytes = 16;  // tag + kind + len
constexpr char kFilePrefix[] = "snapshot.";
constexpr char kTmpSuffix[] = ".tmp";

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

const WriteFaultHook* g_write_fault_hook = nullptr;

/// Slicing-by-8 tables for the reflected IEEE polynomial. Table 0 is the
/// classic bytewise table; table k advances a CRC over one byte followed
/// by k zero bytes, so one step of eight lookups consumes eight bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr auto kCrcTables = make_crc_tables();

/// Little-endian u32 at `p`, assembled bytewise (alignment- and
/// host-endian-independent; compilers fuse it into one load).
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::string errno_string() {
  return std::string(std::strerror(errno));
}

/// Parses the round number out of "snapshot.<digits>"; nullopt for any
/// other name (including temp files and non-numeric suffixes).
std::optional<index_t> parse_round(const std::string& filename) {
  const std::string prefix(kFilePrefix);
  if (filename.size() <= prefix.size() ||
      filename.compare(0, prefix.size(), prefix) != 0) {
    return std::nullopt;
  }
  const std::string digits = filename.substr(prefix.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  // Bounded by the zero-padded width we write, so stoll cannot overflow
  // on our own files; reject absurd widths from foreign files.
  if (digits.size() > 18) return std::nullopt;
  return static_cast<index_t>(std::stoll(digits));
}

struct Candidate {
  index_t round = 0;
  std::string path;
};

/// All `snapshot.<round>` files in `dir`, newest round first.
std::vector<Candidate> list_candidates(const std::string& dir) {
  std::vector<Candidate> out;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const auto round = parse_round(it->path().filename().string());
    if (round) out.push_back({*round, it->path().string()});
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    return a.round > b.round;
  });
  return out;
}

}  // namespace

void set_write_fault_hook(const WriteFaultHook* hook) {
  g_write_fault_hook = hook;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  const auto& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(data);
    const std::uint32_t hi = load_le32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void ByteWriter::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
  }
}

void ByteWriter::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
  }
}

void ByteWriter::put_i64(std::int64_t v) {
  put_u64(static_cast<std::uint64_t>(v));
}

void ByteWriter::put_f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "f64 must be 8 bytes");
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void ByteWriter::put_f64s(const double* v, std::size_t n) {
  if constexpr (kLittleEndian) {
    put_bytes(v, n * sizeof(double));
  } else {
    for (std::size_t i = 0; i < n; ++i) put_f64(v[i]);
  }
}

void ByteWriter::put_bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  buf_.insert(buf_.end(), b, b + n);
}

std::uint32_t ByteReader::u32() {
  HM_CHECK_MSG(remaining() >= 4, "byte stream truncated reading u32 at offset "
                                     << pos_ << " of " << size_);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  HM_CHECK_MSG(remaining() >= 8, "byte stream truncated reading u64 at offset "
                                     << pos_ << " of " << size_);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::int64_t ByteReader::i64() { return static_cast<std::int64_t>(u64()); }

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void ByteReader::read_f64s(double* v, std::size_t n) {
  HM_CHECK_MSG(n <= remaining() / sizeof(double),
               "byte stream truncated reading " << n << " f64 values at offset "
                                                << pos_ << " of " << size_);
  if constexpr (kLittleEndian) {
    read_bytes(v, n * sizeof(double));
  } else {
    for (std::size_t i = 0; i < n; ++i) v[i] = f64();
  }
}

void ByteReader::read_bytes(void* p, std::size_t n) {
  HM_CHECK_MSG(remaining() >= n, "byte stream truncated reading " << n
                                     << " bytes at offset " << pos_ << " of "
                                     << size_);
  if (n > 0) std::memcpy(p, data_ + pos_, n);
  pos_ += n;
}

void Snapshot::add(std::uint32_t tag, std::uint32_t kind,
                   std::vector<std::uint8_t> payload) {
  for (const auto& s : sections_) {
    HM_CHECK_MSG(s.tag != tag, "duplicate snapshot section tag 0x" << std::hex
                                                                  << tag);
  }
  sections_.push_back({tag, kind, std::move(payload)});
}

namespace {

// Section payload layouts, shared by Snapshot and SnapshotEncoder: a
// vector is its u64 length, then its values; a list is its u64 row
// count, then each row as a vector.

std::size_t vec_bytes(std::size_t n) { return 8 + 8 * n; }

std::size_t vec_list_bytes(const std::vector<std::vector<scalar_t>>& v) {
  std::size_t bytes = 8;
  for (const auto& row : v) bytes += vec_bytes(row.size());
  return bytes;
}

void write_f64_vec(ByteWriter& w, const std::vector<scalar_t>& v) {
  w.put_u64(v.size());
  w.put_f64s(v.data(), v.size());
}

void write_f64_vec_list(ByteWriter& w,
                        const std::vector<std::vector<scalar_t>>& v) {
  w.put_u64(v.size());
  for (const auto& row : v) write_f64_vec(w, row);
}

void write_i64_vec(ByteWriter& w, const std::vector<std::int64_t>& v) {
  w.put_u64(v.size());
  for (const std::int64_t x : v) w.put_i64(x);
}

}  // namespace

void Snapshot::put_u64(std::uint32_t tag, std::uint64_t v) {
  ByteWriter w;
  w.put_u64(v);
  add(tag, kKindU64, w.take());
}

void Snapshot::put_f64_vec(std::uint32_t tag,
                           const std::vector<scalar_t>& v) {
  ByteWriter w;
  w.reserve(vec_bytes(v.size()));
  write_f64_vec(w, v);
  add(tag, kKindF64Vec, w.take());
}

void Snapshot::put_f64_vec_list(
    std::uint32_t tag, const std::vector<std::vector<scalar_t>>& v) {
  ByteWriter w;
  w.reserve(vec_list_bytes(v));
  write_f64_vec_list(w, v);
  add(tag, kKindF64VecList, w.take());
}

void Snapshot::put_i64_vec(std::uint32_t tag,
                           const std::vector<std::int64_t>& v) {
  ByteWriter w;
  write_i64_vec(w, v);
  add(tag, kKindI64Vec, w.take());
}

void Snapshot::put_bytes(std::uint32_t tag,
                         std::vector<std::uint8_t> payload) {
  add(tag, kKindBytes, std::move(payload));
}

bool Snapshot::has(std::uint32_t tag) const {
  for (const auto& s : sections_) {
    if (s.tag == tag) return true;
  }
  return false;
}

const Snapshot::Section& Snapshot::find(std::uint32_t tag,
                                        std::uint32_t kind) const {
  for (const auto& s : sections_) {
    if (s.tag == tag) {
      HM_CHECK_MSG(s.kind == kind, "snapshot section tag 0x"
                                       << std::hex << tag << std::dec
                                       << " has kind " << s.kind
                                       << ", expected " << kind);
      return s;
    }
  }
  HM_CHECK_MSG(false, "snapshot is missing section tag 0x" << std::hex << tag);
  __builtin_unreachable();
}

std::uint64_t Snapshot::get_u64(std::uint32_t tag) const {
  const Section& s = find(tag, kKindU64);
  ByteReader r(s.payload.data(), s.payload.size());
  const std::uint64_t v = r.u64();
  HM_CHECK(r.remaining() == 0);
  return v;
}

std::vector<scalar_t> Snapshot::get_f64_vec(std::uint32_t tag) const {
  const Section& s = find(tag, kKindF64Vec);
  ByteReader r(s.payload.data(), s.payload.size());
  const std::uint64_t n = r.u64();
  // Divide rather than multiply: n * 8 wraps for n >= 2^61.
  HM_CHECK_MSG(r.remaining() % 8 == 0 && n == r.remaining() / 8,
               "f64 vector section: declared " << n << " values but "
                                               << r.remaining()
                                               << " payload bytes remain");
  std::vector<scalar_t> v(n);
  r.read_f64s(v.data(), v.size());
  return v;
}

std::vector<std::vector<scalar_t>> Snapshot::get_f64_vec_list(
    std::uint32_t tag) const {
  const Section& s = find(tag, kKindF64VecList);
  ByteReader r(s.payload.data(), s.payload.size());
  const std::uint64_t rows = r.u64();
  // Every row carries at least its 8-byte count.
  HM_CHECK_MSG(rows <= r.remaining() / 8,
               "f64 vector-list section: declared " << rows
                                                    << " rows but only "
                                                    << r.remaining()
                                                    << " payload bytes remain");
  std::vector<std::vector<scalar_t>> v;
  v.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) {
    const std::uint64_t n = r.u64();
    HM_CHECK_MSG(n <= r.remaining() / 8,
                 "f64 vector-list section: row " << i << " declares " << n
                                                 << " values but only "
                                                 << r.remaining()
                                                 << " payload bytes remain");
    std::vector<scalar_t> row(n);
    r.read_f64s(row.data(), row.size());
    v.push_back(std::move(row));
  }
  HM_CHECK(r.remaining() == 0);
  return v;
}

std::vector<std::int64_t> Snapshot::get_i64_vec(std::uint32_t tag) const {
  const Section& s = find(tag, kKindI64Vec);
  ByteReader r(s.payload.data(), s.payload.size());
  const std::uint64_t n = r.u64();
  HM_CHECK_MSG(r.remaining() % 8 == 0 && n == r.remaining() / 8,
               "i64 vector section: declared " << n << " values but "
                                               << r.remaining()
                                               << " payload bytes remain");
  std::vector<std::int64_t> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = r.i64();
  return v;
}

const std::vector<std::uint8_t>& Snapshot::get_bytes(
    std::uint32_t tag) const {
  return find(tag, kKindBytes).payload;
}

std::size_t Snapshot::serialized_size() const {
  std::size_t n = kHeaderBytes + kCrcBytes;
  for (const auto& s : sections_) n += kSectionHeaderBytes + s.payload.size();
  return n;
}

std::vector<std::uint8_t> Snapshot::serialize() const {
  std::vector<std::uint8_t> buf;
  buf.reserve(serialized_size());
  SnapshotEncoder enc(std::move(buf));
  for (const auto& s : sections_) {
    enc.begin(s.tag, s.kind, s.payload.size());
    enc.out_.put_bytes(s.payload.data(), s.payload.size());
  }
  std::vector<std::uint8_t> out = enc.finish();
  seal(out);
  HM_CHECK(out.size() == serialized_size());
  return out;
}

SnapshotEncoder::SnapshotEncoder(std::vector<std::uint8_t> buf)
    : out_(std::move(buf)) {
  out_.put_bytes(kMagic, sizeof(kMagic));
  out_.put_u32(kVersion);
  out_.put_u32(0);  // section count, set by finish()
  out_.put_u32(0);  // reserved
  out_.put_u64(0);  // payload bytes, set by finish()
}

void SnapshotEncoder::begin(std::uint32_t tag, std::uint32_t kind,
                            std::size_t len) {
  for (const std::uint32_t t : tags_) {
    HM_CHECK_MSG(t != tag, "duplicate snapshot section tag 0x" << std::hex
                                                              << tag);
  }
  tags_.push_back(tag);
  out_.put_u32(tag);
  out_.put_u32(kind);
  out_.put_u64(len);
}

void SnapshotEncoder::put_u64(std::uint32_t tag, std::uint64_t v) {
  begin(tag, Snapshot::kKindU64, 8);
  out_.put_u64(v);
}

void SnapshotEncoder::put_f64_vec(std::uint32_t tag,
                                  const std::vector<scalar_t>& v) {
  begin(tag, Snapshot::kKindF64Vec, vec_bytes(v.size()));
  write_f64_vec(out_, v);
}

void SnapshotEncoder::put_f64_vec_list(
    std::uint32_t tag, const std::vector<std::vector<scalar_t>>& v) {
  begin(tag, Snapshot::kKindF64VecList, vec_list_bytes(v));
  write_f64_vec_list(out_, v);
}

void SnapshotEncoder::put_i64_vec(std::uint32_t tag,
                                  const std::vector<std::int64_t>& v) {
  begin(tag, Snapshot::kKindI64Vec, vec_bytes(v.size()));
  write_i64_vec(out_, v);
}

void SnapshotEncoder::put_bytes(std::uint32_t tag,
                                const std::vector<std::uint8_t>& payload) {
  begin(tag, Snapshot::kKindBytes, payload.size());
  out_.put_bytes(payload.data(), payload.size());
}

std::vector<std::uint8_t> SnapshotEncoder::finish() {
  std::vector<std::uint8_t> bytes = out_.take();
  HM_CHECK(bytes.size() >= kHeaderBytes);
  const auto store = [&](std::size_t at, std::uint64_t v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  store(8, tags_.size(), 4);
  store(16, bytes.size() - kHeaderBytes, 8);
  return bytes;
}

void seal(std::vector<std::uint8_t>& bytes) {
  const std::uint32_t crc = crc32(bytes.data(), bytes.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
}

Snapshot Snapshot::parse(const std::uint8_t* data, std::size_t n) {
  HM_CHECK_MSG(n >= kHeaderBytes + kCrcBytes,
               "snapshot too short: " << n << " bytes, need at least "
                                      << (kHeaderBytes + kCrcBytes));
  HM_CHECK_MSG(std::memcmp(data, kMagic, sizeof(kMagic)) == 0,
               "bad snapshot magic (not an HMSN file)");
  ByteReader header(data + 4, kHeaderBytes - 4);
  const std::uint32_t version = header.u32();
  HM_CHECK_MSG(version == kVersion,
               "unsupported snapshot version " << version << " (expected "
                                               << kVersion << ")");
  const std::uint32_t section_count = header.u32();
  const std::uint32_t reserved = header.u32();
  HM_CHECK_MSG(reserved == 0, "nonzero reserved header field " << reserved);
  const std::uint64_t payload_bytes = header.u64();
  HM_CHECK_MSG(n == kHeaderBytes + payload_bytes + kCrcBytes,
               "snapshot size mismatch: header declares "
                   << payload_bytes << " payload bytes, so file should be "
                   << (kHeaderBytes + payload_bytes + kCrcBytes)
                   << " bytes, got " << n);

  const std::size_t crc_offset = n - kCrcBytes;
  ByteReader crc_reader(data + crc_offset, kCrcBytes);
  const std::uint32_t stored_crc = crc_reader.u32();
  const std::uint32_t computed_crc = crc32(data, crc_offset);
  HM_CHECK_MSG(stored_crc == computed_crc,
               "snapshot checksum mismatch: stored 0x"
                   << std::hex << stored_crc << ", computed 0x"
                   << computed_crc);

  Snapshot snap;
  ByteReader body(data + kHeaderBytes, payload_bytes);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint32_t tag = body.u32();
    const std::uint32_t kind = body.u32();
    HM_CHECK_MSG(kind >= kKindU64 && kind <= kKindBytes,
                 "unknown snapshot section kind " << kind << " (tag 0x"
                                                  << std::hex << tag << ")");
    const std::uint64_t len = body.u64();
    HM_CHECK_MSG(body.remaining() >= len,
                 "snapshot section tag 0x"
                     << std::hex << tag << std::dec << " declares " << len
                     << " bytes but only " << body.remaining() << " remain");
    std::vector<std::uint8_t> payload(len);
    body.read_bytes(payload.data(), len);
    snap.add(tag, kind, std::move(payload));
  }
  HM_CHECK_MSG(body.remaining() == 0,
               "snapshot payload has " << body.remaining()
                                       << " trailing bytes after "
                                       << section_count << " sections");
  return snap;
}

void atomic_write_file(const std::string& path, const std::uint8_t* data,
                       std::size_t n) {
  const std::string tmp = path + kTmpSuffix;

  // Torn-write injection: truncate the data, optionally rename the torn
  // file into place, then model the process death.
  const WriteFaultHook* hook = g_write_fault_hook;
  std::size_t write_n = n;
  const bool tear = hook != nullptr && hook->fail_after_bytes < n;
  if (tear) write_n = static_cast<std::size_t>(hook->fail_after_bytes);

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  HM_CHECK_MSG(fd >= 0, "cannot open '" << tmp << "' for writing: "
                                        << errno_string());
  std::size_t written = 0;
  while (written < write_n) {
    const ::ssize_t rc = ::write(fd, data + written, write_n - written);
    if (rc < 0) {
      if (errno == EINTR) continue;
      const std::string err = errno_string();
      ::close(fd);
      HM_CHECK_MSG(false, "write to '" << tmp << "' failed after " << written
                                       << " of " << n << " bytes: " << err);
    }
    written += static_cast<std::size_t>(rc);
  }

  if (tear) {
    // A real crash loses buffered data too, but for determinism the
    // harness flushes what it did "manage" to write before dying.
    ::fsync(fd);
    ::close(fd);
    if (hook->rename_anyway) {
      std::rename(tmp.c_str(), path.c_str());
    }
    std::ostringstream os;
    os << "simulated crash writing '" << path << "': write torn at byte "
       << write_n << " of " << n
       << (hook->rename_anyway ? " (torn file renamed into place)"
                               : " (temp file left behind)");
    throw SimulatedCrash(os.str());
  }

  if (::fsync(fd) != 0) {
    const std::string err = errno_string();
    ::close(fd);
    HM_CHECK_MSG(false, "fsync of '" << tmp << "' failed: " << err);
  }
  HM_CHECK_MSG(::close(fd) == 0, "close of '" << tmp << "' failed: "
                                              << errno_string());
  HM_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
               "rename '" << tmp << "' -> '" << path << "' failed: "
                          << errno_string());

  // Persist the rename itself: fsync the containing directory.
  const fs::path parent = fs::path(path).parent_path();
  const std::string parent_str = parent.empty() ? "." : parent.string();
  const int dfd = ::open(parent_str.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

namespace {

/// Write sealed snapshot bytes as `<dir>/snapshot.<round>` and prune (the
/// body of save_snapshot after serialization). Returns the final path.
std::string write_snapshot_file(const std::string& dir, index_t keep,
                                index_t round,
                                const std::vector<std::uint8_t>& bytes) {
  HM_CHECK_MSG(!dir.empty(), "snapshot directory must be non-empty");
  HM_CHECK_MSG(keep >= 1, "snapshot keep=" << keep << " must be >= 1");
  HM_CHECK_MSG(round >= 0, "snapshot round=" << round << " must be >= 0");

  std::error_code ec;
  fs::create_directories(dir, ec);
  HM_CHECK_MSG(!ec, "cannot create snapshot directory '" << dir
                                                         << "': " << ec.message());

  std::ostringstream name;
  name << kFilePrefix;
  name.width(8);
  name.fill('0');
  name << round;
  const std::string path = (fs::path(dir) / name.str()).string();

  atomic_write_file(path, bytes.data(), bytes.size());
  HM_OBS_INC("io.snapshot.writes");
  HM_OBS_ADD("io.snapshot.bytes_written", bytes.size());

  // Prune: keep the `keep` newest snapshot files, drop older ones and any
  // orphaned temp files from interrupted writes.
  const std::vector<Candidate> all = list_candidates(dir);
  for (std::size_t i = static_cast<std::size_t>(keep); i < all.size(); ++i) {
    fs::remove(all[i].path, ec);
    HM_OBS_INC("io.snapshot.rotated");
  }
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string fname = it->path().filename().string();
    if (fname.size() > sizeof(kTmpSuffix) - 1 &&
        fname.compare(fname.size() - (sizeof(kTmpSuffix) - 1),
                      sizeof(kTmpSuffix) - 1, kTmpSuffix) == 0 &&
        it->path().string() != path + kTmpSuffix) {
      std::error_code rm_ec;
      fs::remove(it->path(), rm_ec);
      HM_OBS_INC("io.snapshot.orphans_swept");
    }
  }
  return path;
}

}  // namespace

std::string save_snapshot(const std::string& dir, index_t keep,
                          index_t round, const Snapshot& snap) {
  HM_OBS_SPAN("snapshot.save", "io", round, snap.serialized_size());
  return write_snapshot_file(dir, keep, round, snap.serialize());
}

SnapshotWriter::SnapshotWriter(std::string dir, index_t keep)
    : dir_(std::move(dir)), keep_(keep) {}

SnapshotWriter::~SnapshotWriter() {
  if (thread_.joinable()) thread_.join();
  if (!error_) return;
  try {
    std::rethrow_exception(error_);
  } catch (const std::exception& e) {
    log::error() << "snapshot write under '" << dir_
                 << "' failed while the run was already failing: "
                 << e.what();
  } catch (...) {
    log::error() << "snapshot write under '" << dir_
                 << "' failed while the run was already failing";
  }
}

void SnapshotWriter::wait() {
  if (thread_.joinable()) {
    HM_OBS_SPAN("snapshot.wait", "io", 0, 0);
    thread_.join();
  }
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void SnapshotWriter::save(
    index_t round, const std::function<void(SnapshotEncoder&)>& fill) {
  wait();
  {
    HM_OBS_SPAN("snapshot.handoff", "io", round, buf_.capacity());
    SnapshotEncoder enc(std::move(buf_));
    fill(enc);
    buf_ = enc.finish();
  }
  thread_ = std::thread([this, round] {
    try {
      HM_OBS_SPAN("snapshot.save", "io", round, buf_.size() + 4);
      seal(buf_);
      write_snapshot_file(dir_, keep_, round, buf_);
    } catch (...) {
      error_ = std::current_exception();
    }
  });
}

std::optional<LoadedSnapshot> load_latest_snapshot(const std::string& dir,
                                                   LoadMiss* miss) {
  const auto fresh_miss = [&] {
    if (miss != nullptr) {
      *miss = LoadMiss{false, 0,
                       "no snapshot data yet under '" + dir +
                           "' (fresh start)"};
    }
  };
  std::error_code ec;
  if (dir.empty() || !fs::is_directory(dir, ec)) {
    fresh_miss();
    return std::nullopt;
  }

  std::vector<std::string> rejected;
  for (const Candidate& c : list_candidates(dir)) {
    std::vector<std::uint8_t> bytes;
    {
      std::ifstream in(c.path, std::ios::binary | std::ios::ate);
      if (!in.good()) {
        rejected.push_back(c.path + ": cannot open for reading");
        log::warn() << "snapshot candidate rejected — " << rejected.back();
        continue;
      }
      const std::streamoff size = in.tellg();
      in.seekg(0);
      bytes.resize(static_cast<std::size_t>(size));
      if (size > 0) {
        in.read(reinterpret_cast<char*>(bytes.data()), size);
      }
      if (!in.good() && size > 0) {
        rejected.push_back(c.path + ": short read");
        log::warn() << "snapshot candidate rejected — " << rejected.back();
        continue;
      }
    }
    try {
      Snapshot snap = Snapshot::parse(bytes.data(), bytes.size());
      if (!rejected.empty()) {
        log::warn() << "recovered from fallback snapshot '" << c.path
                    << "' after rejecting " << rejected.size()
                    << " newer candidate(s)";
      }
      HM_OBS_INC("io.snapshot.loads");
      HM_OBS_ADD("io.snapshot.load_rejected", rejected.size());
      return LoadedSnapshot{std::move(snap), c.path, c.round,
                            std::move(rejected)};
    } catch (const CheckError& e) {
      rejected.push_back(c.path + ": " + e.what());
      log::warn() << "snapshot candidate rejected — " << rejected.back();
    }
  }
  if (rejected.empty()) {
    fresh_miss();
  } else {
    log::warn() << "no valid snapshot in '" << dir << "' ("
                << rejected.size() << " candidate(s) rejected)";
    if (miss != nullptr) {
      *miss = LoadMiss{
          true, static_cast<index_t>(rejected.size()),
          std::to_string(rejected.size()) + " snapshot candidate(s) under '" +
              dir + "', none valid (corrupt or torn)"};
    }
  }
  return std::nullopt;
}

}  // namespace hm::io
