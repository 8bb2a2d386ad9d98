// Durable, crash-safe trainer snapshots: a versioned, little-endian,
// CRC32-checksummed container of tagged sections, written atomically
// (temp file + fsync + rename) with a rotating last-good fallback.
//
// File layout (all integers little-endian):
//
//   offset  size  field
//   0       4     magic "HMSN"
//   4       4     u32 format version (currently 1)
//   8       4     u32 section count
//   12      4     u32 reserved (0)
//   16      8     u64 payload bytes (sum of encoded section sizes)
//   24      ...   sections, each: u32 tag | u32 kind | u64 len | len bytes
//   24+p    4     u32 CRC32 (IEEE) over bytes [0, 24 + payload)
//
// A snapshot directory holds `snapshot.<round>` files; saving prunes to
// the `keep` newest. Because the rename is atomic and the checksum covers
// the whole file, a crash at *any* byte offset of a write leaves either
// (a) a stale temp file that is never considered, or (b) a torn
// `snapshot.<round>` that fails validation — and loading falls back to
// the previous last-good file in both cases.
//
// Layering: this is the only module allowed to touch the filesystem
// directly — detlint's `direct-persistence` rule rejects
// ofstream/fopen/rename/remove anywhere else under src/.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/types.hpp"

namespace hm::io {

/// Cadence and placement of durable trainer snapshots. Threaded through
/// algo::TrainOptions into every trainer.
struct SnapshotPolicy {
  index_t every_k_rounds = 0;  // snapshot after every k-th round; 0 = off
  std::string dir;             // snapshot directory, created on demand
  index_t keep = 2;            // last-good fallback depth (>= 1)

  // Crash-replay harness: when >= 0, the trainer throws SimulatedCrash
  // after completing round index `crash_after_round` (0-based) — after
  // that round's snapshot, if one was due, has been written. Production
  // runs leave this at -1.
  index_t crash_after_round = -1;

  bool enabled() const { return every_k_rounds > 0 && !dir.empty(); }
};

/// Thrown to model a process death: by SnapshotPolicy::crash_after_round
/// and by an armed WriteFaultHook. Deliberately NOT a CheckError — a
/// simulated crash is not a precondition violation.
class SimulatedCrash : public std::runtime_error {
 public:
  explicit SimulatedCrash(const std::string& what)
      : std::runtime_error(what) {}
};

/// Test seam for torn-write injection. While installed, the next
/// atomic_write_file truncates the data at `fail_after_bytes` and throws
/// SimulatedCrash; with `rename_anyway` the truncated file is renamed
/// into place first (modeling a rename that beat the data to disk), so
/// loaders must detect the torn payload via the checksum. Not
/// thread-safe: install/clear only around single-threaded test code.
struct WriteFaultHook {
  std::uint64_t fail_after_bytes = 0;
  bool rename_anyway = false;
};

/// Install (or with nullptr clear) the global write-fault hook. The hook
/// object must outlive its installation.
void set_write_fault_hook(const WriteFaultHook* hook);

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `data`.
/// Portable slicing-by-8: eight table lookups per eight input bytes.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

/// Little-endian byte-buffer encoder. f64 values round-trip by bit
/// pattern, so encode/decode is bit-exact for every finite and
/// non-finite double.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Write into `buf`, cleared first (its capacity is kept).
  explicit ByteWriter(std::vector<std::uint8_t> buf) : buf_(std::move(buf)) {
    buf_.clear();
  }
  void reserve(std::size_t n) { buf_.reserve(n); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  void put_f64(double v);
  /// `n` f64 values, byte-identical to n put_f64 calls: one memcpy on a
  /// little-endian host, put_f64 per value otherwise.
  void put_f64s(const double* v, std::size_t n);
  void put_bytes(const void* p, std::size_t n);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer; every
/// overrun throws CheckError (never reads past the end).
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t n)
      : data_(data), size_(n) {}

  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  /// `n` f64 values, as n f64() calls would read them (one memcpy on a
  /// little-endian host).
  void read_f64s(double* v, std::size_t n);
  void read_bytes(void* p, std::size_t n);

  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Streams the container layout straight into a byte buffer, one section
/// per put_* call: finish() returns exactly what Snapshot::serialize()
/// returns for the same put_* calls, minus the trailing CRC, which seal()
/// appends. Each section's data is copied once, into the buffer, so a
/// caller that reuses the buffer (SnapshotWriter) allocates nothing per
/// snapshot. Tags must be unique, as in Snapshot.
class SnapshotEncoder {
 public:
  /// Encode into `buf`, which is cleared first (its capacity is kept).
  explicit SnapshotEncoder(std::vector<std::uint8_t> buf = {});

  void put_u64(std::uint32_t tag, std::uint64_t v);
  void put_f64_vec(std::uint32_t tag, const std::vector<scalar_t>& v);
  void put_f64_vec_list(std::uint32_t tag,
                        const std::vector<std::vector<scalar_t>>& v);
  void put_i64_vec(std::uint32_t tag, const std::vector<std::int64_t>& v);
  void put_bytes(std::uint32_t tag, const std::vector<std::uint8_t>& payload);

  /// Fill in the header's section count and payload size and hand the
  /// bytes back (still without their CRC).
  std::vector<std::uint8_t> finish();

 private:
  friend class Snapshot;
  /// Start a section of `len` payload bytes; the caller writes them.
  void begin(std::uint32_t tag, std::uint32_t kind, std::size_t len);

  ByteWriter out_;
  std::vector<std::uint32_t> tags_;
};

/// Append the CRC32 of `bytes` (an encoder's finished output), which
/// completes the file.
void seal(std::vector<std::uint8_t>& bytes);

/// The tagged-section container. Tags are caller-chosen u32 constants and
/// must be unique within one snapshot; getters throw CheckError on a
/// missing tag or a kind mismatch, so a decode against the wrong schema
/// fails loudly instead of misinterpreting bytes.
class Snapshot {
 public:
  // Section kinds (wire values; parse rejects anything else).
  static constexpr std::uint32_t kKindU64 = 1;
  static constexpr std::uint32_t kKindF64Vec = 2;
  static constexpr std::uint32_t kKindF64VecList = 3;
  static constexpr std::uint32_t kKindI64Vec = 4;
  static constexpr std::uint32_t kKindBytes = 5;

  void put_u64(std::uint32_t tag, std::uint64_t v);
  void put_f64_vec(std::uint32_t tag, const std::vector<scalar_t>& v);
  void put_f64_vec_list(std::uint32_t tag,
                        const std::vector<std::vector<scalar_t>>& v);
  void put_i64_vec(std::uint32_t tag, const std::vector<std::int64_t>& v);
  void put_bytes(std::uint32_t tag, std::vector<std::uint8_t> payload);

  bool has(std::uint32_t tag) const;
  std::uint64_t get_u64(std::uint32_t tag) const;
  std::vector<scalar_t> get_f64_vec(std::uint32_t tag) const;
  std::vector<std::vector<scalar_t>> get_f64_vec_list(
      std::uint32_t tag) const;
  std::vector<std::int64_t> get_i64_vec(std::uint32_t tag) const;
  const std::vector<std::uint8_t>& get_bytes(std::uint32_t tag) const;

  std::size_t section_count() const { return sections_.size(); }

  /// Byte size of serialize()'s output.
  std::size_t serialized_size() const;

  /// Serialize to the on-disk byte layout (header + sections + CRC).
  std::vector<std::uint8_t> serialize() const;

  /// Strict parse of a serialized snapshot. Throws CheckError on any
  /// structural anomaly: short header, bad magic, unsupported version,
  /// size mismatch (truncation or trailing bytes), checksum failure,
  /// unknown section kind, section overrunning the payload, duplicate
  /// tags, or kind/size contradictions.
  static Snapshot parse(const std::uint8_t* data, std::size_t n);

 private:
  struct Section {
    std::uint32_t tag = 0;
    std::uint32_t kind = 0;
    std::vector<std::uint8_t> payload;
  };

  const Section& find(std::uint32_t tag, std::uint32_t kind) const;
  void add(std::uint32_t tag, std::uint32_t kind,
           std::vector<std::uint8_t> payload);

  std::vector<Section> sections_;
};

/// Crash-safe durable write: `<path>.tmp` + full write + fsync + atomic
/// rename onto `path` (+ directory fsync). Throws CheckError with the
/// path and byte counts on real I/O failure, SimulatedCrash when the
/// write-fault hook fires.
void atomic_write_file(const std::string& path, const std::uint8_t* data,
                       std::size_t n);

/// Write `snap` as `<dir>/snapshot.<round>` (zero-padded), creating the
/// directory if needed and pruning to the `keep` newest snapshot files
/// (plus any orphaned temp files). Returns the final path.
std::string save_snapshot(const std::string& dir, index_t keep,
                          index_t round, const Snapshot& snap);

/// A run's durable snapshots, written while the run goes on. save()
/// encodes the state on the calling thread into one buffer the writer
/// reuses for every save, then a writer thread seals it, writes it as
/// `<dir>/snapshot.<round>` through atomic_write_file and prunes to the
/// `keep` newest, as save_snapshot does. At most one write is in flight:
/// save() and wait() join the previous one first and rethrow its error
/// (SimulatedCrash included) on the calling thread. The destructor joins
/// too and logs an error nobody collected instead of throwing it (a
/// caller leaving by an exception already has one in flight). The writer
/// thread is the only thread src/ starts outside a ThreadPool, and none
/// outlives the writer.
class SnapshotWriter {
 public:
  SnapshotWriter(std::string dir, index_t keep);
  ~SnapshotWriter();

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Join the write in flight, if any, and rethrow its error.
  void wait();

  /// wait(), then encode round `round`'s snapshot with fill(encoder) on
  /// this thread and start writing it on the writer thread.
  void save(index_t round, const std::function<void(SnapshotEncoder&)>& fill);

 private:
  std::string dir_;
  index_t keep_;
  std::vector<std::uint8_t> buf_;  // owned by the writer thread while it runs
  std::exception_ptr error_;       // set by the writer thread
  std::thread thread_;             // after everything it uses
};

struct LoadedSnapshot {
  Snapshot snapshot;
  std::string path;    // the file that validated
  index_t round = 0;   // round parsed from the file name
  // Newer candidates that failed validation, as "path: reason" strings —
  // surfaced so a resume can report that it degraded to a fallback.
  std::vector<std::string> rejected;
};

/// Why load_latest_snapshot returned nullopt. `hard` separates the two
/// cases a resuming caller must treat differently: "no snapshot data
/// yet" (nothing was ever written — a benign fresh start) versus
/// "candidates exist but every one is corrupt or torn" (the store is
/// damaged — surface it loudly instead of silently retraining).
struct LoadMiss {
  bool hard = false;       // true = candidates existed, none validated
  index_t candidates = 0;  // snapshot files examined
  std::string message;     // one-line diagnostic (wording pinned by tests)
};

/// Newest-first scan of `<dir>/snapshot.*`. Corrupt or torn candidates
/// are skipped (with a log::warn naming the reason) and the previous
/// last-good snapshot is returned instead. nullopt when the directory is
/// missing, empty, or holds no valid snapshot at all; `miss` (optional)
/// then says whether that is a fresh start or a damaged store.
std::optional<LoadedSnapshot> load_latest_snapshot(const std::string& dir,
                                                   LoadMiss* miss = nullptr);

}  // namespace hm::io
