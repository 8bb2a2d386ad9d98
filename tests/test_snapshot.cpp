// Crash-safe snapshot/resume suite:
//   (a) container round-trip and an adversarial decode table (empty file,
//       wrong magic, unsupported version, truncation, flipped bits, CRC
//       damage, trailing garbage, hostile section headers),
//   (b) the durable store: rotation/pruning, torn-write injection at
//       arbitrary byte offsets in both crash modes (temp left behind,
//       torn file renamed into place) — the directory must never become
//       unloadable and always falls back to the previous last-good file,
//   (c) the kill-and-resume matrix: every trainer x several crash points
//       x {fault-free, active FaultPlan}, asserting the resumed run's
//       final model, weights, comm counters, and history TSV are
//       byte-identical to the uninterrupted run,
//   (d) the CI smoke target (SnapshotCrashReplay): HierMinimax killed
//       mid-snapshot-write, resumed past the torn file, bit-compared,
//   (e) codec byte compatibility: the slicing-by-8 CRC32 against a
//       bytewise reference, the bulk f64 path against the per-value one,
//       and a snapshot's bytes pinned to what the bytewise codec wrote.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "algo/drfa.hpp"
#include "algo/fedavg.hpp"
#include "algo/hierfavg.hpp"
#include "algo/hierminimax.hpp"
#include "algo/hierminimax_multi.hpp"
#include "algo/qffl.hpp"
#include "core/check.hpp"
#include "io/checkpoint.hpp"
#include "io/snapshot.hpp"
#include "nn/softmax_regression.hpp"
#include "sim/multi_topology.hpp"
#include "sim/topology.hpp"
#include "test_util.hpp"

namespace hm::algo {
namespace {

namespace fs = std::filesystem;

// Fingerprinting, trajectory comparison, and fixtures live in
// test_util.hpp, shared with the fault and adversarial-scenario matrices.
using testing_util::bits;
using testing_util::expect_same_output;
using testing_util::heterogeneous_task;
using testing_util::output_of;
using testing_util::pinned_codec_snapshot;
using testing_util::RunOutput;

// ---------------------------------------------------------------------
// Filesystem scaffolding. Each test gets its own directory under /tmp.

std::string fresh_dir(const std::string& name) {
  const std::string dir = "/tmp/hm_snapshot_test/" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good()) << path;
  const auto n = static_cast<std::size_t>(in.tellg());
  std::vector<std::uint8_t> bytes(n);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(n));
  return bytes;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// RAII hook installation so a failing assertion cannot leak an armed
/// hook into later tests.
class ScopedWriteFault {
 public:
  explicit ScopedWriteFault(io::WriteFaultHook hook) : hook_(hook) {
    io::set_write_fault_hook(&hook_);
  }
  ~ScopedWriteFault() { io::set_write_fault_hook(nullptr); }

 private:
  io::WriteFaultHook hook_;
};

io::Snapshot sample_snapshot() {
  io::Snapshot s;
  s.put_u64(0x31474154, 42);  // "TAG1"
  s.put_f64_vec(0x32474154, {1.5, -0.0, 2e-308, 3.14159});
  s.put_f64_vec_list(0x33474154, {{1.0, 2.0}, {}, {7.0}});
  s.put_i64_vec(0x34474154, {-3, 0, 1ll << 40});
  s.put_bytes(0x35474154, {0xde, 0xad, 0xbe, 0xef});
  return s;
}

// ---------------------------------------------------------------------
// (a) Container round-trip and typed-getter contracts.

TEST(SnapshotContainer, RoundTripsEverySectionKind) {
  const io::Snapshot s = sample_snapshot();
  const std::vector<std::uint8_t> bytes = s.serialize();
  const io::Snapshot r = io::Snapshot::parse(bytes.data(), bytes.size());

  EXPECT_EQ(r.section_count(), 5u);
  EXPECT_EQ(r.get_u64(0x31474154), 42u);
  const auto v = r.get_f64_vec(0x32474154);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(bits(v[1]), bits(-0.0));  // bit pattern, not value, survives
  EXPECT_EQ(bits(v[2]), bits(2e-308));
  EXPECT_EQ(r.get_f64_vec_list(0x33474154),
            (std::vector<std::vector<scalar_t>>{{1.0, 2.0}, {}, {7.0}}));
  EXPECT_EQ(r.get_i64_vec(0x34474154),
            (std::vector<std::int64_t>{-3, 0, 1ll << 40}));
  EXPECT_EQ(r.get_bytes(0x35474154),
            (std::vector<std::uint8_t>{0xde, 0xad, 0xbe, 0xef}));
}

TEST(SnapshotContainer, GetterContractViolationsThrow) {
  const io::Snapshot s = sample_snapshot();
  EXPECT_FALSE(s.has(0x99999999));
  EXPECT_THROW(s.get_u64(0x99999999), CheckError);         // missing tag
  EXPECT_THROW(s.get_u64(0x32474154), CheckError);         // kind mismatch
  EXPECT_THROW(s.get_f64_vec(0x31474154), CheckError);     // kind mismatch
  io::Snapshot dup;
  dup.put_u64(7, 1);
  EXPECT_THROW(dup.put_u64(7, 2), CheckError);             // duplicate tag
}

// ---------------------------------------------------------------------
// Adversarial decode table: every corruption is rejected with CheckError,
// never a crash or a silently-wrong snapshot. The ASan+UBSan CI legs run
// this same binary, so an out-of-bounds read in the parser fails loudly.

TEST(SnapshotDecode, AdversarialCorruptionTable) {
  const std::vector<std::uint8_t> good = sample_snapshot().serialize();

  struct Case {
    std::string name;
    std::function<std::vector<std::uint8_t>()> make;
  };
  const std::vector<Case> cases = {
      {"empty file", [&] { return std::vector<std::uint8_t>{}; }},
      {"short header",
       [&] {
         return std::vector<std::uint8_t>(good.begin(), good.begin() + 10);
       }},
      {"wrong magic",
       [&] {
         auto b = good;
         b[0] ^= 0xff;
         return b;
       }},
      {"unsupported version",
       [&] {
         auto b = good;
         b[4] = 2;  // version field; CRC check is downstream of version
         return b;
       }},
      {"nonzero reserved",
       [&] {
         auto b = good;
         b[12] = 1;
         return b;
       }},
      {"truncated payload",
       [&] {
         return std::vector<std::uint8_t>(good.begin(), good.end() - 9);
       }},
      {"truncated to header only",
       [&] {
         return std::vector<std::uint8_t>(good.begin(), good.begin() + 28);
       }},
      {"trailing garbage",
       [&] {
         auto b = good;
         b.insert(b.end(), {1, 2, 3});
         return b;
       }},
      {"flipped payload bit",
       [&] {
         auto b = good;
         b[b.size() / 2] ^= 0x01;
         return b;
       }},
      {"flipped checksum byte",
       [&] {
         auto b = good;
         b.back() ^= 0xff;
         return b;
       }},
  };
  for (const auto& c : cases) {
    const auto bytes = c.make();
    EXPECT_THROW(io::Snapshot::parse(bytes.data(), bytes.size()), CheckError)
        << c.name;
  }
}

/// Hostile section headers need a hand-rolled file (serialize() cannot
/// produce them): unknown kinds, overrunning lengths, duplicate tags, and
/// vector sections whose declared element counts contradict their sizes.
TEST(SnapshotDecode, HostileSectionHeadersAreRejected) {
  const auto craft = [](std::uint32_t kind, std::uint64_t declared_len,
                        const std::vector<std::uint8_t>& payload,
                        int copies) {
    io::ByteWriter body;
    for (int i = 0; i < copies; ++i) {
      body.put_u32(0x31474154);
      body.put_u32(kind);
      body.put_u64(declared_len);
      body.put_bytes(payload.data(), payload.size());
    }
    io::ByteWriter out;
    const char magic[4] = {'H', 'M', 'S', 'N'};
    out.put_bytes(magic, 4);
    out.put_u32(1);  // version
    out.put_u32(static_cast<std::uint32_t>(copies));
    out.put_u32(0);  // reserved
    out.put_u64(body.bytes().size());
    out.put_bytes(body.bytes().data(), body.bytes().size());
    const std::uint32_t crc =
        io::crc32(out.bytes().data(), out.bytes().size());
    out.put_u32(crc);
    return out.take();
  };

  {  // unknown kind 99 (CRC valid, structure hostile)
    const auto b = craft(99, 8, std::vector<std::uint8_t>(8, 0), 1);
    EXPECT_THROW(io::Snapshot::parse(b.data(), b.size()), CheckError);
  }
  {  // section declares more bytes than the payload holds
    const auto b = craft(io::Snapshot::kKindBytes, 1u << 20,
                         std::vector<std::uint8_t>(8, 0), 1);
    EXPECT_THROW(io::Snapshot::parse(b.data(), b.size()), CheckError);
  }
  {  // duplicate tags
    const auto b =
        craft(io::Snapshot::kKindBytes, 8, std::vector<std::uint8_t>(8, 0), 2);
    EXPECT_THROW(io::Snapshot::parse(b.data(), b.size()), CheckError);
  }
  {  // f64 vector claiming 2^56 elements in an 8-byte section: the parse
     // succeeds (bytes are opaque) but the typed getter must refuse to
     // allocate.
    io::ByteWriter lie;
    lie.put_u64(1ull << 56);
    const auto b = craft(io::Snapshot::kKindF64Vec, 8, lie.bytes(), 1);
    const io::Snapshot s = io::Snapshot::parse(b.data(), b.size());
    EXPECT_THROW(s.get_f64_vec(0x31474154), CheckError);
  }

  // Element counts whose byte size n * 8 wraps around 2^64 (2^61 * 8 ==
  // 0): the typed getters must throw CheckError, not length_error from a
  // vector sized by the hostile count.
  const std::uint64_t wrap = 1ull << 61;
  struct WrapCase {
    const char* name;
    std::uint32_t kind;
    std::vector<std::uint64_t> words;
  };
  const std::vector<WrapCase> wrapping = {
      {"f64 vec, n = 2^61", io::Snapshot::kKindF64Vec, {wrap}},
      {"f64 vec, n = 2^61 + 1", io::Snapshot::kKindF64Vec, {wrap + 1, 0}},
      {"i64 vec, n = 2^61", io::Snapshot::kKindI64Vec, {wrap}},
      {"i64 vec, n = 2^61 + 1", io::Snapshot::kKindI64Vec, {wrap + 1, 0}},
      {"f64 list, 2^61 rows", io::Snapshot::kKindF64VecList, {wrap}},
      {"f64 list, row n = 2^61", io::Snapshot::kKindF64VecList, {1, wrap}},
      {"f64 list, row n = 2^61 + 1", io::Snapshot::kKindF64VecList,
       {1, wrap + 1, 0}},
  };
  for (const WrapCase& c : wrapping) {
    io::ByteWriter payload;
    for (const std::uint64_t x : c.words) payload.put_u64(x);
    const auto b = craft(c.kind, payload.bytes().size(), payload.bytes(), 1);
    const io::Snapshot s = io::Snapshot::parse(b.data(), b.size());
    const auto get = [&] {
      if (c.kind == io::Snapshot::kKindF64Vec) {
        (void)s.get_f64_vec(0x31474154);
      } else if (c.kind == io::Snapshot::kKindI64Vec) {
        (void)s.get_i64_vec(0x31474154);
      } else {
        (void)s.get_f64_vec_list(0x31474154);
      }
    };
    EXPECT_THROW(get(), CheckError) << c.name;
  }
}

/// Checkpoint twin of the huge-length case: a corrupted HMCK length field
/// must be rejected against the real file size before any allocation.
TEST(SnapshotDecode, CheckpointHugeLengthFieldIsRejectedBeforeAllocating) {
  const std::string path = "/tmp/hm_snapshot_test_huge_len.bin";
  io::save_vector(path, {1.0, 2.0, 3.0});
  auto bytes = read_file(path);
  // Length lives at offset 8 (after 4B magic + 4B version), host-endian
  // u64 as written by save_vector.
  const std::uint64_t huge = 1ull << 60;
  std::memcpy(bytes.data() + 8, &huge, sizeof(huge));
  write_file(path, bytes);
  EXPECT_THROW(io::load_vector(path), CheckError);
}

// ---------------------------------------------------------------------
// (b) The durable store: naming, rotation, fallback, torn writes.

TEST(SnapshotStore, SaveLoadRoundTripAndRotation) {
  const std::string dir = fresh_dir("rotation");
  EXPECT_FALSE(io::load_latest_snapshot(dir).has_value());  // missing dir

  io::save_snapshot(dir, /*keep=*/2, /*round=*/2, sample_snapshot());
  io::save_snapshot(dir, 2, 4, sample_snapshot());
  io::save_snapshot(dir, 2, 6, sample_snapshot());

  // Pruned to the 2 newest.
  EXPECT_FALSE(fs::exists(dir + "/snapshot.00000002"));
  EXPECT_TRUE(fs::exists(dir + "/snapshot.00000004"));
  EXPECT_TRUE(fs::exists(dir + "/snapshot.00000006"));

  const auto loaded = io::load_latest_snapshot(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->round, 6);
  EXPECT_EQ(loaded->path, dir + "/snapshot.00000006");
  EXPECT_TRUE(loaded->rejected.empty());
  EXPECT_EQ(loaded->snapshot.get_u64(0x31474154), 42u);
}

TEST(SnapshotStore, ForeignFilesAreIgnored) {
  const std::string dir = fresh_dir("foreign");
  fs::create_directories(dir);
  write_file(dir + "/notes.txt", {'h', 'i'});
  write_file(dir + "/snapshot.abc", {'x'});       // non-numeric round
  write_file(dir + "/snapshot.00000009.tmp", {'x'});  // orphaned temp
  EXPECT_FALSE(io::load_latest_snapshot(dir).has_value());

  io::save_snapshot(dir, 2, 3, sample_snapshot());
  const auto loaded = io::load_latest_snapshot(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->round, 3);
  // The successful save swept the orphaned temp file.
  EXPECT_FALSE(fs::exists(dir + "/snapshot.00000009.tmp"));
}

/// A corrupt newest file must not mask the older good one.
TEST(SnapshotStore, CorruptNewestFallsBackToLastGood) {
  const std::string dir = fresh_dir("fallback");
  io::save_snapshot(dir, 2, 2, sample_snapshot());
  io::save_snapshot(dir, 2, 4, sample_snapshot());
  auto bytes = read_file(dir + "/snapshot.00000004");
  bytes[bytes.size() / 2] ^= 0x40;
  write_file(dir + "/snapshot.00000004", bytes);

  const auto loaded = io::load_latest_snapshot(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->round, 2);
  ASSERT_EQ(loaded->rejected.size(), 1u);
  EXPECT_NE(loaded->rejected[0].find("snapshot.00000004"), std::string::npos);
}

/// The nullopt miss report must separate "nothing written yet" (a benign
/// fresh start) from "candidates exist, all corrupt or torn" (a damaged
/// store). Both wordings are pinned: resume diagnostics quote them.
TEST(SnapshotStore, MissReportSeparatesFreshStartFromDamagedStore) {
  const std::string dir = fresh_dir("miss_report");
  const std::string fresh_msg =
      "no snapshot data yet under '" + dir + "' (fresh start)";

  // Missing directory: benign.
  io::LoadMiss miss;
  EXPECT_FALSE(io::load_latest_snapshot(dir, &miss).has_value());
  EXPECT_FALSE(miss.hard);
  EXPECT_EQ(miss.candidates, 0);
  EXPECT_EQ(miss.message, fresh_msg);

  // Existing but empty directory: still benign.
  fs::create_directories(dir);
  miss = {};
  EXPECT_FALSE(io::load_latest_snapshot(dir, &miss).has_value());
  EXPECT_FALSE(miss.hard);
  EXPECT_EQ(miss.message, fresh_msg);

  // Every candidate corrupt: hard miss, with the candidate count.
  io::save_snapshot(dir, /*keep=*/2, /*round=*/1, sample_snapshot());
  io::save_snapshot(dir, 2, 2, sample_snapshot());
  for (const char* name : {"/snapshot.00000001", "/snapshot.00000002"}) {
    auto bytes = read_file(dir + name);
    bytes[bytes.size() / 2] ^= 0x10;
    write_file(dir + name, bytes);
  }
  miss = {};
  EXPECT_FALSE(io::load_latest_snapshot(dir, &miss).has_value());
  EXPECT_TRUE(miss.hard);
  EXPECT_EQ(miss.candidates, 2);
  EXPECT_EQ(miss.message, "2 snapshot candidate(s) under '" + dir +
                              "', none valid (corrupt or torn)");
}

/// Kill the writer at every interesting byte offset, in both crash
/// modes. Invariant: the directory is never left unloadable — the
/// previous snapshot always survives and loads.
TEST(SnapshotStore, TornWriteAtAnyOffsetNeverLosesTheLastGood) {
  const io::Snapshot snap = sample_snapshot();
  const std::size_t total = snap.serialize().size();
  const std::vector<std::uint64_t> offsets = {
      0, 1, 3, 4, 15, 16, 23, 24, total / 2, total - 5, total - 1};

  for (const bool rename_anyway : {false, true}) {
    const std::string dir =
        fresh_dir(rename_anyway ? "torn_renamed" : "torn_tmp");
    io::save_snapshot(dir, /*keep=*/4, /*round=*/1, snap);

    for (const std::uint64_t off : offsets) {
      ASSERT_LT(off, total);
      {
        ScopedWriteFault fault({off, rename_anyway});
        EXPECT_THROW(io::save_snapshot(dir, 4, 2, snap),
                     io::SimulatedCrash)
            << "offset " << off;
      }
      const auto loaded = io::load_latest_snapshot(dir);
      ASSERT_TRUE(loaded.has_value())
          << "offset " << off << " rename=" << rename_anyway;
      EXPECT_EQ(loaded->round, 1) << "offset " << off;
      if (rename_anyway) {
        // The torn file made it into place; the loader must have seen,
        // rejected, and reported it.
        EXPECT_FALSE(loaded->rejected.empty()) << "offset " << off;
        std::error_code ec;
        fs::remove(dir + "/snapshot.00000002", ec);
      }
    }
    // With the hook gone the same write succeeds and becomes newest.
    io::save_snapshot(dir, 4, 2, snap);
    const auto loaded = io::load_latest_snapshot(dir);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->round, 2);
    EXPECT_TRUE(loaded->rejected.empty());
  }
}

// ---------------------------------------------------------------------
// (c) Kill-and-resume matrix. Every trainer is run straight (no
// snapshots), then killed after each crash point and resumed; the
// resumed output must be byte-identical — with and without an active
// FaultPlan (kReuseStale exercises the StaleStore sections).

constexpr index_t kEveryK = 2;

TrainOptions snap_opts(bool faulty) {
  TrainOptions o;
  o.rounds = 6;
  o.tau1 = 2;
  o.tau2 = 2;
  o.batch_size = 4;
  o.eta_w = 0.1;
  o.eta_p = 0.02;
  o.eval_every = 3;
  o.seed = 5;
  o.sampled_edges = 3;
  o.sampled_clients = 5;
  if (faulty) {
    o.fault.enabled = true;
    o.fault.client_dropout_prob = 0.25;
    o.fault.straggler_prob = 0.3;
    o.fault.edge_loss_prob = 0.2;
    o.on_fault = OnFault::kReuseStale;
  }
  return o;
}

MultiTrainOptions multi_snap_opts(bool faulty) {
  MultiTrainOptions o;
  o.rounds = 5;
  o.taus = {2, 2};
  o.batch_size = 4;
  o.eta_w = 0.1;
  o.eta_p = 0.02;
  o.eval_every = 3;
  o.seed = 5;
  o.sampled_areas = 3;
  if (faulty) {
    o.fault.enabled = true;
    o.fault.client_dropout_prob = 0.25;
    o.fault.straggler_prob = 0.3;
    o.fault.edge_loss_prob = 0.2;
    o.on_fault = OnFault::kReuseStale;
  }
  return o;
}

/// One row of the matrix: run under (snapshot policy, resume dir, fault
/// arm) and reduce the result. `rounds` drives the crash-point set.
struct Trainer {
  std::string name;
  index_t rounds;
  std::function<RunOutput(const io::SnapshotPolicy&, const std::string&,
                          bool)>
      run;
};

const data::FederatedDataset& shared_task() {
  static const data::FederatedDataset fed = heterogeneous_task(4, 2);
  return fed;
}

template <typename Opts>
Opts with_snapshots(Opts o, const io::SnapshotPolicy& policy,
                    const std::string& resume) {
  o.snapshot = policy;
  o.resume_from = resume;
  return o;
}

std::vector<Trainer> trainers() {
  std::vector<Trainer> out;
  out.push_back(
      {"fedavg", 6,
       [](const io::SnapshotPolicy& sp, const std::string& rf, bool faulty) {
         const auto& fed = shared_task();
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return output_of(train_fedavg(
             model, fed, with_snapshots(snap_opts(faulty), sp, rf)));
       }});
  out.push_back(
      {"hierfavg", 6,
       [](const io::SnapshotPolicy& sp, const std::string& rf, bool faulty) {
         const auto& fed = shared_task();
         const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return output_of(train_hierfavg(
             model, fed, topo, with_snapshots(snap_opts(faulty), sp, rf)));
       }});
  out.push_back(
      {"drfa", 6,
       [](const io::SnapshotPolicy& sp, const std::string& rf, bool faulty) {
         const auto& fed = shared_task();
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return output_of(train_drfa(
             model, fed, with_snapshots(snap_opts(faulty), sp, rf)));
       }});
  out.push_back(
      {"stochastic_afl", 6,
       [](const io::SnapshotPolicy& sp, const std::string& rf, bool faulty) {
         const auto& fed = shared_task();
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return output_of(train_stochastic_afl(
             model, fed, with_snapshots(snap_opts(faulty), sp, rf)));
       }});
  out.push_back(
      {"qffl", 6,
       [](const io::SnapshotPolicy& sp, const std::string& rf, bool faulty) {
         const auto& fed = shared_task();
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         // q-FFL takes no FaultPlan; the faulty arm just checks resume
         // stays bit-exact with the extra (ignored) spec set.
         return output_of(train_qffl(
             model, fed, with_snapshots(snap_opts(faulty), sp, rf),
             /*q=*/2.0));
       }});
  out.push_back(
      {"hierminimax", 6,
       [](const io::SnapshotPolicy& sp, const std::string& rf, bool faulty) {
         const auto& fed = shared_task();
         const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return output_of(train_hierminimax(
             model, fed, topo, with_snapshots(snap_opts(faulty), sp, rf)));
       }});
  out.push_back(
      {"hierminimax_multi", 5,
       [](const io::SnapshotPolicy& sp, const std::string& rf, bool faulty) {
         const auto& fed = shared_task();
         const sim::MultiTopology topo(
             {fed.num_edges(), fed.clients_per_edge});
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return output_of(train_hierminimax_multi(
             model, fed, topo,
             with_snapshots(multi_snap_opts(faulty), sp, rf)));
       }});
  out.push_back(
      {"hierfavg_multi", 5,
       [](const io::SnapshotPolicy& sp, const std::string& rf, bool faulty) {
         const auto& fed = shared_task();
         const sim::MultiTopology topo(
             {fed.num_edges(), fed.clients_per_edge});
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return output_of(train_hierfavg_multi(
             model, fed, topo,
             with_snapshots(multi_snap_opts(faulty), sp, rf)));
       }});
  return out;
}

TEST(SnapshotResume, KillAndResumeMatrixIsBitIdentical) {
  for (const auto& t : trainers()) {
    for (const bool faulty : {false, true}) {
      const RunOutput straight = t.run({}, "", faulty);
      // Crash points: before any snapshot exists (fresh-start resume),
      // right at the first snapshot, one past it, and near the end.
      const std::vector<index_t> crash_points = {0, kEveryK - 1, kEveryK,
                                                 t.rounds - 2};
      for (const index_t crash : crash_points) {
        const std::string label = t.name + (faulty ? "+fault" : "") +
                                  " crash_after=" + std::to_string(crash);
        const std::string dir =
            fresh_dir(t.name + (faulty ? "_fault_" : "_clean_") +
                      std::to_string(crash));
        io::SnapshotPolicy policy;
        policy.every_k_rounds = kEveryK;
        policy.dir = dir;
        policy.crash_after_round = crash;
        EXPECT_THROW(t.run(policy, "", faulty), io::SimulatedCrash) << label;

        policy.crash_after_round = -1;
        const RunOutput resumed = t.run(policy, dir, faulty);
        expect_same_output(straight, resumed, label);
      }
    }
  }
}

/// Resuming against a damaged store (candidates exist, none valid) must
/// fail loudly with the pinned diagnostic, not silently retrain from
/// round 0 — that would discard the progress the caller asked to resume.
TEST(SnapshotResume, DamagedStoreFailsLoudlyOnResume) {
  const std::string dir = fresh_dir("damaged_resume");
  io::save_snapshot(dir, /*keep=*/2, /*round=*/1, sample_snapshot());
  auto bytes = read_file(dir + "/snapshot.00000001");
  bytes[bytes.size() / 2] ^= 0x20;
  write_file(dir + "/snapshot.00000001", bytes);

  const auto& fed = shared_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  try {
    train_fedavg(model, fed,
                 with_snapshots(snap_opts(false), io::SnapshotPolicy{}, dir));
    FAIL() << "resume against a corrupt-only store should throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("none valid (corrupt or torn)"),
              std::string::npos)
        << e.what();
  }
}

/// Writing snapshots must not perturb the trajectory, and resuming from
/// a *completed* run's directory re-runs nothing new but still produces
/// the identical final state from the last snapshot.
TEST(SnapshotResume, SnapshottingDoesNotPerturbTheRun) {
  const auto all = trainers();
  const auto it = std::find_if(all.begin(), all.end(), [](const Trainer& t) {
    return t.name == "hierminimax";
  });
  ASSERT_NE(it, all.end());
  const Trainer& t = *it;
  const RunOutput straight = t.run({}, "", /*faulty=*/false);
  const std::string dir = fresh_dir("no_perturb");
  io::SnapshotPolicy policy;
  policy.every_k_rounds = kEveryK;
  policy.dir = dir;
  const RunOutput with_snaps = t.run(policy, "", false);
  expect_same_output(straight, with_snaps, "snapshots enabled");
  // The final snapshot equals the final round, so a resume runs zero
  // additional rounds and must reproduce the same output again.
  const RunOutput resumed = t.run(policy, dir, false);
  expect_same_output(straight, resumed, "resume from completed run");
}

TEST(SnapshotResume, WrongAlgorithmOrSeedIsRejected) {
  const auto& fed = shared_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const std::string dir = fresh_dir("mismatch");
  io::SnapshotPolicy policy;
  policy.every_k_rounds = kEveryK;
  policy.dir = dir;
  train_fedavg(model, fed, with_snapshots(snap_opts(false), policy, ""));

  // Same directory, different trainer: the algo id embedded in the
  // snapshot must fail the resume loudly.
  EXPECT_THROW(
      train_drfa(model, fed, with_snapshots(snap_opts(false), policy, dir)),
      CheckError);

  // Same trainer, different seed: resume would not be bit-exact.
  auto reseeded = with_snapshots(snap_opts(false), policy, dir);
  reseeded.seed = 6;
  EXPECT_THROW(train_fedavg(model, fed, reseeded), CheckError);
}

// ---------------------------------------------------------------------
// (d) CI smoke (SnapshotCrashReplay.*): the end-to-end story under
// ASan+UBSan — a good snapshot, a kill *mid-snapshot-write* leaving a
// torn file in place, a resume that rejects the torn file, degrades to
// the last-good snapshot, and finishes bit-identically.

TEST(SnapshotCrashReplay, HierMinimaxKilledMidWriteResumesBitIdentically) {
  const auto& fed = shared_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());

  const RunOutput straight =
      output_of(train_hierminimax(model, fed, topo, snap_opts(false)));

  const std::string dir = fresh_dir("smoke");
  io::SnapshotPolicy policy;
  policy.every_k_rounds = kEveryK;
  policy.dir = dir;

  // Life 1: dies right after snapshot.2 lands.
  {
    auto opts = with_snapshots(snap_opts(false), policy, "");
    opts.snapshot.crash_after_round = kEveryK - 1;
    EXPECT_THROW(train_hierminimax(model, fed, topo, opts),
                 io::SimulatedCrash);
    EXPECT_TRUE(fs::exists(dir + "/snapshot.00000002"));
  }
  // Life 2: resumes from round 2, then the *write* of snapshot.4 is
  // killed mid-stream and the torn file is renamed into place — the
  // worst case, where the newest file on disk is garbage.
  {
    ScopedWriteFault fault({/*fail_after_bytes=*/37, /*rename_anyway=*/true});
    EXPECT_THROW(train_hierminimax(
                     model, fed, topo,
                     with_snapshots(snap_opts(false), policy, dir)),
                 io::SimulatedCrash);
    EXPECT_TRUE(fs::exists(dir + "/snapshot.00000004"));  // torn
  }
  // Life 3: the resume must reject the torn snapshot.4, fall back to
  // snapshot.2, and still finish byte-identical to the straight run.
  const RunOutput resumed = output_of(train_hierminimax(
      model, fed, topo, with_snapshots(snap_opts(false), policy, dir)));
  expect_same_output(straight, resumed, "killed mid-write");
}

// ---------------------------------------------------------------------
// (e) Codec byte compatibility. The fast paths must write and accept
// exactly the bytes the original bytewise codec did, so every snapshot
// file and frame in the wild stays loadable.

/// The textbook CRC32 (reflected 0xEDB88320): each byte, one bit at a
/// time, with no tables.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(SnapshotCodec, Crc32KnownAnswer) {
  const char* check = "123456789";
  EXPECT_EQ(io::crc32(reinterpret_cast<const std::uint8_t*>(check), 9),
            0xCBF43926u);
  EXPECT_EQ(io::crc32(nullptr, 0), 0u);
}

/// Every length 0..1024 at every start offset 0..7, so each tail length
/// and each alignment of the eight-byte step is covered.
TEST(SnapshotCodec, Crc32MatchesBytewiseReference) {
  std::vector<std::uint8_t> buf(1024 + 8);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& b : buf) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<std::uint8_t>(x >> 56);
  }
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t n = 0; n <= 1024; ++n) {
      ASSERT_EQ(io::crc32(buf.data() + off, n),
                reference_crc32(buf.data() + off, n))
          << "offset " << off << ", length " << n;
    }
  }
}

/// put_f64s / read_f64s (one memcpy on a little-endian host) against
/// put_f64 / f64 per value (the portable path, and the big-endian
/// fallback), on bit patterns no arithmetic would produce.
TEST(SnapshotCodec, BulkF64MatchesPerValuePath) {
  std::vector<std::uint64_t> patterns = {
      0x0000000000000000ull,  // +0
      0x8000000000000000ull,  // -0
      0x0000000000000001ull,  // smallest subnormal
      0x7FF0000000000000ull,  // +inf
      0xFFF0000000000000ull,  // -inf
      0x7FF8000000000001ull,  // quiet NaN with payload
      0x7FF0000000000001ull,  // signalling NaN
      0x0123456789ABCDEFull,
  };
  std::uint64_t x = 1;
  for (int i = 0; i < 57; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    patterns.push_back(x);
  }
  std::vector<double> v(patterns.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::memcpy(&v[i], &patterns[i], sizeof(double));
  }

  io::ByteWriter one, bulk;
  one.put_u32(0xA5A5A5A5u);  // odd start: the run is not 8-byte aligned
  bulk.put_u32(0xA5A5A5A5u);
  for (const double d : v) one.put_f64(d);
  bulk.put_f64s(v.data(), v.size());
  ASSERT_EQ(bulk.bytes(), one.bytes());

  const auto& bytes = one.bytes();
  io::ByteReader per_value(bytes.data(), bytes.size());
  io::ByteReader at_once(bytes.data(), bytes.size());
  per_value.u32();
  at_once.u32();
  std::vector<double> got(v.size());
  at_once.read_f64s(got.data(), got.size());
  EXPECT_EQ(at_once.remaining(), 0u);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(bits(got[i]), patterns[i]) << i;
    EXPECT_EQ(bits(per_value.f64()), patterns[i]) << i;
  }

  io::ByteReader short_read(bytes.data(), bytes.size());
  short_read.u32();
  std::vector<double> one_more(v.size() + 1);
  EXPECT_THROW(short_read.read_f64s(one_more.data(), one_more.size()),
               CheckError);
}

/// The serialized bytes of pinned_codec_snapshot(), and of the same
/// snapshot laid out field by field from the format in snapshot.hpp: the
/// size and CRC are the values the bytewise codec produced.
TEST(SnapshotCodec, SerializedBytesArePinned) {
  const std::vector<std::uint8_t> bytes = pinned_codec_snapshot().serialize();
  ASSERT_EQ(bytes.size(), 16183u);
  io::ByteReader tail(bytes.data() + bytes.size() - 4, 4);
  EXPECT_EQ(tail.u32(), 0x077957d8u);

  std::vector<double> w(1000);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = 0.25 * static_cast<double>(i) - 3.0;
  }
  io::ByteWriter body;
  const auto section = [&](std::uint32_t tag, std::uint32_t kind,
                           std::uint64_t len) {
    body.put_u32(tag);
    body.put_u32(kind);
    body.put_u64(len);
  };
  section(1, io::Snapshot::kKindU64, 8);
  body.put_u64(9);
  section(2, io::Snapshot::kKindF64Vec, 8 + 8 * w.size());
  body.put_u64(w.size());
  for (const double d : w) body.put_f64(d);
  section(3, io::Snapshot::kKindF64VecList, 8 + 8 + 8 * w.size() + 8);
  body.put_u64(2);
  body.put_u64(w.size());
  for (const double d : w) body.put_f64(d);
  body.put_u64(0);
  section(4, io::Snapshot::kKindI64Vec, 8 + 3 * 8);
  body.put_u64(3);
  for (const std::int64_t i : {-1, 0, 7}) body.put_i64(i);
  section(5, io::Snapshot::kKindBytes, 3);
  body.put_bytes("\x01\x02\x03", 3);
  io::ByteWriter file;
  file.put_bytes("HMSN", 4);
  file.put_u32(1);  // version
  file.put_u32(5);  // section count
  file.put_u32(0);  // reserved
  file.put_u64(body.bytes().size());
  file.put_bytes(body.bytes().data(), body.bytes().size());
  file.put_u32(io::crc32(file.bytes().data(), file.bytes().size()));
  EXPECT_EQ(file.bytes(), bytes);

  // A file in this layout loads, value for value.
  const io::Snapshot r =
      io::Snapshot::parse(file.bytes().data(), file.bytes().size());
  EXPECT_EQ(r.get_u64(1), 9u);
  EXPECT_EQ(r.get_f64_vec(2), w);
  EXPECT_EQ(r.get_f64_vec_list(3),
            (std::vector<std::vector<scalar_t>>{w, {}}));
  EXPECT_EQ(r.get_i64_vec(4), (std::vector<std::int64_t>{-1, 0, 7}));
  EXPECT_EQ(r.get_bytes(5), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.serialized_size(), bytes.size());
}

}  // namespace
}  // namespace hm::algo
