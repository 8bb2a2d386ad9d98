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
//       byte-identical to the uninterrupted run, and the options record:
//       a resume with any recorded option changed is refused by name,
//   (d) the CI smoke target (SnapshotCrashReplay): HierMinimax killed
//       mid-snapshot-write, resumed past the torn file, bit-compared,
//   (e) codec byte compatibility: the slicing-by-8 CRC32 against a
//       bytewise reference, the bulk f64 path against the per-value one,
//       and a snapshot's bytes pinned to what the bytewise codec wrote.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "algo/drfa.hpp"
#include "algo/fedavg.hpp"
#include "algo/hierfavg.hpp"
#include "algo/hierminimax.hpp"
#include "algo/qffl.hpp"
#include "algo/trainer_common.hpp"
#include "core/check.hpp"
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
using testing_util::deep_task;
using testing_util::expect_same_output;
using testing_util::output_of;
using testing_util::pinned_codec_snapshot;
using testing_util::RunOutput;
using testing_util::shared_task;
using testing_util::test_pool;
using testing_util::with_taus;

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
TEST(SnapshotStore, WriterWritesWhatSaveSnapshotWritesAndRethrows) {
  // The writer encodes with SnapshotEncoder into a reused buffer, which
  // must give save_snapshot's bytes, and its thread's errors surface on
  // the caller at the next wait().
  const auto fill = [](io::SnapshotEncoder& enc) {
    enc.put_u64(0x31474154, 42);
    enc.put_f64_vec(0x32474154, {1.5, -0.0, 2e-308, 3.14159});
    enc.put_f64_vec_list(0x33474154, {{1.0, 2.0}, {}, {7.0}});
    enc.put_i64_vec(0x34474154, {-3, 0, 1ll << 40});
    enc.put_bytes(0x35474154, {0xde, 0xad, 0xbe, 0xef});
  };
  const std::string ref = fresh_dir("writer_ref");
  const std::string dir = fresh_dir("writer");
  io::save_snapshot(ref, /*keep=*/2, /*round=*/1, sample_snapshot());
  io::SnapshotWriter writer(dir, /*keep=*/2);
  for (const index_t round : {1, 2, 3}) writer.save(round, fill);
  writer.wait();
  const auto want = read_file(ref + "/snapshot.00000001");
  EXPECT_EQ(read_file(dir + "/snapshot.00000003"), want);
  EXPECT_FALSE(fs::exists(dir + "/snapshot.00000001"));  // pruned, keep 2
  {
    ScopedWriteFault fault({7, /*rename_anyway=*/false});
    writer.save(4, fill);
    EXPECT_THROW(writer.wait(), io::SimulatedCrash);
  }
  writer.wait();  // the error was collected once
  const auto loaded = io::load_latest_snapshot(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->round, 3);
}

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

TrainOptions deep_snap_opts(bool faulty) {
  return with_taus(snap_opts(faulty), {2, 2, 2});
}

/// One row of the matrix: run under (snapshot policy, resume dir, fault
/// arm) and reduce the result. `rounds` drives the crash-point set; a
/// trainer that rejects a fault plan runs the clean arm only.
struct Trainer {
  std::string name;
  index_t rounds;
  std::function<RunOutput(const io::SnapshotPolicy&, const std::string&,
                          bool)>
      run;
  bool takes_faults = true;
};

TrainOptions with_snapshots(TrainOptions o, const io::SnapshotPolicy& policy,
                            const std::string& resume) {
  o.snapshot = policy;
  o.resume_from = resume;
  return o;
}

/// The CheckError message `run` throws, or "" when it returns normally.
std::string check_error_of(const std::function<void()>& run) {
  try {
    run();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

std::vector<Trainer> trainers() {
  std::vector<Trainer> out;
  out.push_back(
      {"fedavg", 6,
       [](const io::SnapshotPolicy& sp, const std::string& rf, bool faulty) {
         const auto& fed = shared_task();
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return output_of(train_fedavg(
             model, fed, with_snapshots(snap_opts(faulty), sp, rf),
             test_pool()));
       }});
  out.push_back(
      {"hierfavg", 6,
       [](const io::SnapshotPolicy& sp, const std::string& rf, bool faulty) {
         const auto& fed = shared_task();
         const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return output_of(train_hierfavg(
             model, fed, topo, with_snapshots(snap_opts(faulty), sp, rf),
             test_pool()));
       }});
  out.push_back(
      {"drfa", 6,
       [](const io::SnapshotPolicy& sp, const std::string& rf, bool faulty) {
         const auto& fed = shared_task();
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return output_of(train_drfa(
             model, fed, with_snapshots(snap_opts(faulty), sp, rf),
             test_pool()));
       }});
  out.push_back(
      {"stochastic_afl", 6,
       [](const io::SnapshotPolicy& sp, const std::string& rf, bool faulty) {
         const auto& fed = shared_task();
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return output_of(train_stochastic_afl(
             model, fed, with_snapshots(snap_opts(faulty), sp, rf),
             test_pool()));
       }});
  out.push_back(
      {"qffl", 6,
       [](const io::SnapshotPolicy& sp, const std::string& rf, bool faulty) {
         const auto& fed = shared_task();
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         TrainOptions o = with_snapshots(snap_opts(faulty), sp, rf);
         o.q = 2;
         return output_of(train_qffl(model, fed, o, test_pool()));
       },
       /*takes_faults=*/false});
  out.push_back(
      {"hierminimax", 6,
       [](const io::SnapshotPolicy& sp, const std::string& rf, bool faulty) {
         const auto& fed = shared_task();
         const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return output_of(train_hierminimax(
             model, fed, topo, with_snapshots(snap_opts(faulty), sp, rf),
             test_pool()));
       }});
  out.push_back(
      {"hierminimax_d3", 6,
       [](const io::SnapshotPolicy& sp, const std::string& rf, bool faulty) {
         const auto& fed = deep_task();
         const sim::MultiTopology topo({4, 2, 2});
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return output_of(train_hierminimax(
             model, fed, topo,
             with_snapshots(deep_snap_opts(faulty), sp, rf), test_pool()));
       }});
  out.push_back(
      {"hierfavg_d3", 6,
       [](const io::SnapshotPolicy& sp, const std::string& rf, bool faulty) {
         const auto& fed = deep_task();
         const sim::MultiTopology topo({4, 2, 2});
         const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
         return output_of(train_hierfavg(
             model, fed, topo,
             with_snapshots(deep_snap_opts(faulty), sp, rf), test_pool()));
       }});
  return out;
}

TEST(SnapshotResume, KillAndResumeMatrixIsBitIdentical) {
  for (const auto& t : trainers()) {
    for (const bool faulty : {false, true}) {
      if (faulty && !t.takes_faults) continue;
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
                 with_snapshots(snap_opts(false), io::SnapshotPolicy{}, dir),
                 test_pool());
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
  train_fedavg(model, fed, with_snapshots(snap_opts(false), policy, ""),
               test_pool());

  // Same directory, different trainer: the algo id embedded in the
  // snapshot must fail the resume loudly.
  EXPECT_THROW(
      train_drfa(model, fed, with_snapshots(snap_opts(false), policy, dir),
                 test_pool()),
      CheckError);

  // Same trainer, different seed: resume would not be bit-exact.
  auto reseeded = with_snapshots(snap_opts(false), policy, dir);
  reseeded.seed = 6;
  std::string msg =
      check_error_of([&] { train_fedavg(model, fed, reseeded, test_pool()); });
  EXPECT_NE(msg.find("seed: snapshot 5, this run 6"), std::string::npos)
      << msg;

  // Same trainer and seed, another tau1: the two-layer trainers' one
  // schedule field is the record's taus row.
  auto retimed = with_snapshots(snap_opts(false), policy, dir);
  retimed.tau1 = 3;
  msg = check_error_of([&] { train_fedavg(model, fed, retimed, test_pool()); });
  EXPECT_NE(msg.find("taus: snapshot {2}, this run {3}"), std::string::npos)
      << msg;
}

/// The L-level runs once wrote their own trainer ids (5: HierMinimax,
/// 6: HierFAVG). Every depth now resumes under ids 4 and 2, so such a
/// snapshot is refused by the algorithm-id check, which names its id.
TEST(SnapshotResume, RetiredMultiLevelAlgoIdsAreRefused) {
  const auto& fed = deep_task();
  const sim::MultiTopology topo({4, 2, 2});
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  for (const std::uint64_t retired : {5, 6}) {
    const std::string dir = fresh_dir("retired_" + std::to_string(retired));
    rng::Xoshiro256 root(5);
    std::vector<scalar_t> w(static_cast<std::size_t>(model.num_params()), 0);
    metrics::TrainingHistory history;
    detail::RunState st;
    st.algo_id = retired;
    st.root = &root;
    st.w = &w;
    st.history = &history;
    io::save_snapshot(dir, 2, 1, detail::make_run_snapshot(st, 1));
    const auto opts =
        with_snapshots(deep_snap_opts(false), io::SnapshotPolicy{}, dir);
    try {
      if (retired == 5) {
        train_hierminimax(model, fed, topo, opts, test_pool());
      } else {
        train_hierfavg(model, fed, topo, opts, test_pool());
      }
      FAIL() << "resumed a snapshot of retired algorithm id " << retired;
    } catch (const CheckError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("algorithm id " + std::to_string(retired)),
                std::string::npos)
          << msg;
    }
  }
}

/// The tree and taus shape every later round without changing any
/// section's size, so a snapshot records them and a resume into another
/// tree or other taus is refused with both named.
TEST(SnapshotResume, DifferentTreeOrTausIsRejected) {
  const auto& fed = deep_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const std::string dir = fresh_dir("tree_mismatch");
  io::SnapshotPolicy policy;
  policy.every_k_rounds = kEveryK;
  policy.dir = dir;
  policy.crash_after_round = 3;
  EXPECT_THROW(
      train_hierminimax(model, fed, sim::MultiTopology({4, 2, 2}),
                        with_snapshots(deep_snap_opts(false), policy, ""),
                        test_pool()),
      io::SimulatedCrash);

  // Each refusal names both schedules and the first differing row.
  const auto expect_refused = [&](const sim::MultiTopology& topo,
                                  const TrainOptions& o,
                                  const std::string& run_tree,
                                  const std::string& first_difference) {
    const std::string msg = check_error_of([&] {
      train_hierminimax(model, fed, topo,
                        with_snapshots(o, io::SnapshotPolicy{}, dir),
                        test_pool());
    });
    for (const std::string& want :
         {std::string("tree {4,2,2} taus {2,2,2}"), run_tree,
          first_difference}) {
      EXPECT_NE(msg.find(want), std::string::npos)
          << "missing '" << want << "' in: " << msg;
    }
  };
  // Depth 3 into depth 2 over the same areas and leaves.
  auto flat = snap_opts(false);
  flat.tau2 = 5;
  flat.tau1 = 3;
  expect_refused(sim::HierTopology(4, 4), flat, "tree {4,4} taus {5,3}",
                 "tree: snapshot {4,2,2}, this run {4,4}");
  // Same tree, other taus.
  expect_refused(sim::MultiTopology({4, 2, 2}),
                 with_taus(snap_opts(false), {2, 2, 3}),
                 "tree {4,2,2} taus {2,2,3}",
                 "taus: snapshot {2,2,2}, this run {2,2,3}");
  // Same tree and taus, another option: the schedules agree and the
  // differing row is named.
  auto steeper = deep_snap_opts(false);
  steeper.eta_p *= 2;
  expect_refused(sim::MultiTopology({4, 2, 2}), steeper,
                 "this run uses tree {4,2,2} taus {2,2,2}",
                 "eta_p: snapshot 0.02, this run 0.04");
  // The matching run resumes.
  EXPECT_NO_THROW(train_hierminimax(
      model, fed, sim::MultiTopology({4, 2, 2}),
      with_snapshots(deep_snap_opts(false), io::SnapshotPolicy{}, dir),
      test_pool()));
}

/// A depth-3 HierMinimax run that crashed after round 3, resumed with
/// eta_w x10, batch_size + 3 and quantize_bits 4, would continue a
/// trajectory neither configuration produces. The resume is refused and
/// names the first differing option, eta_w, with both values.
TEST(SnapshotResume, OtherOptionsAreRefusedNamingTheFirstDifference) {
  const auto& fed = deep_task();
  const sim::MultiTopology topo({4, 2, 2});
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const std::string dir = fresh_dir("options_mismatch");
  io::SnapshotPolicy policy;
  policy.every_k_rounds = kEveryK;
  policy.dir = dir;
  policy.crash_after_round = 3;
  EXPECT_THROW(
      train_hierminimax(model, fed, topo,
                        with_snapshots(deep_snap_opts(false), policy, ""),
                        test_pool()),
      io::SimulatedCrash);

  auto changed =
      with_snapshots(deep_snap_opts(false), io::SnapshotPolicy{}, dir);
  changed.eta_w *= 10;
  changed.batch_size += 3;
  changed.quantize_bits = 4;
  const std::string msg = check_error_of(
      [&] { train_hierminimax(model, fed, topo, changed, test_pool()); });
  EXPECT_NE(msg.find("eta_w: snapshot 0.1, this run 1 "), std::string::npos)
      << msg;

  // q-FFL's exponent is an option like any other: a q = 2 run does not
  // resume under q = 5.
  const auto& flat = shared_task();
  const nn::SoftmaxRegression flat_model(flat.dim(), flat.num_classes());
  const std::string qdir = fresh_dir("options_mismatch_q");
  policy.dir = qdir;
  TrainOptions q2 = with_snapshots(snap_opts(false), policy, "");
  q2.q = 2;
  EXPECT_THROW(train_qffl(flat_model, flat, q2, test_pool()),
               io::SimulatedCrash);
  TrainOptions q5 = with_snapshots(snap_opts(false), io::SnapshotPolicy{},
                                   qdir);
  q5.q = 5;
  const std::string qmsg = check_error_of(
      [&] { train_qffl(flat_model, flat, q5, test_pool()); });
  EXPECT_NE(qmsg.find("q: snapshot 2, this run 5 "), std::string::npos)
      << qmsg;
}

/// A snapshot written before the options record has no OPTS section, so
/// nothing can show that the resume is bit-exact: it is refused by name.
TEST(SnapshotResume, SnapshotWithoutOptionsRecordIsRefused) {
  const auto& fed = shared_task();
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const std::string dir = fresh_dir("no_opts");
  rng::Xoshiro256 root(5);
  std::vector<scalar_t> w(static_cast<std::size_t>(model.num_params()), 0);
  metrics::TrainingHistory history;
  detail::RunState st;  // no options: make_run_snapshot writes no OPTS
  st.algo_id = detail::kAlgoFedAvg;
  st.root = &root;
  st.w = &w;
  st.history = &history;
  io::save_snapshot(dir, 2, 1, detail::make_run_snapshot(st, 1));
  const std::string msg = check_error_of([&] {
    train_fedavg(model, fed,
                 with_snapshots(snap_opts(false), io::SnapshotPolicy{}, dir),
                 test_pool());
  });
  EXPECT_NE(msg.find("has no OPTS section"), std::string::npos) << msg;
}

/// Each row of the record renders one field: perturbing that field
/// changes that row's value and no other row's, and the exempt fields
/// change nothing. The list below must name every row.
TEST(OptionsRecord, PerturbingAFieldChangesOnlyItsRow) {
  using Perturb = void (*)(TrainOptions&);
  const std::vector<std::pair<std::string, Perturb>> rows = {
      {"seed", [](TrainOptions& o) { o.seed += 1; }},
      {"taus", [](TrainOptions& o) { o.tau1 += 1; }},
      {"eta_w",  // one ulp: shortest round-trip tells the two apart
       [](TrainOptions& o) { o.eta_w = std::nextafter(o.eta_w, 1.0); }},
      {"eta_p", [](TrainOptions& o) { o.eta_p *= 2; }},
      {"sampled_edges", [](TrainOptions& o) { o.sampled_edges += 1; }},
      {"p_set.lo", [](TrainOptions& o) { o.p_set.lo = 0.01; }},
      {"p_set.hi", [](TrainOptions& o) { o.p_set.hi = 0.9; }},
      {"rounds", [](TrainOptions& o) { o.rounds += 1; }},
      {"batch_size", [](TrainOptions& o) { o.batch_size += 1; }},
      {"sampled_clients", [](TrainOptions& o) { o.sampled_clients += 1; }},
      {"w_radius", [](TrainOptions& o) { o.w_radius = 3; }},
      {"weight_decay", [](TrainOptions& o) { o.weight_decay = 1e-4; }},
      {"prox_mu", [](TrainOptions& o) { o.prox_mu = 0.1; }},
      {"eval_every", [](TrainOptions& o) { o.eval_every += 1; }},
      {"loss_est_batch", [](TrainOptions& o) { o.loss_est_batch += 1; }},
      {"quantize_bits", [](TrainOptions& o) { o.quantize_bits = 8; }},
      {"use_checkpoint", [](TrainOptions& o) { o.use_checkpoint = false; }},
      {"q", [](TrainOptions& o) { o.q = 2; }},
      {"fault.enabled", [](TrainOptions& o) { o.fault.enabled = true; }},
      {"fault.client_dropout_prob",
       [](TrainOptions& o) { o.fault.client_dropout_prob = 0.1; }},
      {"fault.straggler_prob",
       [](TrainOptions& o) { o.fault.straggler_prob = 0.1; }},
      {"fault.straggler_mult_mean",
       [](TrainOptions& o) { o.fault.straggler_mult_mean = 2; }},
      {"fault.edge_loss_prob",
       [](TrainOptions& o) { o.fault.edge_loss_prob = 0.1; }},
      {"fault.max_retries", [](TrainOptions& o) { o.fault.max_retries += 1; }},
      {"fault.client_crash_round",
       [](TrainOptions& o) { o.fault.client_crash_round = {3}; }},
      {"fault.edge_crash_round",
       [](TrainOptions& o) { o.fault.edge_crash_round = {2}; }},
      {"fault.attack",
       [](TrainOptions& o) { o.fault.attack = sim::AttackKind::kSignFlip; }},
      {"fault.attack_prob", [](TrainOptions& o) { o.fault.attack_prob = 0.1; }},
      {"fault.attack_scale",
       [](TrainOptions& o) { o.fault.attack_scale = 2; }},
      {"fault.churn_prob", [](TrainOptions& o) { o.fault.churn_prob = 0.1; }},
      {"fault.churn_dwell", [](TrainOptions& o) { o.fault.churn_dwell = 2; }},
      {"fault.seed", [](TrainOptions& o) { o.fault.seed += 1; }},
      {"on_fault", [](TrainOptions& o) { o.on_fault = OnFault::kSkipRound; }},
      {"stale_decay", [](TrainOptions& o) { o.stale_decay = 0.25; }},
      {"aggregate", [](TrainOptions& o) { o.aggregate = Aggregate::kMedian; }},
      {"trim_frac", [](TrainOptions& o) { o.trim_frac = 0.1; }},
  };
  const TrainOptions base = snap_opts(false);
  const std::vector<index_t> tree = {4, 4};
  const OptionsRecord want = options_record(base, tree);

  // The list covers the record, row for row; "tree" is perturbed below.
  std::vector<std::string> names = {"tree"};
  for (const auto& [name, perturb] : rows) names.push_back(name);
  std::vector<std::string> record_names;
  for (const auto& [name, value] : want) record_names.push_back(name);
  std::sort(names.begin(), names.end());
  std::sort(record_names.begin(), record_names.end());
  EXPECT_EQ(names, record_names);

  const auto expect_only = [&](const OptionsRecord& got,
                               const std::string& changed) {
    ASSERT_EQ(got.size(), want.size()) << changed;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].first, want[i].first);
      EXPECT_EQ(got[i].second != want[i].second, got[i].first == changed)
          << "perturbing " << changed << ": row " << got[i].first << " '"
          << want[i].second << "' -> '" << got[i].second << "'";
    }
  };
  for (const auto& [name, perturb] : rows) {
    TrainOptions o = base;
    perturb(o);
    expect_only(options_record(o, tree), name);
  }
  expect_only(options_record(base, {4, 5}), "tree");

  TrainOptions exempt = base;
  exempt.snapshot.every_k_rounds = 5;
  exempt.snapshot.dir = "elsewhere";
  exempt.resume_from = "elsewhere";
  exempt.transport.kind = net::TransportKind::kSocket;
  exempt.transport.workers = 3;
  expect_only(options_record(exempt, tree), "");
}

/// Overwrite element `i` of f64-vector section `tag` inside a serialized
/// snapshot and re-seal the trailing CRC, so the file still validates and
/// only resume's content checks can catch the damage.
void poke_f64(std::vector<std::uint8_t>& bytes, std::uint32_t tag,
              std::size_t i, double v) {
  constexpr std::size_t kHeader = 24;  // magic, version, count, rsvd, len
  constexpr std::size_t kSectionHeader = 16;  // tag, kind, payload length
  std::size_t pos = kHeader;
  while (pos + kSectionHeader <= bytes.size() - 4) {
    io::ByteReader r(bytes.data() + pos, kSectionHeader);
    const std::uint32_t t = r.u32();
    const std::uint32_t kind = r.u32();
    const std::uint64_t len = r.u64();
    if (t == tag) {
      ASSERT_EQ(kind, io::Snapshot::kKindF64Vec);
      ASSERT_LT(8 + 8 * i, len);
      io::ByteWriter w;
      w.put_f64(v);
      std::memcpy(bytes.data() + pos + kSectionHeader + 8 + 8 * i,
                  w.bytes().data(), 8);
      io::ByteWriter crc;
      crc.put_u32(io::crc32(bytes.data(), bytes.size() - 4));
      std::memcpy(bytes.data() + bytes.size() - 4, crc.bytes().data(), 4);
      return;
    }
    pos += kSectionHeader + len;
  }
  FAIL() << "section " << tag << " not found";
}

/// A snapshot whose CRC is valid but whose state holds NaN or Inf must not
/// be resumed: the failure names the file, the section, and the index.
TEST(SnapshotResume, NonFiniteStateIsRejectedWithSectionAndIndex) {
  const auto& fed = shared_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  const std::string dir = fresh_dir("non_finite");
  io::SnapshotPolicy policy;
  policy.every_k_rounds = kEveryK;
  policy.dir = dir;
  policy.keep = 1;
  auto opts = with_snapshots(snap_opts(false), policy, "");
  opts.rounds = kEveryK;
  train_hierminimax(model, fed, topo, opts, test_pool());
  const std::string path = dir + "/snapshot.00000002";
  const auto clean = read_file(path);
  ASSERT_FALSE(clean.empty());

  const auto expect_rejected = [&](const std::vector<std::uint8_t>& bytes,
                                   const std::string& section,
                                   const std::string& index,
                                   const std::string& value) {
    write_file(path, bytes);
    opts.resume_from = dir;
    try {
      train_hierminimax(model, fed, topo, opts, test_pool());
      FAIL() << "resume from a non-finite '" << section << "' should throw";
    } catch (const CheckError& e) {
      const std::string msg = e.what();
      for (const std::string& want :
           {path, "section '" + section + "'", "at index " + index, value}) {
        EXPECT_NE(msg.find(want), std::string::npos)
            << "missing '" << want << "' in: " << msg;
      }
    }
  };

  auto bytes = clean;
  poke_f64(bytes, detail::kSnapP, 1, std::nan(""));
  poke_f64(bytes, detail::kSnapW, 3,
           std::numeric_limits<double>::infinity());
  // `w` is restored first, so its Inf is the one reported.
  expect_rejected(bytes, "w", "3", "inf");

  bytes = clean;
  poke_f64(bytes, detail::kSnapP, 1, std::nan(""));
  expect_rejected(bytes, "p", "1", "nan");

  // The untouched snapshot still resumes.
  write_file(path, clean);
  EXPECT_NO_THROW(train_hierminimax(model, fed, topo, opts, test_pool()));
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
      output_of(train_hierminimax(model, fed, topo, snap_opts(false),
                                  test_pool()));

  const std::string dir = fresh_dir("smoke");
  io::SnapshotPolicy policy;
  policy.every_k_rounds = kEveryK;
  policy.dir = dir;

  // Life 1: dies right after snapshot.2 lands.
  {
    auto opts = with_snapshots(snap_opts(false), policy, "");
    opts.snapshot.crash_after_round = kEveryK - 1;
    EXPECT_THROW(train_hierminimax(model, fed, topo, opts, test_pool()),
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
                     with_snapshots(snap_opts(false), policy, dir),
                     test_pool()),
                 io::SimulatedCrash);
    EXPECT_TRUE(fs::exists(dir + "/snapshot.00000004"));  // torn
  }
  // Life 3: the resume must reject the torn snapshot.4, fall back to
  // snapshot.2, and still finish byte-identical to the straight run.
  const RunOutput resumed = output_of(train_hierminimax(
      model, fed, topo, with_snapshots(snap_opts(false), policy, dir),
      test_pool()));
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
/// The COMM section's layout, pinned with a distinct value per field:
/// the ten link counters in order as u64, then each link's fault stats
/// (five u64 counters, extra_rtts as f64), client-edge first. A resume
/// reads every field back.
TEST(SnapshotCodec, CommSectionBytesArePinned) {
  sim::CommStats c;
  c.client_edge_rounds = 1;
  c.edge_cloud_rounds = 2;
  c.client_edge_models_up = 3;
  c.client_edge_models_down = 4;
  c.edge_cloud_models_up = 5;
  c.edge_cloud_models_down = 6;
  c.client_edge_scalars = 7;
  c.edge_cloud_scalars = 8;
  c.client_edge_bytes = 9;
  c.edge_cloud_bytes = 10;
  c.client_edge_fault = {11, 12, 13, 14, 15, 16.5};
  c.edge_cloud_fault = {17, 18, 19, 20, 21, 22.5};
  io::ByteWriter want;
  for (std::uint64_t v = 1; v <= 15; ++v) want.put_u64(v);
  want.put_f64(16.5);
  for (std::uint64_t v = 17; v <= 21; ++v) want.put_u64(v);
  want.put_f64(22.5);

  rng::Xoshiro256 root(5);
  std::vector<scalar_t> w(3, 0);
  metrics::TrainingHistory history;
  detail::RunState st;
  st.algo_id = detail::kAlgoFedAvg;
  st.options = options_record(TrainOptions{}, {8});
  st.root = &root;
  st.w = &w;
  st.comm = &c;
  st.history = &history;
  const io::Snapshot s = detail::make_run_snapshot(st, 1);
  EXPECT_EQ(s.get_bytes(detail::kSnapComm), want.bytes());

  const std::string dir = fresh_dir("comm_pin");
  io::save_snapshot(dir, 2, 1, s);
  sim::CommStats back;
  metrics::TrainingHistory back_history;
  st.comm = &back;
  st.history = &back_history;
  EXPECT_EQ(detail::resume_round(dir, st), 1);
  EXPECT_EQ(detail::make_run_snapshot(st, 1).get_bytes(detail::kSnapComm),
            want.bytes());
}

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
