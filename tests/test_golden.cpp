// Golden-trajectory regression test and determinism matrix. A short
// seeded run of every trainer (the rows of testing_util::trainer_table)
// is pinned to checked-in exact bit patterns: per-record global loss,
// the final and time-averaged minimax weights p, bit-hashes of the final
// and averaged model w and of every history record, and every CommStats
// counter. The degraded rows run the fault, stale-store, robust-combiner
// and checkpoint-ablation paths of both round loops. Any change to
// initialization, RNG stream layout, reduction order, or aggregation
// semantics shows up here as a bit difference with a readable hex diff.
//
// Every row must reproduce its pins in every cell of an all-pairs
// covering set over the axes DESIGN.md §6 says a trajectory does not
// depend on: pool {1, 4 threads}; transport {inproc, loopback, socket
// with 3 workers}, for the hierarchical rows (the two-layer trainers run
// in-proc only); obs {idle, armed}; and {straight, killed after round 1
// and resumed}. All cells run in one process in a fixed shuffled order,
// so state that leaks from one run into the next shows up too; every
// socket cell must leave no open fd and no child behind. ctest registers
// the suite once per HM_SIMD tier.
//
// Regenerating after an *intentional* trajectory change:
//   HM_GOLDEN_PRINT=1 ./test_golden --gtest_filter='Golden.*'
// prints the replacement table; paste it over kGolden below. The values
// are produced and verified on the same platform class as CI (x86-64
// glibc); a port with a different libm would regenerate first.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "test_util.hpp"

#if defined(__SANITIZE_THREAD__)
#define HM_GOLDEN_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HM_GOLDEN_TSAN 1
#endif
#endif

namespace hm::algo {
namespace {

using testing_util::bits;
using testing_util::Cell;
using testing_util::comm_counters;
using testing_util::fingerprint_history;
using testing_util::mix_vec;
using testing_util::no_children_remain;
using testing_util::open_fd_count;
using testing_util::Runner;
using testing_util::trainer_table;

/// The pinned quantities: one u64 bit pattern per per-round global loss,
/// one per coordinate of the final p and of the time-averaged p, bit
/// hashes of the final w and of the running average of w, a hash of every
/// field of every history record, and every CommStats counter.
struct Trajectory {
  std::vector<std::uint64_t> loss;
  std::vector<std::uint64_t> p;
  std::vector<std::uint64_t> p_avg;
  std::uint64_t w = 0;
  std::uint64_t w_avg = 0;
  std::uint64_t history = 0;
  std::vector<std::uint64_t> comm;
};

Trajectory trajectory_of(const TrainResult& r) {
  Trajectory t;
  for (const auto& rec : r.history.records()) {
    t.loss.push_back(bits(rec.global_loss));
  }
  for (const scalar_t x : r.p) t.p.push_back(bits(x));
  for (const scalar_t x : r.p_avg) t.p_avg.push_back(bits(x));
  t.w = mix_vec(0, r.w);
  t.w_avg = mix_vec(0, r.w_avg);
  t.history = fingerprint_history(0, r.history, /*model_only=*/false);
  t.comm = comm_counters(r.comm);
  return t;
}

struct GoldenRow {
  const char* name;
  Trajectory want;
};

// Regenerate with HM_GOLDEN_PRINT=1 (see the file comment). The first
// loss record of every softmax trainer is the untrained model's ln(4) —
// the uniform-prediction cross-entropy on 4 classes — which doubles as a
// sanity check that the table belongs to this fixture.
const std::vector<GoldenRow>& golden() {
  static const std::vector<GoldenRow> kGolden = {
      {"fedavg",
       {{0x3ff62e42fefa39f5ull, 0x3ff37698d73f6106ull, 0x3ff169492d846874ull,
         0x3fefee554d14f2f2ull},
        {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
         0x3fd0000000000000ull},
        {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
         0x3fd0000000000000ull},
        0xa285576033e6a8eaull, 0x399f8598682f7558ull, 0xf7e8d9b9e87c8e11ull,
        {0ull, 3ull, 0ull, 0ull, 24ull, 24ull, 0ull, 0ull, 0ull, 19968ull,
         0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
         0ull}}},
      {"hierfavg",
       {{0x3ff62e42fefa39f5ull, 0x3ff24c27b3f6df52ull, 0x3fefd7b79e0ac40cull,
         0x3fec4c773c205420ull},
        {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
         0x3fd0000000000000ull},
        {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
         0x3fd0000000000000ull},
        0xe97490e7538f106aull, 0x1b6c29904a282309ull, 0x0501c6e5c1d48ff0ull,
        {6ull, 3ull, 48ull, 48ull, 12ull, 12ull, 0ull, 0ull, 39936ull, 9984ull,
         0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
         0ull}}},
      {"drfa",
       {{0x3ff62e42fefa39f5ull, 0x3ff341bdad572d5full, 0x3ff15ce5cb2f0c1cull,
         0x3ff012481ac47856ull},
        {0x3fc614b3f7b48f05ull, 0x3fcea700b1fc86eeull, 0x3fd4768af52f616bull,
         0x3fd12b9ab5f8139bull},
        {0x3fc9ddedfd887e7bull, 0x3fcf9e17d15198c4ull, 0x3fd27913bb3637b6ull,
         0x3fd0c8e95d5cbca8ull},
        0x230298db1de7f426ull, 0x208c0b5ac4450034ull, 0x2cc64e90dc1fbdf4ull,
        {0ull, 6ull, 0ull, 0ull, 30ull, 39ull, 0ull, 24ull, 0ull, 28896ull,
         0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
         0ull}}},
      {"stochastic_afl",
       {{0x3ff62e42fefa39f5ull, 0x3ff4914f3a32dddfull, 0x3ff348b2dfb8c7a2ull,
         0x3ff22b42b3fd0734ull},
        {0x3fcc569ff2f3b1bdull, 0x3fcf90017a73e5baull, 0x3fd16f734fb2c377ull,
         0x3fd09d3bf99970cfull},
        {0x3fcda277fd3eda73ull, 0x3fcfed8104883850ull, 0x3fd0d42a69b86767ull,
         0x3fd063d915640f38ull},
        0xe4d15051c8bbdebcull, 0x6d96cbc559d1186cull, 0xf6be66469fa7fc7eull,
        {0ull, 6ull, 0ull, 0ull, 30ull, 39ull, 0ull, 24ull, 0ull, 28896ull,
         0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
         0ull}}},
      {"qffl",
       {{0x3ff62e42fefa39f5ull, 0x3ff56c4aee3a7a80ull, 0x3ff4b354a2c7cc17ull,
         0x3ff40aa5d91781b8ull},
        {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
         0x3fd0000000000000ull},
        {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
         0x3fd0000000000000ull},
        0x82b03a65a42f99faull, 0x78d944374cfcb6fcull, 0x85c4316bd1925544ull,
        {0ull, 3ull, 0ull, 0ull, 24ull, 24ull, 0ull, 48ull, 0ull, 20352ull,
         0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
         0ull}}},
      {"hierminimax",
       {{0x3ff62e42fefa39f5ull, 0x3ff205c7d64a446full, 0x3ff0a7ec6dbced9eull,
         0x3fed272e2800a0c9ull},
        {0x3fc6c1120383ff93ull, 0x3fc808bd341923e9ull, 0x3fd6c76904804384ull,
         0x3fd1d3af5fb12abeull},
        {0x3fc93bc854a7a80bull, 0x3fca55eecf81dcb2ull, 0x3fd44ebaa0345e51ull,
         0x3fd1e869cdb6df4eull},
        0x902c99661e6df6fdull, 0x0c3b3e4446ecc64bull, 0x6863b8611b3bbbd1ull,
        {9ull, 6ull, 48ull, 56ull, 16ull, 20ull, 24ull, 12ull, 43456ull,
         15072ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
         0ull, 0ull}}},
      {"hierminimax_multi",
       {{0x3ff62e42fefa39f5ull, 0x3ff205c7d64a446full, 0x3ff0a7ec6dbced9eull,
         0x3fed272e2800a0c9ull},
        {0x3fc6c1120383ff93ull, 0x3fc808bd341923e9ull, 0x3fd6c76904804384ull,
         0x3fd1d3af5fb12abeull},
        {0x3fc93bc854a7a80bull, 0x3fca55eecf81dcb2ull, 0x3fd44ebaa0345e51ull,
         0x3fd1e869cdb6df4eull},
        0x902c99661e6df6fdull, 0x0c3b3e4446ecc64bull, 0x6863b8611b3bbbd1ull,
        {9ull, 6ull, 48ull, 56ull, 16ull, 20ull, 24ull, 12ull, 43456ull,
         15072ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
         0ull, 0ull}}},
      {"hierfavg_multi",
       {{0x3ff62e42fefa39f5ull, 0x3ff24c27b3f6df52ull, 0x3fefd7b79e0ac40cull,
         0x3fec4c773c205420ull},
        {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
         0x3fd0000000000000ull},
        {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
         0x3fd0000000000000ull},
        0xe97490e7538f106aull, 0x1b6c29904a282309ull, 0x0501c6e5c1d48ff0ull,
        {6ull, 3ull, 48ull, 48ull, 12ull, 12ull, 0ull, 0ull, 39936ull, 9984ull,
         0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
         0ull}}},
      // The 4x4 fixture's ln(4) record differs from the 4x2 one's in the
      // last bits: per-edge losses are averaged over other test sets.
      {"hierminimax_multi_d3",
       {{0x3ff62e42fefa39ecull, 0x3ff0f95f955de460ull, 0x3fed2277f98adca6ull,
         0x3fea4ab3ea77e5d5ull},
        {0x3fc4ae0cfdfd1f38ull, 0x3fb99281dc89bdb0ull, 0x3fd98bb59298535eull,
         0x3fd5b8a37746ad9aull},
        {0x3fc2e31648a7ad60ull, 0x3fc0d284d1b621f4ull, 0x3fd842c51fe18444ull,
         0x3fd5e26d52ef9412ull},
        0x67d3496e45b6df77ull, 0x9fdd74123fc72ce6ull, 0x2f503d396c73bd1eull,
        {21ull, 6ull, 182ull, 212ull, 14ull, 19ull, 72ull, 12ull, 164480ull,
         13824ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
         0ull, 0ull}}},
      {"hierminimax_d3_quant",
       {{0x3ff62e42fefa39ecull, 0x3ff1bd4185a75ca6ull, 0x3ff0d77411a4a95full,
         0x3fe919be32a3377dull},
        {0x0000000000000000ull, 0x3fc42823ae0f91bdull, 0x3fd5de5146ad7918ull,
         0x3fe006ce71255f05ull},
        {0x3fb4af7d716596fdull, 0x3fbc5bee0eea2f9bull, 0x3fd64bc270eff540ull,
         0x3fdd7162aefc191aull},
        0x863712be99c91937ull, 0x36ee7b64df1f6051ull, 0x3e940e8d0c20bd76ull,
        {21ull, 6ull, 130ull, 154ull, 10ull, 14ull, 54ull, 9ull, 82976ull,
         6496ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
         0ull, 0ull}}},
      // The MLP rows start from He-initialized weights, not from ln(4).
      {"hierminimax_mlp",
       {{0x3ffe4c7227f688b7ull, 0x3ff68df8a6187448ull, 0x3ff7e0b24260a2b6ull,
         0x3ff2491a2c9ca20cull},
        {0x3fd0074cde6df9edull, 0x3fc4a2f3c1fe7a8bull, 0x3fd40eaf8247736full,
         0x3fd19889be4b555full},
        {0x3fcef637b4aaa206ull, 0x3fc6a63b39bc5bb2ull, 0x3fd1c27f3604f3ffull,
         0x3fd36f4752c78d25ull},
        0x43a929b7e9ce4db8ull, 0x9774a6e41d59e1d5ull, 0x7a3d2086c3d5fd86ull,
        {9ull, 6ull, 48ull, 56ull, 16ull, 20ull, 24ull, 12ull, 842176ull,
         291552ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
         0ull, 0ull}}},
      {"fedavg_mlp_prox",
       {{0x4003ae8f2d3ab624ull, 0x400019b77f5e8b5full, 0x3ffbb44ebfb33a0cull,
         0x3ff803be596e523bull},
        {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
         0x3fd0000000000000ull},
        {0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
         0x3fd0000000000000ull},
        0x6d1c0b4dc890fc8aull, 0x1b9c0bc613d83040ull, 0xc65063cc70eff061ull,
        {0ull, 3ull, 0ull, 0ull, 24ull, 24ull, 0ull, 0ull, 0ull, 210432ull,
         0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
         0ull}}},
      // Degraded rows count deliveries; in hierminimax_faults_stale the
      // crashed area 1 ends at weight 0.
      {"drfa_faults_stale",
       {{0x3ff62e42fefa39f5ull, 0x3ff3b24bab7d91b0ull, 0x3ff17f334ac8543dull,
         0x3ff0d3cab586b249ull},
        {0x3fc84ca6b55dcf70ull, 0x3fcf07c5eb8808f3ull, 0x3fd3f7e74783c018ull,
         0x3fd05de2680953b7ull},
        {0x3fcdcc371242874eull, 0x3fd0cef542c65af7ull, 0x3fd2fcf1f007f744ull,
         0x3fca9bfa8820d43eull},
        0x31dc9c657df6c3dfull, 0x0321baba0d789c9eull, 0x0a0a39364f7e61c0ull,
        {0ull, 6ull, 0ull, 0ull, 30ull, 39ull, 0ull, 24ull, 0ull, 28896ull,
         0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 56ull, 31ull, 8ull, 17ull, 7ull,
         4627541094106798333ull}}},
      {"hierminimax_faults_stale",
       {{0x3ff62e42fefa39f5ull, 0x3ff3eb9119a646fdull, 0x3ff34c5ff09be827ull,
         0x3ff32bab4f7c11e0ull},
        {0x3fde9b63869a3909ull, 0x0000000000000000ull, 0x3fce2ed2325dd17cull,
         0x3fd24d336036de39ull},
        {0x3fd8bac15d702442ull, 0x3fb826d5d3ce3695ull, 0x3fcc565a390e7555ull,
         0x3fd3105c1115136eull},
        0xe8175b689e6c35bfull, 0x5a908f70ab57405bull, 0x57e39d42bf9c8b2dull,
        {9ull, 6ull, 42ull, 52ull, 14ull, 19ull, 24ull, 12ull, 39296ull,
         13824ull, 40ull, 35ull, 5ull, 0ull, 4ull, 4613010552338705156ull,
         22ull, 12ull, 3ull, 7ull, 0ull, 4619567317775286272ull}}},
      {"hierminimax_d3_faults_skip",
       {{0x3ff62e42fefa39ecull, 0x3ff62e42fefa39ecull, 0x3ff63eee3fbcf9e7ull,
         0x3ff63eee3fbcf9e7ull},
        {0x3fd734116d4a29ddull, 0x3fd313ff55260b5bull, 0x3faa6d500eaff268ull,
         0x3fd26a453bb9cc7dull},
        {0x3fd4cd60f386c693ull, 0x3fd20d54e36eb23cull, 0x3fbe247004e550cdull,
         0x3fd19c2e27d132fdull},
        0xb8dcfa1d4019c696ull, 0x54553e5534ec51adull, 0x1a3da1c5755ba035ull,
        {19ull, 4ull, 182ull, 164ull, 14ull, 11ull, 24ull, 4ull, 144128ull,
         10432ull, 128ull, 106ull, 22ull, 0ull, 31ull, 4631344008585789810ull,
         17ull, 8ull, 3ull, 6ull, 0ull, 4618441417868443648ull}}},
      {"hierminimax_no_ckpt",
       {{0x3ff62e42fefa39f5ull, 0x3ff205c7d64a446full, 0x3ff0a7ec6dbced9eull,
         0x3fed272e2800a0c9ull},
        {0x3fc7b14477074158ull, 0x3fc796cde0ad1586ull, 0x3fd74ecba9029812ull,
         0x3fd10d2b2b233c7eull},
        {0x3fc9b5e1868df8c1ull, 0x3fc9d243e64387e3ull, 0x3fd4c7826820230bull,
         0x3fd1746ae1771ca2ull},
        0x902c99661e6df6fdull, 0x0c3b3e4446ecc64bull, 0x6863b8611b3bbbd1ull,
        {9ull, 6ull, 48ull, 56ull, 16ull, 20ull, 24ull, 12ull, 43456ull,
         15072ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull,
         0ull, 0ull}}},
  };
  return kGolden;
}

/// The pinned fields in which `got` differs from `want`, each named with
/// its first differing entry in hex; empty when every bit matches.
std::string pin_diff(const Trajectory& got, const Trajectory& want) {
  std::ostringstream os;
  os << std::hex;
  const auto field = [&os](const char* name,
                           const std::vector<std::uint64_t>& g,
                           const std::vector<std::uint64_t>& w) {
    if (g == w) return;
    std::size_t j = 0;
    while (j < g.size() && j < w.size() && g[j] == w[j]) ++j;
    os << " " << name << "[" << j << "]";
    if (j < g.size() && j < w.size()) {
      os << " got 0x" << g[j] << " want 0x" << w[j] << ";";
    } else {
      os << " length " << g.size() << " vs " << w.size() << ";";
    }
  };
  field("loss", got.loss, want.loss);
  field("p", got.p, want.p);
  field("p_avg", got.p_avg, want.p_avg);
  field("w", {got.w}, {want.w});
  field("w_avg", {got.w_avg}, {want.w_avg});
  field("history", {got.history}, {want.history});
  field("comm", got.comm, want.comm);
  return os.str();
}

/// `v` as a braced list starting at column 8, wrapped before column 80.
void print_u64s(const std::vector<std::uint64_t>& v, const char* fmt) {
  std::printf("{");
  int col = 9;
  for (std::size_t i = 0; i < v.size(); ++i) {
    char item[32];
    const int len = std::snprintf(item, sizeof(item), fmt,
                                  static_cast<unsigned long long>(v[i]));
    if (i > 0 && col + len + 4 > 80) {
      std::printf(",\n         ");
      col = 9;
    } else if (i > 0) {
      std::printf(", ");
      col += 2;
    }
    std::printf("%s", item);
    col += len;
  }
  std::printf("}");
}

void print_row(const std::string& name, const Trajectory& t) {
  const char* hex = "0x%016llxull";
  std::printf("      {\"%s\",\n       {", name.c_str());
  print_u64s(t.loss, hex);
  std::printf(",\n        ");
  print_u64s(t.p, hex);
  std::printf(",\n        ");
  print_u64s(t.p_avg, hex);
  std::printf(",\n        0x%016llxull, 0x%016llxull, 0x%016llxull,\n        ",
              static_cast<unsigned long long>(t.w),
              static_cast<unsigned long long>(t.w_avg),
              static_cast<unsigned long long>(t.history));
  print_u64s(t.comm, "%lluull");
  std::printf("}},\n");
}

// ——— The determinism matrix ———

/// A cell as indices into the axis value lists: pool, transport, obs,
/// resume.
using Axes = std::array<int, 4>;

constexpr std::size_t kPoolThreads[] = {1, 4};
constexpr net::TransportKind kTransports[] = {net::TransportKind::kInproc,
                                              net::TransportKind::kLoopback,
                                              net::TransportKind::kSocket};
constexpr index_t kWorkers[] = {0, 0, 3};  // 3 lanes split 4 areas unevenly

// All-pairs covering sets. Hierarchical rows: each transport with two
// complementary (pool, obs, resume) triples. Two-layer rows, in-proc
// only: the 4-run orthogonal array over the three two-valued axes.
const std::vector<Axes> kTreeCells = {{0, 0, 0, 0}, {1, 0, 1, 1},
                                      {0, 1, 1, 1}, {1, 1, 0, 0},
                                      {0, 2, 0, 1}, {1, 2, 1, 0}};
const std::vector<Axes> kTwoLayerCells = {{0, 0, 0, 0}, {0, 0, 1, 1},
                                          {1, 0, 0, 1}, {1, 0, 1, 0}};

/// Whether every pair of values of every two axes appears in some cell;
/// `sizes` holds each axis's value count.
bool covers_all_pairs(const std::vector<Axes>& cells, const Axes& sizes) {
  for (std::size_t a = 0; a < sizes.size(); ++a) {
    for (std::size_t b = a + 1; b < sizes.size(); ++b) {
      for (int va = 0; va < sizes[a]; ++va) {
        for (int vb = 0; vb < sizes[b]; ++vb) {
          if (std::none_of(cells.begin(), cells.end(), [&](const Axes& c) {
                return c[a] == va && c[b] == vb;
              })) {
            return false;
          }
        }
      }
    }
  }
  return true;
}

std::string label_of(const std::string& row, const Axes& c) {
  return row + " pool=" + std::to_string(kPoolThreads[c[0]]) + " " +
         net::to_string(kTransports[c[1]]) + (c[2] ? " armed" : " idle") +
         (c[3] ? " resumed" : " straight");
}

TEST(Golden, CellSetsCoverEveryPairOfAxisValues) {
  EXPECT_TRUE(covers_all_pairs(kTreeCells, {2, 3, 2, 2}));
  EXPECT_TRUE(covers_all_pairs(kTwoLayerCells, {2, 1, 2, 2}));
}

TEST(Golden, SeededTrajectoriesMatchPinnedBitPatterns) {
  const std::vector<Runner> rows = trainer_table();
  if (std::getenv("HM_GOLDEN_PRINT") != nullptr) {
    std::printf("  static const std::vector<GoldenRow> kGolden = {\n");
    for (const auto& r : rows) print_row(r.name, trajectory_of(r.run({})));
    std::printf("  };\n");
    GTEST_SKIP() << "printed regeneration table";
  }
  ASSERT_EQ(golden().size(), rows.size())
      << "trainer list and golden table out of sync";

  std::vector<std::pair<std::size_t, Axes>> jobs;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].name, std::string(golden()[i].name));
    for (const Axes& c : rows[i].hierarchical ? kTreeCells : kTwoLayerCells) {
      jobs.emplace_back(i, c);
    }
  }
  rng::Xoshiro256 order(29);
  for (std::size_t j = jobs.size(); j > 1; --j) {
    std::swap(jobs[j - 1], jobs[order.uniform_index(j)]);
  }

  parallel::ThreadPool pools[] = {parallel::ThreadPool(kPoolThreads[0]),
                                  parallel::ThreadPool(kPoolThreads[1])};
  // Per process: ctest runs the per-tier registrations side by side.
  const std::filesystem::path dirs =
      std::filesystem::temp_directory_path() /
      ("hm_golden_matrix_" + std::to_string(::getpid()));
  std::size_t skipped = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto& [i, c] = jobs[j];
    const std::string label = label_of(rows[i].name, c);
    const bool socket = kTransports[c[1]] == net::TransportKind::kSocket;
#ifdef HM_GOLDEN_TSAN
    if (socket) {
      ++skipped;
      continue;
    }
#endif
    Cell cell;
    cell.pool = &pools[c[0]];
    cell.transport = kTransports[c[1]];
    cell.workers = kWorkers[c[1]];
    cell.armed = c[2] != 0;
    if (c[3] != 0) cell.resume_dir = (dirs / std::to_string(j)).string();
    const int fds_before = socket ? open_fd_count() : 0;
    const std::string diff =
        pin_diff(trajectory_of(rows[i].run(cell)), golden()[i].want);
    EXPECT_TRUE(diff.empty()) << label << ":" << diff;
    if (socket) {
      EXPECT_EQ(open_fd_count(), fds_before) << label;
      EXPECT_TRUE(no_children_remain()) << label;
    }
  }
  std::filesystem::remove_all(dirs);
  if (skipped > 0) {
    std::printf("skipped %zu socket cells: TSan cannot fork a threaded "
                "process\n",
                skipped);
  }
}

}  // namespace
}  // namespace hm::algo
