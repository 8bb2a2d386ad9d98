// Property tests for the robust aggregation kernels in isolation
// (trainer_common's robust_combine and the robust_* wrappers):
//   (a) permutation invariance at 0 ULP — the combine is a pure function
//       of the multiset of (vector, multiplicity) inputs,
//   (b) kMean dispatch agrees bit-for-bit with the plain weighted /
//       uniform mean (zero attackers, zero behavior change),
//   (c) the breakdown bound: with f attacking weight units out of m,
//       median and (sufficiently) trimmed mean stay inside the honest
//       envelope iff f < m/2 — and are demonstrably corrupted at
//       majority, so the bound is tight,
//   (d) the even-count median tie: exactly half the weight at or below
//       a value yields the exact midpoint of the straddling pair,
//       replayed bit-identically across input orders,
//   (e) non-finite inputs: NaN, ±Inf and ±0 get a defined result (NaN
//       sorts above +Inf, -0 ties +0) under every input order,
//   (f) block-parallel aggregation: with a pool, every combiner gives
//       the serial null-pool result bit for bit, for any pool size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "algo/trainer_common.hpp"
#include "core/check.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "test_util.hpp"

namespace hm::algo {
namespace {

using detail::AggregateSpec;
using detail::Participants;
using detail::robust_combine;
using testing_util::bits;

std::vector<const std::vector<scalar_t>*> ptrs(
    const std::vector<std::vector<scalar_t>>& v) {
  std::vector<const std::vector<scalar_t>*> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = &v[i];
  return out;
}

std::vector<std::vector<scalar_t>> random_sources(std::size_t m,
                                                  std::size_t dim,
                                                  seed_t seed) {
  rng::Xoshiro256 gen(seed);
  std::vector<std::vector<scalar_t>> v(m, std::vector<scalar_t>(dim));
  for (auto& row : v) {
    for (auto& x : row) x = gen.normal();
  }
  return v;
}

// ---------------------------------------------------------------------
// (a) Permutation invariance, bit-exact.

TEST(RobustCombine, PermutationInvariantAtZeroUlp) {
  const std::size_t m = 7;
  const std::size_t dim = 13;
  const auto base = random_sources(m, dim, 123);
  const std::vector<index_t> mults = {1, 2, 1, 3, 1, 2, 1};
  const index_t total =
      std::accumulate(mults.begin(), mults.end(), index_t{0});

  for (const Aggregate kind :
       {Aggregate::kMedian, Aggregate::kTrimmedMean}) {
    const AggregateSpec agg{kind, 0.2};
    std::vector<scalar_t> ref(dim, 0);
    robust_combine(ptrs(base), mults, total, agg, ref);

    // Walk a handful of distinct permutations of the (source, mult)
    // pairs; every one must reproduce `ref` bit-for-bit.
    std::vector<std::size_t> perm(m);
    std::iota(perm.begin(), perm.end(), 0u);
    rng::Xoshiro256 gen(321);
    for (int trial = 0; trial < 8; ++trial) {
      for (std::size_t i = m - 1; i > 0; --i) {
        std::swap(perm[i],
                  perm[gen.uniform_index(static_cast<std::uint64_t>(i + 1))]);
      }
      std::vector<const std::vector<scalar_t>*> srcs(m);
      std::vector<index_t> pm(m);
      for (std::size_t i = 0; i < m; ++i) {
        srcs[i] = &base[perm[i]];
        pm[i] = mults[perm[i]];
      }
      std::vector<scalar_t> out(dim, 0);
      robust_combine(srcs, pm, total, agg, out);
      for (std::size_t c = 0; c < dim; ++c) {
        ASSERT_EQ(bits(out[c]), bits(ref[c]))
            << "kind=" << static_cast<int>(kind) << " trial=" << trial
            << " c=" << c;
      }
    }
  }
}

/// `out` may alias a source: each coordinate is read before written.
TEST(RobustCombine, AliasingOutputWithASourceIsSafe) {
  const std::size_t dim = 9;
  auto v = random_sources(4, dim, 7);
  const std::vector<index_t> mults = {1, 1, 1, 1};
  const AggregateSpec agg{Aggregate::kMedian, 0.2};
  std::vector<scalar_t> ref(dim, 0);
  robust_combine(ptrs(v), mults, 4, agg, ref);
  // Same combine writing into v[2] in place.
  robust_combine(ptrs(v), mults, 4, agg, v[2]);
  for (std::size_t c = 0; c < dim; ++c) {
    EXPECT_EQ(bits(v[2][c]), bits(ref[c])) << c;
  }
}

// ---------------------------------------------------------------------
// (b) Zero attackers: the kMean dispatch is the plain mean, bit-for-bit,
// and robust_combine itself refuses kMean (callers own that fast path).

TEST(RobustAverage, MeanKindDelegatesBitIdentically) {
  const auto v = random_sources(6, 11, 99);
  const Participants parts =
      Participants::from_draws({0, 2, 2, 4, 5, 1, 2});
  std::vector<scalar_t> plain(11, 0);
  std::vector<scalar_t> robust(11, 0);

  detail::weighted_average(v, parts, plain);
  detail::robust_weighted_average(v, parts, AggregateSpec{}, robust);
  for (std::size_t c = 0; c < plain.size(); ++c) {
    EXPECT_EQ(bits(robust[c]), bits(plain[c])) << "weighted c=" << c;
  }
}

TEST(RobustCombine, MeanKindIsRejected) {
  const auto v = random_sources(3, 4, 1);
  std::vector<scalar_t> out(4, 0);
  EXPECT_THROW(
      robust_combine(ptrs(v), {1, 1, 1}, 3, AggregateSpec{}, out),
      CheckError);
}

/// Unanimous honest input is a fixed point of every robust combiner.
TEST(RobustCombine, UnanimousSourcesAreAFixedPoint) {
  const std::size_t dim = 8;
  const auto one = random_sources(1, dim, 55);
  const std::vector<std::vector<scalar_t>> v(5, one[0]);
  for (const Aggregate kind :
       {Aggregate::kMedian, Aggregate::kTrimmedMean}) {
    std::vector<scalar_t> out(dim, 0);
    robust_combine(ptrs(v), {1, 2, 1, 1, 3}, 8, AggregateSpec{kind, 0.25},
                   out);
    for (std::size_t c = 0; c < dim; ++c) {
      EXPECT_EQ(bits(out[c]), bits(one[0][c]))
          << "kind=" << static_cast<int>(kind) << " c=" << c;
    }
  }
}

// ---------------------------------------------------------------------
// (c) Breakdown bound. Honest sources live in [-1, 1]; attackers report
// +/- 1e9. Under an honest majority (f < m/2 weight units) the median
// stays inside the honest envelope, and so does the trimmed mean once
// trim >= f per side. At attacker majority both are corrupted — the
// f < m/2 bound is tight, not conservative.

TEST(RobustCombine, HonestMajorityKeepsOutputInHonestEnvelope) {
  const std::size_t dim = 6;
  const index_t m = 9;  // unit weights
  for (index_t f = 0; f < (m + 1) / 2; ++f) {  // f = 0..4 < m/2
    rng::Xoshiro256 gen(1000 + static_cast<seed_t>(f));
    std::vector<std::vector<scalar_t>> v(
        static_cast<std::size_t>(m), std::vector<scalar_t>(dim));
    scalar_t lo = 1, hi = -1;
    for (index_t i = 0; i < m; ++i) {
      const bool attacker = i < f;  // permutation invariance is (a)
      for (std::size_t c = 0; c < dim; ++c) {
        if (attacker) {
          // Coordinated one-sided push, the worst case for a median.
          v[static_cast<std::size_t>(i)][c] = 1e9;
        } else {
          const scalar_t x = 2 * gen.uniform() - 1;
          v[static_cast<std::size_t>(i)][c] = x;
          lo = std::min(lo, x);
          hi = std::max(hi, x);
        }
      }
    }
    const std::vector<index_t> mults(static_cast<std::size_t>(m), 1);

    std::vector<scalar_t> med(dim, 0);
    robust_combine(ptrs(v), mults, m, AggregateSpec{Aggregate::kMedian, 0},
                   med);
    // Trim exactly f units per side (trim_frac = f/m picks floor == f).
    std::vector<scalar_t> trm(dim, 0);
    robust_combine(ptrs(v), mults, m,
                   AggregateSpec{Aggregate::kTrimmedMean,
                                 static_cast<scalar_t>(f) /
                                     static_cast<scalar_t>(m)},
                   trm);
    for (std::size_t c = 0; c < dim; ++c) {
      EXPECT_GE(med[c], lo) << "f=" << f << " c=" << c;
      EXPECT_LE(med[c], hi) << "f=" << f << " c=" << c;
      EXPECT_GE(trm[c], lo) << "f=" << f << " c=" << c;
      EXPECT_LE(trm[c], hi) << "f=" << f << " c=" << c;
    }
  }
}

TEST(RobustCombine, AttackerMajorityBreaksBothCombiners) {
  const std::size_t dim = 3;
  const index_t m = 9;
  const index_t f = 5;  // f >= m/2: attackers own the median position
  std::vector<std::vector<scalar_t>> v(
      static_cast<std::size_t>(m), std::vector<scalar_t>(dim, 0.0));
  for (index_t i = 0; i < f; ++i) {
    for (auto& x : v[static_cast<std::size_t>(i)]) x = 1e9;
  }
  const std::vector<index_t> mults(static_cast<std::size_t>(m), 1);
  std::vector<scalar_t> med(dim, 0);
  robust_combine(ptrs(v), mults, m, AggregateSpec{Aggregate::kMedian, 0},
                 med);
  std::vector<scalar_t> trm(dim, 0);
  robust_combine(ptrs(v), mults, m,
                 AggregateSpec{Aggregate::kTrimmedMean, 0.4}, trm);
  for (std::size_t c = 0; c < dim; ++c) {
    EXPECT_GE(med[c], 1e8) << c;  // pulled all the way to the attack
    EXPECT_GE(trm[c], 1e8) << c;  // max trim cannot outvote a majority
  }
}

/// Multiplicities are weight units: one source drawn three times beats
/// two sources drawn once each, exactly as three separate copies would.
TEST(RobustCombine, MultiplicitiesActAsRepeatedSources) {
  const std::size_t dim = 5;
  const auto v = random_sources(3, dim, 42);
  const AggregateSpec agg{Aggregate::kMedian, 0};
  std::vector<scalar_t> weighted(dim, 0);
  robust_combine(ptrs(v), {3, 1, 1}, 5, agg, weighted);

  const std::vector<std::vector<scalar_t>> expanded = {v[0], v[0], v[0],
                                                       v[1], v[2]};
  std::vector<scalar_t> flat(dim, 0);
  robust_combine(ptrs(expanded), {1, 1, 1, 1, 1}, 5, agg, flat);
  for (std::size_t c = 0; c < dim; ++c) {
    EXPECT_EQ(bits(weighted[c]), bits(flat[c])) << c;
  }
}

// ---------------------------------------------------------------------
// (d) Even-count median ties: exactly half the weight at or below the
// straddle point gives the exact midpoint, deterministically.

TEST(RobustCombine, EvenCountMedianTieIsExactMidpoint) {
  const AggregateSpec agg{Aggregate::kMedian, 0};
  {
    // Four unit weights, values 1 < 2 < 3 < 4: median = (2 + 3) / 2.
    const std::vector<std::vector<scalar_t>> v = {{1}, {2}, {3}, {4}};
    std::vector<scalar_t> out(1, 0);
    robust_combine(ptrs(v), {1, 1, 1, 1}, 4, agg, out);
    EXPECT_EQ(bits(out[0]), bits(scalar_t{2.5}));
  }
  {
    // Two sources, weight 2 each: the tie straddles them.
    const std::vector<std::vector<scalar_t>> v = {{1}, {3}};
    std::vector<scalar_t> out(1, 0);
    robust_combine(ptrs(v), {2, 2}, 4, agg, out);
    EXPECT_EQ(bits(out[0]), bits(scalar_t{2.0}));
  }
  {
    // Odd total weight never ties: weight 3 at 1.0 vs weight 2 at 3.0
    // puts the median strictly inside the heavier source.
    const std::vector<std::vector<scalar_t>> v = {{1}, {3}};
    std::vector<scalar_t> out(1, 0);
    robust_combine(ptrs(v), {3, 2}, 5, agg, out);
    EXPECT_EQ(bits(out[0]), bits(scalar_t{1.0}));
  }
  {
    // The midpoint of values needing actual FP arithmetic replays at
    // 0 ULP across input orders.
    const std::vector<std::vector<scalar_t>> a = {{0.1}, {0.2}, {0.3},
                                                  {0.7}};
    const std::vector<std::vector<scalar_t>> b = {{0.7}, {0.3}, {0.2},
                                                  {0.1}};
    std::vector<scalar_t> ra(1, 0);
    std::vector<scalar_t> rb(1, 0);
    robust_combine(ptrs(a), {1, 1, 1, 1}, 4, agg, ra);
    robust_combine(ptrs(b), {1, 1, 1, 1}, 4, agg, rb);
    EXPECT_EQ(bits(ra[0]), bits(rb[0]));
    EXPECT_EQ(bits(ra[0]), bits(scalar_t{0.5} * (0.2 + 0.3)));
  }
}

/// Trimming is symmetric in weight units and capped so at least one unit
/// survives even under an aggressive trim_frac.
TEST(RobustCombine, TrimIsCappedSoOneUnitSurvives) {
  const std::vector<std::vector<scalar_t>> v = {{1}, {5}, {9}};
  std::vector<scalar_t> out(1, 0);
  // trim_frac 0.49 on total 3 -> floor(1.47) = 1 unit per side: keeps
  // exactly the middle value.
  robust_combine(ptrs(v), {1, 1, 1}, 3,
                 AggregateSpec{Aggregate::kTrimmedMean, 0.49}, out);
  EXPECT_EQ(bits(out[0]), bits(scalar_t{5.0}));
  // Even total: floor(0.49 * 4) = 1 per side over weights {1,2,1} keeps
  // the heavy middle source's two units.
  robust_combine(ptrs(v), {1, 2, 1}, 4,
                 AggregateSpec{Aggregate::kTrimmedMean, 0.49}, out);
  EXPECT_EQ(bits(out[0]), bits(scalar_t{5.0}));
}

// ---------------------------------------------------------------------
// (e) Non-finite inputs. Sorting raw doubles with a NaN present breaks
// std::sort's strict weak ordering (undefined behaviour); the combiners
// order by a total-order key instead, so every case below is defined
// and identical under all 120 orders of its five sources.

TEST(RobustCombine, NonFiniteInputsHaveDefinedOrderFreeResults) {
  constexpr scalar_t kNan = std::numeric_limits<scalar_t>::quiet_NaN();
  constexpr scalar_t kInf = std::numeric_limits<scalar_t>::infinity();
  struct Case {
    const char* name;
    std::vector<scalar_t> values;  // one source per value, unit weights
    scalar_t median;               // expected; NaN means "is NaN"
    scalar_t trimmed;              // trim_frac 0.2: one unit per side
  };
  const Case cases[] = {
      // NaN is the largest value: it is trimmed, never the median.
      {"nan", {kNan, 1, 2, 3, 4}, 3, 3},
      {"both_nans", {kNan, -kNan, 5, -kInf, 0}, 5, kNan},
      {"infs", {kInf, -kInf, 1, 2, 3}, 2, 2},
      {"signed_zeros", {-0.0, 0.0, -0.0, 1, -1}, 0, 0},
      {"all_inf", {kInf, kInf, -kInf, kInf, kInf}, kInf, kInf},
  };
  const auto same = [](scalar_t got, scalar_t want) {
    return std::isnan(want) ? std::isnan(got) : got == want;
  };
  for (const Case& tc : cases) {
    std::vector<std::vector<scalar_t>> v;
    for (const scalar_t x : tc.values) v.push_back({x});
    std::vector<std::size_t> perm(v.size());
    std::iota(perm.begin(), perm.end(), 0u);
    do {
      std::vector<const std::vector<scalar_t>*> srcs;
      for (const std::size_t i : perm) srcs.push_back(&v[i]);
      const std::vector<index_t> mults(v.size(), 1);
      std::vector<scalar_t> med(1, 0);
      std::vector<scalar_t> trm(1, 0);
      robust_combine(srcs, mults, 5, AggregateSpec{Aggregate::kMedian, 0},
                     med);
      robust_combine(srcs, mults, 5,
                     AggregateSpec{Aggregate::kTrimmedMean, 0.2}, trm);
      ASSERT_TRUE(same(med[0], tc.median)) << tc.name << " median "
                                           << med[0];
      ASSERT_TRUE(same(trm[0], tc.trimmed)) << tc.name << " trimmed "
                                            << trm[0];
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
}

/// The even-weight median tie straddling a non-finite value takes the
/// IEEE midpoint of the pair, which is itself defined.
TEST(RobustCombine, MedianTieWithNonFiniteNeighbourIsDefined) {
  constexpr scalar_t kNan = std::numeric_limits<scalar_t>::quiet_NaN();
  constexpr scalar_t kInf = std::numeric_limits<scalar_t>::infinity();
  const AggregateSpec agg{Aggregate::kMedian, 0};
  std::vector<scalar_t> out(1, 0);
  robust_combine(ptrs({{kNan}, {1}}), {1, 1}, 2, agg, out);
  EXPECT_TRUE(std::isnan(out[0]));
  robust_combine(ptrs({{kInf}, {-kInf}}), {1, 1}, 2, agg, out);
  EXPECT_TRUE(std::isnan(out[0]));  // -Inf + Inf
  robust_combine(ptrs({{kInf}, {1}}), {1, 1}, 2, agg, out);
  EXPECT_EQ(out[0], kInf);
  robust_combine(ptrs({{0.0}, {-0.0}}), {1, 1}, 2, agg, out);
  EXPECT_EQ(bits(out[0]), bits(scalar_t{0.0}));  // 0.5 * (-0 + 0) = +0
}

// ---------------------------------------------------------------------
// (f) Block-parallel aggregation. With a pool the combiners split the
// coordinates into kModelBlock blocks. Each coordinate's arithmetic and
// source order do not depend on the split, so every pool size must
// reproduce the serial null-pool call bit for bit, non-finite inputs
// and the partial last block included.

TEST(BlockParallelAggregation, BitIdenticalToSerialForEveryPoolSize) {
  constexpr scalar_t kNan = std::numeric_limits<scalar_t>::quiet_NaN();
  constexpr scalar_t kInf = std::numeric_limits<scalar_t>::infinity();
  const std::size_t dim = 3 * detail::kModelBlock + 5;  // partial tail
  const std::size_t m = 5;
  std::vector<std::vector<scalar_t>> vecs = random_sources(m, dim, 4242);
  const scalar_t specials[] = {kNan, kInf, -kInf, -0.0};
  for (std::size_t i = 0; i < m; ++i) {
    // One special per block and source, plus a few in the tail block.
    for (std::size_t b = 0; b < 4; ++b) {
      const std::size_t c = std::min(dim - 1, b * detail::kModelBlock +
                                                  (i * 977 + 3) % 4096);
      vecs[i][c] = specials[(i + b) % 4];
    }
    vecs[i][dim - 1 - i] = specials[i % 4];
  }
  Participants parts;
  parts.ids = {0, 2, 3, 4};
  parts.multiplicity = {2, 1, 3, 1};
  parts.total = 7;
  const std::vector<index_t> ids = {4, 1, 0, 3, 2};
  const std::vector<index_t> mults = {1, 2, 1, 1, 3};
  const AggregateSpec median{Aggregate::kMedian, 0};
  const AggregateSpec trimmed{Aggregate::kTrimmedMean, 0.2};

  const auto run_all = [&](parallel::ThreadPool* pool) {
    std::vector<std::vector<scalar_t>> outs;
    std::vector<scalar_t> out(dim);
    detail::weighted_average(vecs, parts, out, pool);
    outs.push_back(out);
    detail::weighted_average(vecs, Participants::from_draws(ids), out, pool);
    outs.push_back(out);
    robust_combine(ptrs(vecs), mults, 8, median, out, pool);
    outs.push_back(out);
    robust_combine(ptrs(vecs), mults, 8, trimmed, out, pool);
    outs.push_back(out);
    // kReuseStale with two casualties: id 2 has a stale update to blend
    // toward the fallback, id 3 has none and substitutes the fallback.
    const std::vector<char> delivered = {1, 0, 0, 1};
    for (const AggregateSpec& agg : {AggregateSpec{}, median}) {
      detail::StaleStore stale;
      stale.init(static_cast<index_t>(m));
      stale.deliver(2, vecs[1], /*round=*/1);
      EXPECT_TRUE(detail::degraded_weighted_average(
          vecs, parts, delivered, OnFault::kReuseStale, 0.5, /*round=*/3,
          stale, vecs[1], out, agg, pool));
      outs.push_back(out);
    }
    out = vecs[0];
    detail::update_running_average(out, vecs[3], 4, pool);
    outs.push_back(out);
    detail::copy_model(vecs[4], out, pool);
    outs.push_back(out);
    return outs;
  };

  const auto serial = run_all(nullptr);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    parallel::ThreadPool pool(threads);
    const auto got = run_all(&pool);
    ASSERT_EQ(got.size(), serial.size());
    for (std::size_t r = 0; r < got.size(); ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        ASSERT_EQ(bits(got[r][c]), bits(serial[r][c]))
            << "threads " << threads << ", result " << r << ", coord " << c;
      }
    }
  }
}

}  // namespace
}  // namespace hm::algo
