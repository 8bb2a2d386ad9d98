// Tests of the benchmark itself: span arithmetic, the fingerprint
// comparator and the quartile convention. The metric catalogue's naming
// and targeting rules are checked by `run.py --selftest`.
#include <gtest/gtest.h>

#include <cmath>

#include "fingerprint.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "spans.hpp"

namespace hm::perfbench {
namespace {

obs::SpanRecord span(const char* name, std::uint64_t start, std::uint64_t end,
                     std::uint32_t tid = 0) {
  obs::SpanRecord r;
  r.name = name;
  r.cat = "test";
  r.tid = tid;
  r.start_ns = start;
  r.end_ns = end;
  return r;
}

/// Record `spans` through the tracer's own hook and read them back, so the
/// analysis runs on exactly what the ring returns.
std::vector<obs::SpanRecord> through_ring(
    const std::vector<obs::SpanRecord>& spans) {
  obs::set_trace_capacity(1024);
  obs::set_trace_enabled(true);
  for (const auto& s : spans) obs::trace_record(s);
  obs::set_trace_enabled(false);
  EXPECT_EQ(obs::trace_dropped(), 0U);
  return obs::trace_spans();
}

TEST(Spans, UnionLengthMergesOverlapsAndGaps) {
  EXPECT_EQ(union_length({}), 0U);
  EXPECT_EQ(union_length({{0, 10}, {5, 15}, {20, 25}, {25, 30}}), 25U);
  EXPECT_EQ(union_length({{3, 4}, {0, 100}}), 100U);
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly) {
  // round [0,100) > phase1 [10,50) > run_devices [20,40); phase2 [60,90).
  // A span on another thread inside the same interval is not a child.
  const auto spans = through_ring({
      span("hierminimax.round", 0, 100),
      span("hierminimax.phase1", 10, 50),
      span("run_devices", 20, 40),
      span("hierminimax.phase2", 60, 90),
      span("run_devices", 15, 95, /*tid=*/1),
  });
  const auto an = analyze_spans(spans, "hierminimax.round");
  EXPECT_EQ(an.by_name.at("hierminimax.round").self_ns, 30U);
  EXPECT_EQ(an.by_name.at("hierminimax.phase1").self_ns, 20U);
  EXPECT_EQ(an.by_name.at("hierminimax.phase2").self_ns, 30U);
  EXPECT_EQ(an.by_name.at("run_devices").count, 2U);
  EXPECT_EQ(an.by_name.at("run_devices").self_ns, 20U + 80U);
  EXPECT_EQ(an.by_name.at("run_devices").inclusive_ns, 100U);
  EXPECT_EQ(covered_ns(spans, "run_devices"), 80U);
}

TEST(Spans, ClosurePhasesPlusGapEqualRound) {
  const auto spans = through_ring({
      span("hierminimax.round", 0, 100),
      span("hierminimax.phase1", 5, 55),
      span("run_devices", 6, 50),
      span("hierminimax.phase2", 70, 95),
      span("hierminimax.round", 200, 260),
      span("hierminimax.phase1", 200, 240),
  });
  const auto cl = analyze_spans(spans, "hierminimax.round").closure;
  EXPECT_EQ(cl.rounds, 2U);
  EXPECT_EQ(cl.round_ns, 160U);
  EXPECT_EQ(cl.child_ns.at("hierminimax.phase1"), 90U);
  EXPECT_EQ(cl.child_ns.at("hierminimax.phase2"), 25U);
  EXPECT_EQ(cl.child_ns.count("run_devices"), 0U);  // grandchild
  EXPECT_EQ(cl.uncovered_ns, 45U);
  EXPECT_EQ(cl.closure_error_ns(), 0U);
  EXPECT_DOUBLE_EQ(cl.gap_frac(), 45.0 / 160.0);
}

TEST(Spans, OverlappingChildrenShowAsClosureError) {
  const auto cl = analyze_spans(through_ring({
                                    span("r", 0, 100),
                                    span("a", 10, 60),
                                    span("b", 40, 80, /*tid=*/0),
                                }),
                                "r")
                      .closure;
  // b starts inside a but ends outside it, so it nests under r; the two
  // children overlap by 20 ns and the sum over-counts by exactly that.
  EXPECT_EQ(cl.uncovered_ns, 30U);
  EXPECT_EQ(cl.closure_error_ns(), 20U);
}

algo::TrainResult sample_result() {
  algo::TrainResult r;
  r.w = {0.25, -1.5, 3.0, 1e-300};
  r.p = {0.5, 0.5};
  r.comm.edge_cloud_bytes = 1234;
  r.comm.edge_cloud_fault.extra_rtts = 0.5;
  return r;
}

TEST(Fingerprint, FlagsOneUlpChangeInW) {
  const auto base = sample_result();
  for (std::size_t i = 0; i < base.w.size(); ++i) {
    auto r = base;
    r.w[i] = std::nextafter(r.w[i], 1e9);
    EXPECT_NE(fingerprint(r), fingerprint(base)) << "w[" << i << "]";
    EXPECT_NE(fingerprint(r).str(), fingerprint(base).str());
  }
  EXPECT_EQ(fingerprint(sample_result()), fingerprint(base));
}

TEST(Fingerprint, FlagsChangesInPAndComm) {
  const auto base = sample_result();
  auto p = base;
  p.p[1] = std::nextafter(p.p[1], 0.0);
  EXPECT_NE(fingerprint(p), fingerprint(base));
  auto c = base;
  c.comm.edge_cloud_bytes += 1;
  EXPECT_NE(fingerprint(c), fingerprint(base));
  auto f = base;
  f.comm.edge_cloud_fault.extra_rtts = std::nextafter(0.5, 1.0);
  EXPECT_NE(fingerprint(f), fingerprint(base));
}

TEST(Summaries, QuartilesFollowPythonStatistics) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Stat s = summarize({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(s.q1, 2.75);
  EXPECT_DOUBLE_EQ(s.value, 5.5);
  EXPECT_DOUBLE_EQ(s.q3, 8.25);
  EXPECT_EQ(s.samples, 10U);
  const Stat one = summarize({4});
  EXPECT_DOUBLE_EQ(one.value, 4);
  EXPECT_DOUBLE_EQ(one.q1, 4);
}

}  // namespace
}  // namespace hm::perfbench
