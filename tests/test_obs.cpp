// Observability subsystem suite (DESIGN.md §15): the metrics registry
// (registration-order independence, histogram bucketing, snapshot
// algebra), the span tracer and both exporters, the round-level trace
// schema of every trainer, and the value-channel half of the
// zero-perturbation contract: the value channel of the metrics delta is
// a pure function of (seed, config). The trajectory half — bit-identical
// with the tracer armed or idle, and with the hooks compiled out
// (-DHM_OBS=OFF) — is an axis of test_golden's determinism matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algo/hierminimax.hpp"
#include "core/check.hpp"
#include "nn/softmax_regression.hpp"
#include "obs/obs.hpp"
#include "sim/topology.hpp"
#include "test_util.hpp"

namespace hm::obs {
namespace {

using testing_util::golden_opts;
using testing_util::Runner;
using testing_util::shared_task;
using testing_util::test_pool;
using testing_util::trainer_table;
using testing_util::TraceSession;

// ——— Metrics registry ———

TEST(MetricsRegistry, SnapshotIsIndependentOfRegistrationOrder) {
  Registry forward;
  forward.counter("alpha").add(3);
  forward.gauge("mid").set(-7);
  forward.histogram("zeta", {1, 2, 4}).record(3);

  Registry backward;
  backward.histogram("zeta", {1, 2, 4}).record(3);
  backward.gauge("mid").set(-7);
  backward.counter("alpha").add(3);

  const MetricsSnapshot a = forward.snapshot();
  const MetricsSnapshot b = backward.snapshot();
  ASSERT_EQ(a.metrics.size(), 3u);
  EXPECT_EQ(a.metrics, b.metrics);
  // Sorted by name regardless of insertion order.
  EXPECT_EQ(a.metrics[0].name, "alpha");
  EXPECT_EQ(a.metrics[1].name, "mid");
  EXPECT_EQ(a.metrics[2].name, "zeta");
}

TEST(MetricsRegistry, GetOrRegisterReturnsTheSameInstrument) {
  Registry r;
  Counter& first = r.counter("hits");
  Counter& again = r.counter("hits");
  EXPECT_EQ(&first, &again);
  first.add(2);
  again.add(3);
  EXPECT_EQ(first.value(), 5u);
  EXPECT_EQ(r.size(), 1u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  Registry r;
  r.counter("x");
  EXPECT_THROW(r.gauge("x"), CheckError);
  EXPECT_THROW(r.histogram("x", {1}), CheckError);
}

TEST(MetricsRegistry, HistogramBucketsPartitionObservations) {
  Registry r;
  Histogram& h = r.histogram("sizes", {1, 2, 4, 8});
  // v <= bounds[i] lands in bucket i; past the last bound = overflow.
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 8ull, 9ull,
                                1000ull}) {
    h.record(v);
  }
  const MetricsSnapshot snap = r.snapshot();
  const MetricValue* m = snap.find("sizes");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kHistogram);
  EXPECT_EQ(m->value, 8);  // total count
  EXPECT_EQ(m->sum, 0u + 1 + 2 + 3 + 4 + 8 + 9 + 1000);
  // {0,1} | {2} | {3,4} | {8} | {9,1000}
  const std::vector<std::uint64_t> want = {2, 1, 2, 1, 2};
  EXPECT_EQ(m->buckets, want);
}

TEST(MetricsRegistry, BadHistogramBoundsThrow) {
  Registry r;
  EXPECT_THROW(r.histogram("unsorted", {4, 2}), CheckError);
  EXPECT_THROW(r.histogram("dup", {2, 2}), CheckError);
}

TEST(MetricsRegistry, DiffSubtractsCountersAndKeepsGauges) {
  Registry r;
  Counter& c = r.counter("events");
  Gauge& g = r.gauge("level");
  Histogram& h = r.histogram("obs", {10});
  c.add(5);
  g.set(100);
  h.record(3);
  const MetricsSnapshot before = r.snapshot();
  c.add(7);
  g.set(42);
  h.record(30);
  const MetricsSnapshot delta = r.snapshot().diff(before);
  EXPECT_EQ(delta.find("events")->value, 7);
  EXPECT_EQ(delta.find("level")->value, 42);  // gauges keep current
  EXPECT_EQ(delta.find("obs")->value, 1);
  const std::vector<std::uint64_t> want = {0, 1};
  EXPECT_EQ(delta.find("obs")->buckets, want);
}

TEST(MetricsRegistry, MergeUnionAddsAcrossSnapshots) {
  Registry a;
  a.counter("shared").add(2);
  a.counter("only_a").add(1);
  Registry b;
  b.counter("shared").add(3);
  b.counter("only_b").add(4);
  const MetricsSnapshot merged = a.snapshot().merge(b.snapshot());
  ASSERT_EQ(merged.metrics.size(), 3u);
  EXPECT_EQ(merged.find("shared")->value, 5);
  EXPECT_EQ(merged.find("only_a")->value, 1);
  EXPECT_EQ(merged.find("only_b")->value, 4);
  // Merged output stays name-sorted.
  EXPECT_EQ(merged.metrics[0].name, "only_a");
}

TEST(MetricsRegistry, ValueChannelFiltersTimingMetrics) {
  Registry r;
  r.counter("pure", Channel::kValue).add(1);
  r.counter("jittery", Channel::kTiming).add(1);
  const MetricsSnapshot vc = r.snapshot().value_channel();
  ASSERT_EQ(vc.metrics.size(), 1u);
  EXPECT_EQ(vc.metrics[0].name, "pure");
}

TEST(MetricsRegistry, JsonExportCarriesSchemaAndTags) {
  Registry r;
  r.counter("a.count").add(2);
  r.histogram("a.hist", {1, 2}, Channel::kTiming).record(2);
  const std::string doc =
      render_metrics_json(r.snapshot(), "{\"schema\":\"hm.obs/1\"}");
  EXPECT_NE(doc.find("\"schema\":\"hm.metrics/1\""), std::string::npos);
  EXPECT_NE(doc.find("\"manifest\":{\"schema\":\"hm.obs/1\"}"),
            std::string::npos);
  EXPECT_NE(doc.find("{\"name\":\"a.count\",\"kind\":\"counter\","
                     "\"channel\":\"value\",\"value\":2}"),
            std::string::npos);
  EXPECT_NE(doc.find("\"channel\":\"timing\""), std::string::npos);
  EXPECT_NE(doc.find("\"bounds\":[1,2],\"buckets\":[0,1,0]"),
            std::string::npos);
}

// ——— Tracer ———

TEST(Tracer, DisabledSpansRecordNothing) {
  set_trace_enabled(false);
  {
    const Span s("round", "algo", 1, 2);
  }
  { TraceSession session(16); }  // arm+reset, then disarm
  EXPECT_TRUE(trace_spans().empty());
  EXPECT_EQ(trace_dropped(), 0u);
}

TEST(Tracer, RecordsSpansWithArgsAndMonotoneSeq) {
  TraceSession session(64);
  {
    const Span outer("round", "algo", 7, 0);
    const Span inner("phase", "algo", 7, 3);
  }
  const std::vector<SpanRecord> spans = trace_spans();
  ASSERT_EQ(spans.size(), 2u);
  // Inner closes first, so it is admitted first.
  EXPECT_STREQ(spans[0].name, "phase");
  EXPECT_EQ(spans[0].a1, 3u);
  EXPECT_STREQ(spans[1].name, "round");
  EXPECT_EQ(spans[1].a0, 7u);
  EXPECT_EQ(spans[0].seq, 0u);
  EXPECT_EQ(spans[1].seq, 1u);
  EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[1].end_ns, spans[0].end_ns);
}

TEST(Tracer, RingOverwritesOldestAndCountsDrops) {
  TraceSession session(4);
  for (int i = 0; i < 10; ++i) {
    const Span s("tick", "sim", static_cast<std::uint64_t>(i), 0);
  }
  const std::vector<SpanRecord> spans = trace_spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(trace_dropped(), 6u);
  // Oldest-first unroll of the surviving suffix.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].a0, 6 + i);
    EXPECT_EQ(spans[i].seq, 6 + i);
  }
}

TEST(Tracer, ReenablingResetsTheSession) {
  {
    TraceSession session(16);
    const Span s("old", "sim", 0, 0);
  }
  TraceSession session(16);
  EXPECT_TRUE(trace_spans().empty());
  EXPECT_EQ(trace_dropped(), 0u);
}

TEST(Tracer, JsonlRoundTripsHeaderAndSpans) {
  TraceSession session(16);
  {
    const Span s("round", "algo", 1, 2);
  }
  const std::string doc = render_trace_jsonl();
  EXPECT_EQ(doc.find("{\"type\":\"trace_header\",\"spans\":1,\"dropped\":0}"),
            0u);
  EXPECT_NE(doc.find("{\"type\":\"span\",\"name\":\"round\",\"cat\":\"algo\","
                     "\"a0\":1,\"a1\":2,\"channel\":\"value\""),
            std::string::npos);
  // One header + one span, newline-terminated.
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '\n'), 2);
}

TEST(Tracer, ChromeExportIsACompleteEventPerSpan) {
  TraceSession session(16);
  {
    const Span s("exchange", "net", 4, 0, Channel::kTiming);
  }
  const std::string doc =
      render_chrome_trace("{\"schema\":\"hm.obs/1\"}");
  EXPECT_EQ(doc.find("{\"displayTimeUnit\":\"ms\",\"metadata\":"
                     "{\"schema\":\"hm.obs/1\"},\"traceEvents\":["),
            0u);
  EXPECT_NE(doc.find("\"ph\":\"X\",\"pid\":0,\"tid\":"), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"exchange\",\"cat\":\"net\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"args\":{\"a0\":4,\"a1\":0,\"channel\":\"timing\"}"),
            std::string::npos);
}

TEST(Manifest, BaseManifestIsSelfDescribing) {
  const Manifest m = make_base_manifest();
  ASSERT_NE(m.find("schema"), nullptr);
  EXPECT_EQ(*m.find("schema"), "hm.obs/1");
  EXPECT_NE(m.find("git"), nullptr);
  EXPECT_NE(m.find("obs_hooks"), nullptr);
  const std::string json = m.render_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"schema\":\"hm.obs/1\""), std::string::npos);
}

// ——— Trace schema and the zero-perturbation contract ———

// The round-level trace schema, pinned per trainer: exactly `rounds`
// round spans under the trainer's name, tagged with rounds 0..K-1 in
// order, and a round counter bumped by `rounds`.
TEST(TraceSchema, EveryTrainerEmitsOneRoundSpanAndCountPerRound) {
#if !HM_OBS_ENABLED
  GTEST_SKIP() << "obs hooks compiled out (HM_OBS=OFF)";
#endif
  const auto rounds = static_cast<std::uint64_t>(golden_opts().rounds);
  for (const Runner& r : trainer_table()) {
    SCOPED_TRACE(r.name);
    const std::string span = std::string(r.algo) + ".round";
    const MetricsSnapshot before = registry().snapshot();
    std::vector<std::uint64_t> span_rounds;
    {
      TraceSession session(1 << 14);
      (void)r.run({});
      ASSERT_EQ(trace_dropped(), 0u);
      for (const SpanRecord& s : trace_spans()) {
        if (span == s.name) span_rounds.push_back(s.a0);
      }
    }
    std::vector<std::uint64_t> want(rounds);
    for (std::uint64_t k = 0; k < rounds; ++k) want[k] = k;
    EXPECT_EQ(span_rounds, want) << span;
    const MetricsSnapshot delta = registry().snapshot().diff(before);
    const std::string counter = "algo." + std::string(r.algo) + ".rounds";
    const MetricValue* count = delta.find(counter);
    ASSERT_NE(count, nullptr) << counter;
    EXPECT_EQ(count->value, static_cast<std::int64_t>(rounds)) << counter;
  }
}

// Two identical runs must produce identical value-channel metric deltas
// (timing-channel metrics — joiner occupancy, dispatch splits — are
// explicitly exempt, which is what the channel tag is for).
TEST(ZeroPerturbation, ValueChannelDeltaIsReproducible) {
#if !HM_OBS_ENABLED
  GTEST_SKIP() << "obs hooks compiled out (HM_OBS=OFF)";
#endif
  const auto rows = trainer_table();
  const auto hm_row =
      std::find_if(rows.begin(), rows.end(),
                   [](const Runner& r) { return r.name == "hierminimax"; });
  ASSERT_NE(hm_row, rows.end());
  const MetricsSnapshot s0 = registry().snapshot();
  (void)hm_row->run({});
  const MetricsSnapshot s1 = registry().snapshot();
  (void)hm_row->run({});
  const MetricsSnapshot s2 = registry().snapshot();
  const MetricsSnapshot d1 = s1.diff(s0).value_channel();
  const MetricsSnapshot d2 = s2.diff(s1).value_channel();
  ASSERT_FALSE(d1.metrics.empty());
  ASSERT_EQ(d1.metrics.size(), d2.metrics.size());
  for (std::size_t i = 0; i < d1.metrics.size(); ++i) {
    EXPECT_EQ(d1.metrics[i], d2.metrics[i])
        << "value-channel metric '" << d1.metrics[i].name
        << "' differs between identical runs";
  }
}

// The delivery accounting published to the registry must reconcile
// exactly with the simulator's own LinkFaultStats (src/sim/comm.hpp):
// attempted == delivered + dropped + in_retry, per hierarchy link — on
// a run with real dropout, wide-area loss, and retries.
TEST(ZeroPerturbation, DeliveryCountersReconcileWithLinkFaultStats) {
#if !HM_OBS_ENABLED
  GTEST_SKIP() << "obs hooks compiled out (HM_OBS=OFF)";
#endif
  const auto& fed = shared_task();
  const sim::HierTopology topo(fed.num_edges(), fed.clients_per_edge);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  algo::TrainOptions opts = golden_opts();
  opts.rounds = 6;
  opts.fault.enabled = true;
  opts.fault.client_dropout_prob = 0.3;
  opts.fault.edge_loss_prob = 0.3;
  opts.fault.max_retries = 2;
  opts.on_fault = algo::OnFault::kRenormalize;
  const auto result = algo::train_hierminimax(model, fed, topo, opts,
                                              test_pool());

  const MetricsSnapshot snap = registry().snapshot();
  const auto gauge = [&snap](const std::string& name) {
    const MetricValue* m = snap.find(name);
    EXPECT_NE(m, nullptr) << name;
    return m != nullptr ? static_cast<std::uint64_t>(m->value) : 0;
  };
  const auto check_link = [&](const std::string& prefix,
                              const sim::LinkFaultStats& stats) {
    EXPECT_EQ(gauge(prefix + ".attempted"), stats.attempted);
    EXPECT_EQ(gauge(prefix + ".delivered"), stats.delivered);
    EXPECT_EQ(gauge(prefix + ".dropped"), stats.dropped);
    EXPECT_EQ(gauge(prefix + ".in_retry"), stats.in_retry);
    EXPECT_EQ(gauge(prefix + ".straggled"), stats.straggled);
    EXPECT_EQ(gauge(prefix + ".attempted"),
              gauge(prefix + ".delivered") + gauge(prefix + ".dropped") +
                  gauge(prefix + ".in_retry"));
  };
  check_link("sim.comm.client_edge_fault", result.comm.client_edge_fault);
  check_link("sim.comm.edge_cloud_fault", result.comm.edge_cloud_fault);
  const sim::CommStats& c = result.comm;
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"sim.comm.client_edge.rounds", c.client_edge_rounds},
      {"sim.comm.client_edge.models_up", c.client_edge_models_up},
      {"sim.comm.client_edge.models_down", c.client_edge_models_down},
      {"sim.comm.client_edge.scalars", c.client_edge_scalars},
      {"sim.comm.client_edge.bytes", c.client_edge_bytes},
      {"sim.comm.edge_cloud.rounds", c.edge_cloud_rounds},
      {"sim.comm.edge_cloud.models_up", c.edge_cloud_models_up},
      {"sim.comm.edge_cloud.models_down", c.edge_cloud_models_down},
      {"sim.comm.edge_cloud.scalars", c.edge_cloud_scalars},
      {"sim.comm.edge_cloud.bytes", c.edge_cloud_bytes},
  };
  for (const auto& [name, value] : counters) EXPECT_EQ(gauge(name), value);
  // Those ten and the five per fault link are every sim.comm.* gauge:
  // extra_rtts, a double, has none.
  std::size_t comm_gauges = 0;
  for (const auto& m : snap.metrics) {
    comm_gauges += m.name.rfind("sim.comm.", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(comm_gauges, 20u);
  // The run actually exercised loss + retry paths.
  EXPECT_GT(result.comm.msgs_dropped(), 0u);
  EXPECT_GT(result.comm.edge_cloud_fault.in_retry, 0u);
}

}  // namespace
}  // namespace hm::obs
