// Benchmark runner: one workload, one seed, one process. Runs closed-loop
// train calls (each waits for the one before it) on the global thread pool
// for about --seconds, checks every call's output fingerprint against its
// reference, and prints one JSON object as the last line of stdout.
//
//   hm_perfbench --workload W --seed N --seconds S --trace 0|1
//                [--expect FINGERPRINT] [--scratch DIR] [--build-id ID]
//                [--setup-only]       # set-up + cold call only; prints setup_s
//   hm_perfbench --fingerprint W --seed N [--count K] [--scratch DIR]
//                                       # reference fingerprints
//
// --trace 0 measures the end-to-end metrics with the tracer disarmed;
// --trace 1 measures the per-layer metrics: untraced calls, then traced
// calls whose spans are analysed, then the microbenchmarks. Metrics carry
// no units here: perfbench/catalogue.json names them and run.py adds them.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/stopwatch.hpp"
#include "fingerprint.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spans.hpp"
#include "tensor/simd.hpp"
#include "workloads.hpp"

namespace hm::perfbench {
namespace {

// ---------------------------------------------------------------- JSON
std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// JSON array of already-rendered values.
std::string jarr(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? "," : "") + items[i];
  }
  return out + "]";
}

std::string jstrs(const std::vector<std::string>& items) {
  std::vector<std::string> quoted;
  for (const auto& s : items) quoted.push_back(jstr(s));
  return jarr(quoted);
}

std::string jobj(const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) out += ",";
    out += jstr(kv[i].first) + ":" + kv[i].second;
  }
  return out + "}";
}

// ---------------------------------------------------------------- calls
/// Least share of a traced call's wall time its round spans must cover
/// (0.91-0.98 on every workload at the commit that set it).
constexpr double kMinRoundCover = 0.8;

std::uint64_t counter(const obs::MetricsSnapshot& snap, const char* name) {
  const auto* m = snap.find(name);
  return m == nullptr ? 0 : static_cast<std::uint64_t>(m->value);
}

/// Registry counters a socket call moves (read after the call).
struct NetCounters {
  std::uint64_t attempts = 0, retries = 0, timeouts = 0, deaths = 0,
                bytes = 0;

  static NetCounters read() {
    const auto snap = obs::registry().snapshot();
    NetCounters c;
    c.attempts = counter(snap, "net.socket.rpc_attempts");
    c.retries = counter(snap, "net.socket.retries");
    c.timeouts = counter(snap, "net.socket.timeouts");
    c.deaths = counter(snap, "net.socket.worker_deaths");
    c.bytes = counter(snap, "net.socket.bytes_sent") +
              counter(snap, "net.socket.bytes_received");
    return c;
  }
  NetCounters operator-(const NetCounters& o) const {
    return {attempts - o.attempts, retries - o.retries, timeouts - o.timeouts,
            deaths - o.deaths, bytes - o.bytes};
  }
  NetCounters operator+(const NetCounters& o) const {
    return {attempts + o.attempts, retries + o.retries, timeouts + o.timeouts,
            deaths + o.deaths, bytes + o.bytes};
  }
};

/// What the benchmark keeps of one train call (not the results
/// themselves, so a long run does not accumulate them).
struct CallOutcome {
  bool ok = false;
  std::string error;
  double seconds = 0;
  double samples = 0;
  std::uint64_t steal_ticks = 0;  // host steal while the call ran
  Fingerprint fp;
  NetCounters net;
  double wan_bytes = 0;       // modelled edge-cloud bytes, all methods
  double worst_edge_acc = 0;  // final worst-edge accuracy of HierMinimax
  std::uint64_t ec_attempted = 0, ec_delivered = 0;  // edge-cloud faults
};

/// Runs and checks train calls against one reference fingerprint.
class Caller {
 public:
  Caller(const Workload& w, parallel::ThreadPool& pool,
         std::optional<Fingerprint> reference)
      : w_(w), pool_(pool), reference_(reference) {}

  CallOutcome call(const algo::TrainOptions& opts) {
    CallOutcome out;
    const NetCounters before = NetCounters::read();
    const std::uint64_t steal0 = sample_host().steal_ticks;
    try {
      FingerprintHasher fb;
      for (const auto& r : run_call(w_, opts, pool_)) {
        fb.add(r.result);
        out.seconds += r.seconds;
        out.samples += r.samples;
        const auto& comm = r.result.comm;
        out.wan_bytes += static_cast<double>(comm.edge_cloud_bytes);
        out.ec_attempted += comm.edge_cloud_fault.attempted;
        out.ec_delivered += comm.edge_cloud_fault.delivered;
        if (r.method == Method::kHierMinimax && !r.result.history.empty()) {
          out.worst_edge_acc = r.result.history.back().summary.worst;
        }
      }
      out.fp = fb.get();
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = std::string("threw: ") + e.what();
    }
    out.net = NetCounters::read() - before;
    out.steal_ticks = sample_host().steal_ticks - steal0;
    if (out.ok && out.net.deaths + out.net.timeouts > 0) {
      out.ok = false;
      out.error = "unplanned worker death or timeout (" +
                  std::to_string(out.net.deaths) + " deaths, " +
                  std::to_string(out.net.timeouts) + " timeouts)";
    }
    if (out.ok && !reference_) reference_ = out.fp;  // self-reference
    if (out.ok && out.fp != *reference_) {
      out.ok = false;
      out.error = "fingerprint " + out.fp.str() + " != reference " +
                  reference_->str();
    }
    attempted_ += 1;
    if (!out.ok) {
      failed_ += 1;
      if (errors_.size() < 8) errors_.push_back(out.error);
    }
    return out;
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  const Workload& w_;
  parallel::ThreadPool& pool_;
  std::optional<Fingerprint> reference_;
  std::size_t attempted_ = 0, failed_ = 0;
  std::vector<std::string> errors_;
};

/// The successful calls that saw the least host steal per second: the
/// lower half by steal rate, at least one call. Steal is time the
/// hypervisor gives this machine's vCPUs to other tenants; it comes in
/// bursts of seconds that slow every call they touch, so the end-to-end
/// medians are taken over the calls the host disturbed least. A change to
/// the program moves every call, so it still shows in these medians.
std::vector<const CallOutcome*> least_stolen_half(
    const std::vector<CallOutcome>& calls) {
  std::vector<const CallOutcome*> ok;
  for (const auto& c : calls) {
    if (c.ok) ok.push_back(&c);
  }
  const auto rate = [](const CallOutcome* c) {
    return static_cast<double>(c->steal_ticks) / c->seconds;
  };
  std::stable_sort(ok.begin(), ok.end(),
                   [&](const CallOutcome* x, const CallOutcome* y) {
                     return rate(x) < rate(y);
                   });
  ok.resize((ok.size() + 1) / 2);
  return ok;
}

bool parse_fingerprint(const std::string& s, Fingerprint& fp) {
  unsigned long long w = 0, p = 0, c = 0;
  if (std::sscanf(s.c_str(), "w:%16llx,p:%16llx,comm:%16llx", &w, &p, &c) != 3)
    return false;
  fp = {w, p, c};
  return fp.str() == s;
}

// ---------------------------------------------------------------- run
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  std::string expect;
  std::string scratch = ".";
  std::string build_id = "unknown";
  bool setup_only = false;
};

std::string stat_json(const Stat& s) {
  return jobj({{"value", jnum(s.value)},
               {"q1", jnum(s.q1)},
               {"q3", jnum(s.q3)},
               {"samples", jnum(static_cast<double>(s.samples))}});
}

int run(const Args& a) {
  parallel::ThreadPool& pool = parallel::ThreadPool::global();
  const HostSample host0 = sample_host();
  Stopwatch clock;
  std::vector<std::string> failures;  // checks that make `correct` false

  // --- set-up: inputs generated three times (median), then the cold call.
  Workload w = make_workload(a.workload, a.seed, a.scratch);
  std::vector<double> data_s;
  for (int i = 0; i < 3; ++i) {
    Stopwatch sw;
    Inputs in = make_inputs(a.workload, a.seed);
    data_s.push_back(sw.seconds());
    w.inputs = std::move(in);
  }
  const Stat data_stat = summarize(data_s);

  std::optional<Fingerprint> recorded;
  if (!a.expect.empty()) {
    Fingerprint fp;
    HM_CHECK_MSG(parse_fingerprint(a.expect, fp),
                 "malformed --expect '" << a.expect << "'");
    recorded = fp;
  }
  std::optional<Fingerprint> reference = recorded;
  std::string reference_kind = recorded ? "recorded" : "self";
  double oracle_s = 0;
  if (a.workload == "socket_hostile") {
    // The in-proc oracle, run earlier in the same process, is how a
    // library user compares backends.
    Workload oracle_w = make_workload(a.workload, a.seed, a.scratch);
    oracle_w.inputs = make_inputs(a.workload, a.seed);
    Caller oracle(oracle_w, pool, recorded);
    const auto o = oracle.call(
        hostile_options(a.seed, w.rounds, net::TransportKind::kInproc));
    oracle_s = o.seconds;
    if (!o.ok) failures.push_back("in-proc oracle: " + o.error);
    reference = o.fp;
    reference_kind = recorded ? "oracle (matches recorded)" : "oracle";
  }

  Caller caller(w, pool, reference);
  const CallOutcome cold = caller.call(w.opts);
  const double setup_s = data_stat.value + cold.seconds;
  // Host steal per second over the whole set-up, so run.py can prefer the
  // set-ups the host disturbed least (see least_stolen_half).
  const double setup_steal_per_s =
      static_cast<double>(sample_host().steal_ticks - host0.steal_ticks) /
      clock.seconds();
  if (a.setup_only) {
    std::vector<std::string> errs = caller.errors();
    errs.insert(errs.end(), failures.begin(), failures.end());
    std::cout << jobj({{"setup_s", jnum(setup_s)},
                       {"setup_steal_per_s", jnum(setup_steal_per_s)},
                       {"correct", failures.empty() ? "true" : "false"},
                       {"attempted", jnum(1)},
                       {"failed", jnum(cold.ok ? 0 : 1)},
                       {"errors", jstrs(errs)}})
              << std::endl;
    return 0;
  }

  std::map<std::string, Stat> metrics;
  std::string span_table = "{}";  // traced run: per-span-name time split
  std::vector<CallOutcome> calls;  // measured, untraced
  const double budget = a.seconds;
  const double untraced_share = a.trace == 0 ? 1.0 : 0.35;
  Stopwatch measure;
  while (calls.size() < 3 || measure.seconds() < budget * untraced_share) {
    calls.push_back(caller.call(w.opts));
  }

  std::vector<double> round_ms;  // every successful call
  NetCounters net_total;
  std::uint64_t ec_attempted = 0, ec_delivered = 0;
  const CallOutcome* last_ok = nullptr;
  for (const auto& c : calls) {
    net_total = net_total + c.net;
    if (!c.ok) continue;
    last_ok = &c;
    round_ms.push_back(c.seconds * 1e3 / static_cast<double>(w.rounds));
    ec_attempted += c.ec_attempted;
    ec_delivered += c.ec_delivered;
  }
  if (last_ok == nullptr) failures.push_back("no successful measured call");
  const Stat untraced_round = summarize(round_ms);

  if (a.trace == 0) {
    std::vector<double> quiet_ms, quiet_rates;
    for (const CallOutcome* c : least_stolen_half(calls)) {
      quiet_ms.push_back(c->seconds * 1e3 / static_cast<double>(w.rounds));
      quiet_rates.push_back(c->samples / c->seconds);
    }
    metrics["round_ms"] = summarize(quiet_ms);
    metrics["samples_per_s"] = summarize(quiet_rates);
    metrics["setup_s"] = exact(setup_s);
    const double wan = last_ok != nullptr ? last_ok->wan_bytes : 0;
    metrics["wan_mb_per_round"] =
        exact(wan * 1e-6 / static_cast<double>(w.rounds));
    metrics["worst_edge_acc"] =
        exact(last_ok != nullptr ? last_ok->worst_edge_acc : 0);
  } else {
    const auto per_call = [&](std::uint64_t v) {
      return exact(static_cast<double>(v) / static_cast<double>(calls.size()));
    };
    const double all_rounds =
        static_cast<double>(calls.size()) * static_cast<double>(w.rounds);
    metrics["net.wire_bytes_per_round"] =
        exact(static_cast<double>(net_total.bytes) / all_rounds);
    metrics["net.rpc_attempts"] =
        exact(static_cast<double>(net_total.attempts) / all_rounds);
    metrics["net.socket.retries"] = per_call(net_total.retries);
    metrics["net.socket.timeouts"] = per_call(net_total.timeouts);
    metrics["net.socket.worker_deaths"] = per_call(net_total.deaths);
    metrics["net.worker_peak_rss_mb"] = exact(children_peak_rss_mb());
    metrics["sim.edge_cloud.delivered_frac"] =
        exact(ec_attempted == 0 ? 1.0
                                : static_cast<double>(ec_delivered) /
                                      static_cast<double>(ec_attempted));
    metrics["data.generate_ms"] = summarize([&] {
      std::vector<double> ms;
      for (const double s : data_s) ms.push_back(s * 1e3);
      return ms;
    }());

    // Traced calls: arm the program's own spans with a ring large
    // enough to drop nothing, one call per arming.
    std::vector<double> p1, p2, rd, ex, gap, cover, traced_round;
    std::vector<std::pair<std::string, std::string>> span_rows;
    double dropped = 0;
    Stopwatch traced_clock;
    for (int t = 0; t < 3 && (t == 0 || traced_clock.seconds() < budget * 0.25);
         ++t) {
      obs::set_trace_capacity(std::size_t{1} << 16);
      obs::set_trace_enabled(true);
      Stopwatch sw;
      const CallOutcome c = caller.call(w.opts);
      const double wall = sw.seconds();
      obs::set_trace_enabled(false);
      const auto spans = obs::trace_spans();
      dropped += static_cast<double>(obs::trace_dropped());
      if (!c.ok) continue;
      const auto an = analyze_spans(spans, "hierminimax.round");
      const auto rounds = static_cast<double>(w.rounds);
      const auto& cl = an.closure;
      if (cl.rounds != static_cast<std::uint64_t>(w.rounds)) {
        failures.push_back("traced call recorded " + std::to_string(cl.rounds) +
                           " hierminimax.round spans, expected " +
                           std::to_string(w.rounds));
      }
      // Phase spans are the only direct children of a round; together
      // with the uncovered time they must add up to the round span. The
      // uncovered time is the round minus the union of its children, so
      // this only fails when two child spans of one thread overlap.
      if (cl.closure_error_ns() > 1000 * cl.rounds) {
        failures.push_back("round closure off by " +
                           std::to_string(cl.closure_error_ns()) + " ns");
      }
      const auto child = [&](const char* name) {
        const auto it = cl.child_ns.find(name);
        return it == cl.child_ns.end() ? 0.0 : static_cast<double>(it->second);
      };
      p1.push_back(child("hierminimax.phase1") * 1e-6 / rounds);
      p2.push_back(child("hierminimax.phase2") * 1e-6 / rounds);
      rd.push_back(static_cast<double>(covered_ns(spans, "run_devices")) *
                   1e-6 / rounds);
      ex.push_back(static_cast<double>(covered_ns(spans, "exchange")) * 1e-6 /
                   rounds);
      gap.push_back(cl.gap_frac());
      double round_spans = 0;
      for (const auto& [name, tot] : an.by_name) {
        if (name.size() > 6 && name.compare(name.size() - 6, 6, ".round") == 0) {
          round_spans += static_cast<double>(tot.inclusive_ns);
        }
      }
      cover.push_back(round_spans * 1e-9 / wall);
      // The program's round spans, timed inside the library, must account
      // for the call's wall time as timed here: most of it (set-up and
      // final evaluation sit outside every round) and never more.
      if (cover.back() < kMinRoundCover || cover.back() > 1.0 + 1e-3) {
        failures.push_back("round spans cover " +
                           std::to_string(cover.back()) +
                           " of the traced call's wall time");
      }
      span_rows.clear();
      for (const auto& [name, tot] : an.by_name) {
        span_rows.emplace_back(
            name,
            jobj({{"count", jnum(static_cast<double>(tot.count))},
                  {"inclusive_ms_per_round",
                   jnum(static_cast<double>(tot.inclusive_ns) * 1e-6 / rounds)},
                  {"self_ms_per_round",
                   jnum(static_cast<double>(tot.self_ns) * 1e-6 / rounds)}}));
      }
      traced_round.push_back(c.seconds * 1e3 / rounds);
    }
    if (dropped > 0) failures.push_back("trace ring dropped spans");
    metrics["phase.phase1_ms"] = summarize(p1);
    metrics["phase.phase2_ms"] = summarize(p2);
    metrics["sim.run_devices_ms"] = summarize(rd);
    metrics["net.exchange_ms"] = summarize(ex);
    metrics["obs.closure_gap_frac"] = summarize(gap);
    metrics["obs.round_cover_frac"] = summarize(cover);
    const Stat traced = summarize(traced_round);
    metrics["obs.trace_overhead_frac"] =
        traced.samples > 0 && untraced_round.samples > 0
            ? exact(traced.value / untraced_round.value - 1)
            : Stat{std::nan(""), std::nan(""), std::nan(""), 0};
    metrics["obs.spans_dropped"] = exact(dropped);
    span_table = jobj(span_rows);

    const double left = budget - clock.seconds() + setup_s + oracle_s;
    measure_layers(a.seed, std::max(0.2 * budget, left), a.scratch, pool,
                   metrics);
  }
  metrics["peak_rss_mb"] = exact(peak_rss_mb());

  const HostSample host1 = sample_host();
  const bool correct = failures.empty();
  auto manifest = obs::make_base_manifest();
  manifest.set("seed", std::to_string(a.seed));
  manifest.set("simd", tensor::simd_level_name(tensor::active_simd_level()));
  manifest.set("threads", std::to_string(pool.num_threads()));
  manifest.set("backend", net::to_string(w.opts.transport.kind));
  manifest.set("build_id", a.build_id);
  manifest.set("workload", a.workload);

  std::vector<std::pair<std::string, std::string>> mj;
  for (const auto& [name, s] : metrics) {
    mj.emplace_back(name, stat_json(s));
  }
  std::vector<std::string> errs = caller.errors();
  errs.insert(errs.end(), failures.begin(), failures.end());
  std::vector<std::string> calls_ms, calls_steal;
  for (const double v : round_ms) calls_ms.push_back(jnum(v));
  for (const auto& c : calls) {
    if (c.ok) calls_steal.push_back(jnum(static_cast<double>(c.steal_ticks)));
  }

  const double attempted = static_cast<double>(caller.attempted());
  const double failed = static_cast<double>(caller.failed());
  std::cout << jobj({
                   {"workload", jstr(a.workload)},
                   {"seed", jnum(static_cast<double>(a.seed))},
                   {"trace", jnum(a.trace)},
                   {"correct", correct ? "true" : "false"},
                   {"attempted", jnum(attempted)},
                   {"failed", jnum(failed)},
                   {"failed_frac", jnum(failed / attempted)},
                   {"reference", jstr(reference_kind)},
                   {"fingerprint",
                    jstr(reference ? reference->str() : cold.fp.str())},
                   {"setup",
                    jobj({{"data_build_s", stat_json(data_stat)},
                          {"cold_call_s", jnum(cold.seconds)},
                          {"steal_per_s", jnum(setup_steal_per_s)},
                          {"oracle_call_s", jnum(oracle_s)}})},
                   {"metrics", jobj(mj)},
                   {"all_calls_round_ms", stat_json(untraced_round)},
                   {"call_round_ms", jarr(calls_ms)},
                   {"call_steal_ticks", jarr(calls_steal)},
                   {"span_table", span_table},
                   {"errors", jstrs(errs)},
                   {"manifest", manifest.render_json()},
                   {"host",
                    jobj({{"nproc", jnum(nproc())},
                          {"cpu_model", jstr(cpu_model())},
                          {"compiler", jstr(compiler())},
                          {"loadavg_start", jstr(host0.loadavg)},
                          {"loadavg_end", jstr(host1.loadavg)},
                          {"steal_ticks",
                           jnum(static_cast<double>(host1.steal_ticks -
                                                    host0.steal_ticks))},
                          {"wall_s", jnum(clock.seconds())}})},
               })
            << std::endl;
  return 0;
}

/// Reference fingerprints of seeds [first, first + count), one per line.
/// The socket workload's reference is its in-proc oracle.
int print_fingerprints(const std::string& workload, std::uint64_t first,
                       std::uint64_t count, const std::string& scratch) {
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    Workload w = make_workload(workload, seed, scratch);
    w.inputs = make_inputs(workload, seed);
    Caller caller(w, parallel::ThreadPool::global(), std::nullopt);
    const auto opts =
        workload == "socket_hostile"
            ? hostile_options(seed, w.rounds, net::TransportKind::kInproc)
            : w.opts;
    const CallOutcome c = caller.call(opts);
    HM_CHECK_MSG(c.ok, c.error);
    std::cout << c.fp.str() << std::endl;
  }
  return 0;
}

}  // namespace
}  // namespace hm::perfbench

int main(int argc, char** argv) {
  using namespace hm::perfbench;
  Args a;
  std::string fingerprint_of;
  std::uint64_t count = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << key << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (key == "--workload") a.workload = next();
    else if (key == "--seed") a.seed = std::stoull(next());
    else if (key == "--seconds") a.seconds = std::stod(next());
    else if (key == "--trace") a.trace = std::stoi(next());
    else if (key == "--expect") a.expect = next();
    else if (key == "--scratch") a.scratch = next();
    else if (key == "--build-id") a.build_id = next();
    else if (key == "--fingerprint") fingerprint_of = next();
    else if (key == "--count") count = std::stoull(next());
    else if (key == "--setup-only") a.setup_only = true;
    else {
      std::cerr << "unknown argument " << key << "\n";
      return 2;
    }
  }
  try {
    if (!fingerprint_of.empty()) {
      return print_fingerprints(fingerprint_of, a.seed, count, a.scratch);
    }
    if (a.trace != 0 && a.trace != 1) {
      std::cerr << "--trace must be 0 or 1\n";
      return 2;
    }
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "hm_perfbench: " << e.what() << "\n";
    return 1;
  }
}
