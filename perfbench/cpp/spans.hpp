// Arithmetic over recorded spans (obs::SpanRecord): parent/child nesting
// per recording thread, per-name inclusive and self time, interval unions,
// and the closure of a round span by its child spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace hm::perfbench {

using Interval = std::pair<std::uint64_t, std::uint64_t>;  // [start, end)

/// Total length of the union of `intervals`.
std::uint64_t union_length(std::vector<Interval> intervals);

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t inclusive_ns = 0;
  std::uint64_t self_ns = 0;  // inclusive minus the part its children cover
};

/// Closure of the round spans named `round_name`: each round's time split
/// into time covered by each direct child span name and time no child
/// covers. covered_by[...] summed plus uncovered_ns equals round_ns exactly
/// when direct children never overlap one another.
struct RoundClosure {
  std::uint64_t rounds = 0;
  std::uint64_t round_ns = 0;
  std::uint64_t uncovered_ns = 0;
  std::map<std::string, std::uint64_t> child_ns;  // inclusive, per name

  double gap_frac() const {
    return round_ns == 0 ? 0.0
                         : static_cast<double>(uncovered_ns) /
                               static_cast<double>(round_ns);
  }
  /// |sum(child_ns) + uncovered_ns - round_ns|, in ns.
  std::uint64_t closure_error_ns() const;
};

struct TraceAnalysis {
  std::map<std::string, SpanTotals> by_name;
  RoundClosure closure;
};

/// Nest spans per thread (a span's parent is the innermost span of the
/// same thread whose interval contains it), then total them per name and
/// close the rounds named `round_name`.
TraceAnalysis analyze_spans(const std::vector<obs::SpanRecord>& spans,
                            const std::string& round_name);

/// Union length of every span named `name`, over all threads.
std::uint64_t covered_ns(const std::vector<obs::SpanRecord>& spans,
                         const std::string& name);

}  // namespace hm::perfbench
