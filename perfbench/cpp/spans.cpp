#include "spans.hpp"

#include <algorithm>

namespace hm::perfbench {

std::uint64_t union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t total = 0;
  std::uint64_t cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    if (open && s <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = s;
    cur_end = e;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

std::uint64_t RoundClosure::closure_error_ns() const {
  std::uint64_t children = 0;
  for (const auto& [name, ns] : child_ns) children += ns;
  const std::uint64_t sum = children + uncovered_ns;
  return sum > round_ns ? sum - round_ns : round_ns - sum;
}

TraceAnalysis analyze_spans(const std::vector<obs::SpanRecord>& spans,
                            const std::string& round_name) {
  // Order each thread's spans outermost-first so a stack of open spans
  // yields every span's innermost enclosing parent.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = spans[a];
    const auto& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.end_ns > y.end_ns;
  });
  std::vector<std::ptrdiff_t> parent(spans.size(), -1);
  std::vector<std::size_t> stack;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto& s = spans[order[k]];
    if (k > 0 && spans[order[k - 1]].tid != s.tid) stack.clear();
    while (!stack.empty() && spans[stack.back()].end_ns <= s.start_ns) {
      stack.pop_back();
    }
    // Spans that are not properly nested (possible only across a clock
    // anomaly) attach to the innermost open span that contains them.
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (spans[*it].end_ns >= s.end_ns) {
        parent[order[k]] = static_cast<std::ptrdiff_t>(*it);
        break;
      }
    }
    stack.push_back(order[k]);
  }

  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (parent[i] >= 0) children[static_cast<std::size_t>(parent[i])].push_back(i);
  }

  TraceAnalysis out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    std::vector<Interval> kids;
    for (const std::size_t c : children[i]) {
      kids.emplace_back(spans[c].start_ns, spans[c].end_ns);
    }
    const std::uint64_t covered = union_length(kids);
    auto& tot = out.by_name[s.name];
    tot.count += 1;
    tot.inclusive_ns += dur;
    tot.self_ns += dur - std::min(dur, covered);

    if (round_name != s.name) continue;
    out.closure.rounds += 1;
    out.closure.round_ns += dur;
    out.closure.uncovered_ns += dur - std::min(dur, covered);
    for (const std::size_t c : children[i]) {
      out.closure.child_ns[spans[c].name] += spans[c].end_ns - spans[c].start_ns;
    }
  }
  return out;
}

std::uint64_t covered_ns(const std::vector<obs::SpanRecord>& spans,
                         const std::string& name) {
  std::vector<Interval> iv;
  for (const auto& s : spans) {
    if (name == s.name) iv.emplace_back(s.start_ns, s.end_ns);
  }
  return union_length(std::move(iv));
}

}  // namespace hm::perfbench
