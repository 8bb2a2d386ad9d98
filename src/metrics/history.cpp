#include "metrics/history.hpp"

#include <ostream>

namespace hm::metrics {

std::optional<std::uint64_t> TrainingHistory::rounds_to_worst_accuracy(
    scalar_t target) const {
  for (const auto& r : records_) {
    if (r.summary.worst >= target) return r.comm.total_rounds();
  }
  return std::nullopt;
}

std::optional<std::uint64_t> TrainingHistory::rounds_to_average_accuracy(
    scalar_t target) const {
  for (const auto& r : records_) {
    if (r.summary.average >= target) return r.comm.total_rounds();
  }
  return std::nullopt;
}

std::optional<std::uint64_t> TrainingHistory::wan_payloads_to_worst_accuracy(
    scalar_t target) const {
  for (const auto& r : records_) {
    if (r.summary.worst >= target) return r.comm.edge_cloud_models();
  }
  return std::nullopt;
}

std::optional<std::uint64_t> TrainingHistory::wan_payloads_to_sustained_worst(
    scalar_t target, index_t window) const {
  if (window <= 0) window = 1;
  const auto n = static_cast<index_t>(records_.size());
  for (index_t i = window - 1; i < n; ++i) {
    scalar_t mean = 0;
    for (index_t j = i - window + 1; j <= i; ++j) {
      mean += records_[static_cast<std::size_t>(j)].summary.worst;
    }
    mean /= static_cast<scalar_t>(window);
    if (mean >= target) {
      return records_[static_cast<std::size_t>(i)].comm.edge_cloud_models();
    }
  }
  return std::nullopt;
}

AccuracySummary TrainingHistory::tail_summary(index_t window) const {
  const auto n = static_cast<index_t>(records_.size());
  if (window <= 0 || window > n) window = n;
  AccuracySummary out;
  for (index_t i = n - window; i < n; ++i) {
    const auto& s = records_[static_cast<std::size_t>(i)].summary;
    out.average += s.average;
    out.worst += s.worst;
    out.best += s.best;
    out.variance_pct2 += s.variance_pct2;
  }
  const auto inv = scalar_t{1} / static_cast<scalar_t>(window);
  out.average *= inv;
  out.worst *= inv;
  out.best *= inv;
  out.variance_pct2 *= inv;
  return out;
}

namespace {

/// The TSV columns after the label, in order: calls f(name, value) once
/// per column, so the header and the rows come from this one list.
template <typename F>
void for_each_column(const RoundRecord& r, F&& f) {
  f("round", r.round);
  f("comm_rounds", r.comm.total_rounds());
  f("client_edge_rounds", r.comm.client_edge_rounds);
  f("edge_cloud_rounds", r.comm.edge_cloud_rounds);
  f("edge_cloud_models", r.comm.edge_cloud_models());
  f("msgs_delivered", r.comm.msgs_delivered());
  f("msgs_dropped", r.comm.msgs_dropped());
  f("msgs_straggled", r.comm.msgs_straggled());
  f("avg_acc", r.summary.average);
  f("worst_acc", r.summary.worst);
  f("variance_pct2", r.summary.variance_pct2);
  f("loss", r.global_loss);
}

}  // namespace

void TrainingHistory::write_tsv_header(std::ostream& os) {
  os << "method";
  for_each_column(RoundRecord{},
                  [&](const char* name, const auto&) { os << '\t' << name; });
  os << '\n';
}

void TrainingHistory::write_tsv(std::ostream& os,
                                const std::string& label) const {
  for (const auto& r : records_) {
    os << label;
    for_each_column(
        r, [&](const char*, const auto& value) { os << '\t' << value; });
    os << '\n';
  }
}

}  // namespace hm::metrics
