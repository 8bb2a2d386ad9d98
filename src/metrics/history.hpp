// Training-curve recording: one record per evaluation point, with the
// communication meter snapshot — enough to regenerate the paper's
// "accuracy vs communication rounds" figures and the rounds-to-threshold
// headline numbers.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "metrics/evaluation.hpp"
#include "sim/comm.hpp"

namespace hm::metrics {

struct RoundRecord {
  index_t round = 0;                  // training round k
  sim::CommStats comm;                // cumulative traffic at this point
  std::vector<scalar_t> edge_acc;     // per-edge test accuracy
  AccuracySummary summary;            // derived from edge_acc
  scalar_t global_loss = 0;           // mean training loss (uniform p)
};

class TrainingHistory {
 public:
  void add(RoundRecord record) { records_.push_back(std::move(record)); }

  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }
  const std::vector<RoundRecord>& records() const { return records_; }
  const RoundRecord& back() const { return records_.back(); }

  /// First cumulative total_rounds() at which worst accuracy >= target,
  /// or nullopt if never reached. The paper's "communication rounds to
  /// reach X% worst accuracy".
  std::optional<std::uint64_t> rounds_to_worst_accuracy(
      scalar_t target) const;

  /// Same for average accuracy.
  std::optional<std::uint64_t> rounds_to_average_accuracy(
      scalar_t target) const;

  /// First cumulative edge-cloud *model payload* count at which worst
  /// accuracy >= target. This is the communication-overhead headline
  /// metric (the paper's "communication rounds" x-axis up to a constant):
  /// two-layer methods ship every sampled client's model across the
  /// wide-area segment each round, while hierarchical methods ship only
  /// one aggregate per participating edge server.
  std::optional<std::uint64_t> wan_payloads_to_worst_accuracy(
      scalar_t target) const;

  /// Like wan_payloads_to_worst_accuracy, but requires the *trailing
  /// mean* of `window` consecutive records to reach the target — robust
  /// to single-evaluation spikes on noisy curves. Returns the payload
  /// count at the last record of the qualifying window.
  std::optional<std::uint64_t> wan_payloads_to_sustained_worst(
      scalar_t target, index_t window = 3) const;

  /// Mean of (average, worst, variance) over the last `window` records —
  /// a lower-variance "final performance" estimate than the last
  /// snapshot alone.
  AccuracySummary tail_summary(index_t window) const;

  /// TSV dump: one line per record with round, comm counters, the fault
  /// delivery roll-ups (delivered/dropped/straggled, all zero without a
  /// FaultPlan), avg/worst/variance and loss. `label` becomes the first
  /// column (method name).
  void write_tsv(std::ostream& os, const std::string& label) const;

  /// The header line of write_tsv's rows, written from the same column
  /// list: "method", then one name per column.
  static void write_tsv_header(std::ostream& os);

 private:
  std::vector<RoundRecord> records_;
};

}  // namespace hm::metrics
