// Output fingerprint of a train call: FNV-1a hashes of the exact bit
// patterns of the final model w, the final weights p, and every CommStats
// counter. Two calls agree only if all three are bit-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "algo/options.hpp"

namespace hm::perfbench {

struct Fingerprint {
  std::uint64_t w = 0;
  std::uint64_t p = 0;
  std::uint64_t comm = 0;

  bool operator==(const Fingerprint&) const = default;

  /// "w:<16 hex>,p:<16 hex>,comm:<16 hex>".
  std::string str() const;
};

/// Running fingerprint over one or more results (a sweep folds its five
/// methods in order).
class FingerprintHasher {
 public:
  void add(const algo::TrainResult& result);
  Fingerprint get() const { return fp_; }

 private:
  Fingerprint fp_{kOffset, kOffset, kOffset};
  static constexpr std::uint64_t kOffset = 1469598103934665603ULL;
};

Fingerprint fingerprint(const algo::TrainResult& result);

}  // namespace hm::perfbench
