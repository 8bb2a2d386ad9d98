// Run manifest: the once-per-run provenance record (options, CLI flags,
// SIMD dispatch table, transport backend, build id) emitted alongside
// every metrics/trace export so a captured file is self-describing.
// Values are strings on purpose — the manifest is metadata, not a
// metric, and never participates in determinism comparisons.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace hm::obs {

struct Manifest {
  // Insertion-ordered key/value pairs; duplicate keys keep last.
  std::vector<std::pair<std::string, std::string>> entries;

  void set(const std::string& key, const std::string& value);
  const std::string* find(const std::string& key) const;

  /// One JSON object, keys in insertion order, all values strings.
  std::string render_json() const;
};

/// Baseline manifest with the build/runtime facts every run shares:
/// schema ("hm.obs/1"), git describe (captured at configure time),
/// build type, active + supported SIMD levels, and thread count.
Manifest make_base_manifest();

}  // namespace hm::obs
