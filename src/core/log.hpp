// Minimal leveled logger. Thread-safe line-at-a-time output to stderr.
#pragma once

#include <mutex>
#include <sstream>
#include <string>

namespace hm::log {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global threshold; messages below it are dropped. Defaults to kInfo.
Level threshold();
void set_threshold(Level level);

/// Parse a level name (case-insensitive; accepts "warning" for kWarn).
/// Returns false and leaves `out` untouched on unknown input.
bool parse_level(const std::string& name, Level& out);

/// Apply the HM_LOG_LEVEL environment variable, if set and valid, as
/// the threshold. Returns true when a valid value was applied. CLI
/// flags (--log-level) take precedence — callers apply the env first,
/// then any explicit flag on top.
bool apply_env_threshold();

/// Emit one line at `level` (no trailing newline needed).
void write(Level level, const std::string& message);

namespace detail {

class LineStream {
 public:
  explicit LineStream(Level level) : level_(level) {}
  LineStream(const LineStream&) = delete;
  LineStream& operator=(const LineStream&) = delete;
  ~LineStream() { write(level_, os_.str()); }

  template <typename T>
  LineStream& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

 private:
  Level level_;
  std::ostringstream os_;
};

}  // namespace detail

inline detail::LineStream debug() { return detail::LineStream(Level::kDebug); }
inline detail::LineStream info() { return detail::LineStream(Level::kInfo); }
inline detail::LineStream warn() { return detail::LineStream(Level::kWarn); }
inline detail::LineStream error() { return detail::LineStream(Level::kError); }

}  // namespace hm::log
