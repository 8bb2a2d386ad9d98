#include "core/log.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace hm::log {

namespace {

std::atomic<Level> g_threshold{Level::kInfo};
std::mutex g_mutex;

const char* level_tag(Level level) {
  switch (level) {
    case Level::kDebug: return "DEBUG";
    case Level::kInfo: return "INFO ";
    case Level::kWarn: return "WARN ";
    case Level::kError: return "ERROR";
    default: return "?????";
  }
}

}  // namespace

Level threshold() { return g_threshold.load(std::memory_order_relaxed); }

void set_threshold(Level level) {
  g_threshold.store(level, std::memory_order_relaxed);
}

bool parse_level(const std::string& name, Level& out) {
  std::string lower;
  lower.reserve(name.size());
  for (const char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "debug") {
    out = Level::kDebug;
  } else if (lower == "info") {
    out = Level::kInfo;
  } else if (lower == "warn" || lower == "warning") {
    out = Level::kWarn;
  } else if (lower == "error") {
    out = Level::kError;
  } else if (lower == "off" || lower == "none") {
    out = Level::kOff;
  } else {
    return false;
  }
  return true;
}

bool apply_env_threshold() {
  const char* env = std::getenv("HM_LOG_LEVEL");
  if (env == nullptr || *env == '\0') return false;
  Level level = Level::kInfo;
  if (!parse_level(env, level)) {
    warn() << "ignoring invalid HM_LOG_LEVEL='" << env
           << "' (want debug|info|warn|error|off)";
    return false;
  }
  set_threshold(level);
  return true;
}

void write(Level level, const std::string& message) {
  if (level < threshold()) return;
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "[hm %s] %s\n", level_tag(level), message.c_str());
}

}  // namespace hm::log
