#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

namespace hm::perfbench {

HostSample sample_host() {
  HostSample s;
  std::ifstream stat("/proc/stat");
  std::string line;
  if (std::getline(stat, line) && line.rfind("cpu ", 0) == 0) {
    std::istringstream in(line.substr(4));
    std::uint64_t v = 0;
    // user nice system idle iowait irq softirq steal
    for (int i = 0; i < 8 && (in >> v); ++i) {
      if (i == 7) s.steal_ticks = v;
    }
  }
  std::ifstream load("/proc/loadavg");
  std::string a, b, c;
  if (load >> a >> b >> c) s.loadavg = a + " " + b + " " + c;
  return s;
}

unsigned nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1U;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0;
}

double children_peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace hm::perfbench
