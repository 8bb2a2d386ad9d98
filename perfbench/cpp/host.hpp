// Host context attached to every result, so a noisy run can be explained:
// CPU count and model, compiler, load average, steal ticks, and the peak
// resident sets of this process and its reaped children.
#pragma once

#include <cstdint>
#include <string>

namespace hm::perfbench {

struct HostSample {
  std::uint64_t steal_ticks = 0;  // /proc/stat aggregate "steal" column
  std::string loadavg;            // first three fields of /proc/loadavg
};

HostSample sample_host();
unsigned nproc();
std::string cpu_model();
std::string compiler();

/// VmHWM of this process, in MB (0 if unavailable).
double peak_rss_mb();

/// Largest ru_maxrss among reaped children, in MB.
double children_peak_rss_mb();

}  // namespace hm::perfbench
