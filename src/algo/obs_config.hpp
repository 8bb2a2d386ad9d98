// Command-line configuration of the observability subsystem, shared by
// the examples and benchmark harnesses (DESIGN.md §15):
//
//   --obs                enable span tracing for the run (metrics
//                        counters are always live when compiled in)
//   --trace-out PATH     write the recorded spans to PATH at the end of
//                        the run (implies --obs)
//   --trace-format F     chrome (trace_event JSON for chrome://tracing /
//                        Perfetto, the default) | jsonl (one span per line)
//   --trace-capacity N   span ring capacity (default 65536; oldest spans
//                        are overwritten past that)
//   --metrics-out PATH   write a JSON metrics snapshot to PATH at the
//                        end of the run
//   --log-level L        debug | info | warn | error | off; overrides
//                        the HM_LOG_LEVEL environment variable
//
// Both output files embed the run manifest (options record, flags, SIMD
// dispatch, transport backend, build id), so a captured file is
// self-describing.
#pragma once

#include <string>

#include "algo/options.hpp"
#include "core/flags.hpp"
#include "obs/obs.hpp"

namespace hm::algo {

struct ObsOptions {
  bool trace = false;
  index_t trace_capacity = 65536;
  std::string trace_format = "chrome";
  std::string metrics_out;
  std::string trace_out;
};

/// Parse the obs + logging flags. Applies HM_LOG_LEVEL first, then an
/// explicit --log-level on top; arms the tracer when tracing was
/// requested (so spans from the very first round are captured).
ObsOptions apply_obs_flags(const Flags& flags);

/// Build the once-per-run manifest: base build facts (git describe,
/// build type, hook state) + the run's options_record over `tree`
/// ("opt.<name>"), transport backend, SIMD dispatch decision, and every
/// flag seen on the command line ("flag.<name>").
obs::Manifest build_run_manifest(const Flags& flags, const TrainOptions& opts,
                                 const std::vector<index_t>& tree);

/// End-of-run export: write the metrics snapshot and/or the trace to
/// the paths configured in `opts` (atomic rename, fsynced) and disable
/// the tracer. Safe to call when neither output is configured.
void finish_obs_run(const ObsOptions& opts, const obs::Manifest& manifest);

}  // namespace hm::algo
