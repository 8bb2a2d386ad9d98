#include "algo/obs_config.hpp"

#include "core/check.hpp"
#include "core/log.hpp"
#include "io/snapshot.hpp"
#include "net/transport.hpp"
#include "tensor/simd.hpp"

namespace hm::algo {

ObsOptions apply_obs_flags(const Flags& flags) {
  // Environment first, explicit flag on top.
  log::apply_env_threshold();
  if (flags.has("log-level")) {
    const std::string name = flags.get_string("log-level", "info");
    log::Level level = log::Level::kInfo;
    HM_CHECK_MSG(log::parse_level(name, level),
                 "unknown --log-level '"
                     << name << "' (expected debug | info | warn | error |"
                     << " off)");
    log::set_threshold(level);
  }

  ObsOptions opts;
  opts.metrics_out = flags.get_string("metrics-out", "");
  opts.trace_out = flags.get_string("trace-out", "");
  opts.trace_format = flags.get_string("trace-format", "chrome");
  HM_CHECK_MSG(opts.trace_format == "chrome" || opts.trace_format == "jsonl",
               "unknown --trace-format '" << opts.trace_format
                                          << "' (expected chrome | jsonl)");
  opts.trace_capacity = flags.get_int("trace-capacity", opts.trace_capacity);
  HM_CHECK_MSG(opts.trace_capacity > 0, "--trace-capacity must be positive");
  // --trace-out without --obs still means "trace this run".
  opts.trace = flags.get_bool("obs", !opts.trace_out.empty());
  if (opts.trace) {
    obs::set_trace_capacity(static_cast<std::size_t>(opts.trace_capacity));
    obs::set_trace_enabled(true);
  }
  return opts;
}

obs::Manifest build_run_manifest(const Flags& flags, const TrainOptions& opts,
                                 const std::vector<index_t>& tree) {
  obs::Manifest m = obs::make_base_manifest();
  for (const auto& [name, value] : options_record(opts, tree)) {
    m.set("opt." + name, value);
  }
  m.set("transport", net::to_string(opts.transport.kind));
  m.set("simd", tensor::simd_level_name(tensor::active_simd_level()));
  for (const std::string& name : flags.names()) {
    m.set("flag." + name, flags.get_string(name, ""));
  }
  return m;
}

void finish_obs_run(const ObsOptions& opts, const obs::Manifest& manifest) {
  const std::string manifest_json = manifest.render_json();
  if (!opts.metrics_out.empty()) {
    const std::string doc =
        obs::render_metrics_json(obs::registry().snapshot(), manifest_json);
    io::atomic_write_file(opts.metrics_out,
                          reinterpret_cast<const std::uint8_t*>(doc.data()),
                          doc.size());
    log::info() << "obs: wrote metrics snapshot to " << opts.metrics_out;
  }
  if (!opts.trace_out.empty()) {
    const std::string doc = opts.trace_format == "jsonl"
                                ? obs::render_trace_jsonl()
                                : obs::render_chrome_trace(manifest_json);
    io::atomic_write_file(opts.trace_out,
                          reinterpret_cast<const std::uint8_t*>(doc.data()),
                          doc.size());
    log::info() << "obs: wrote " << obs::trace_spans().size()
                << " spans to " << opts.trace_out << " ("
                << opts.trace_format << ")";
  }
  if (opts.trace) obs::set_trace_enabled(false);
}

}  // namespace hm::algo
