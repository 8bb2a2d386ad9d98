#include "algo/snapshot_config.hpp"

#include "core/check.hpp"

namespace hm::algo {

void apply_snapshot_flags(const Flags& flags, TrainOptions& opts) {
  io::SnapshotPolicy& policy = opts.snapshot;
  policy.every_k_rounds =
      flags.get_int("snapshot-every", policy.every_k_rounds);
  HM_CHECK_MSG(policy.every_k_rounds >= 0,
               "--snapshot-every must be >= 0, got "
                   << policy.every_k_rounds);
  const std::string default_dir = policy.dir.empty() ? "snapshots"
                                                     : policy.dir;
  policy.dir = flags.get_string("snapshot-dir", default_dir);
  policy.keep = flags.get_int("snapshot-keep", policy.keep);
  HM_CHECK_MSG(policy.keep >= 1,
               "--snapshot-keep must be >= 1, got " << policy.keep);
  if (flags.get_bool("resume", false)) opts.resume_from = policy.dir;
  opts.resume_from = flags.get_string("resume-from", opts.resume_from);
}

}  // namespace hm::algo
