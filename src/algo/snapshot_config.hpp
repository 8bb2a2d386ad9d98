// Command-line configuration of crash-safe snapshots and resume, shared
// by the examples and benchmark harnesses so every binary speaks the same
// flags:
//
//   --snapshot-every K   write a durable snapshot after every K-th round
//   --snapshot-dir D     snapshot directory (default "snapshots")
//   --snapshot-keep N    rotating last-good fallback depth (default 2)
//   --resume             resume from the newest valid snapshot in the
//                        snapshot directory
//   --resume-from D      resume from an explicit snapshot directory
//
// Resume is bit-exact: the remaining trajectory of a resumed run is
// byte-identical to the uninterrupted run with the same options and seed.
#pragma once

#include <string>

#include "algo/options.hpp"
#include "core/flags.hpp"
#include "io/snapshot.hpp"

namespace hm::algo {

/// Parse the snapshot/resume flags into a policy + resume directory.
void snapshot_flags(const Flags& flags, io::SnapshotPolicy& policy,
                    std::string& resume_from);

/// Apply the snapshot flags to `opts.snapshot` / `opts.resume_from`.
void apply_snapshot_flags(const Flags& flags, TrainOptions& opts);

}  // namespace hm::algo
