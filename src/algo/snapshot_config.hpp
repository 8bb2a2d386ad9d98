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
// byte-identical to the uninterrupted run, and a resume whose options
// record differs from the snapshot's is refused (algo/options.hpp).
#pragma once

#include "algo/options.hpp"
#include "core/flags.hpp"

namespace hm::algo {

/// Apply the snapshot flags to `opts.snapshot` / `opts.resume_from`.
void apply_snapshot_flags(const Flags& flags, TrainOptions& opts);

}  // namespace hm::algo
