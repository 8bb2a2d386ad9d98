// Internal helpers shared by the five trainers: deterministic stream
// tags, participant dedup, model averaging, running averages, and the
// evaluation/recording cadence.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "algo/options.hpp"
#include "data/federated.hpp"
#include "io/snapshot.hpp"
#include "nn/model.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/sampling.hpp"

namespace hm::algo::detail {

// Stream-split tags (arbitrary distinct constants; ASCII mnemonics).
inline constexpr std::uint64_t kTagInit = 0x696e6974;      // "init"
inline constexpr std::uint64_t kTagSampleEdges = 0x73616d70;
inline constexpr std::uint64_t kTagSampleUniform = 0x756e6966;
inline constexpr std::uint64_t kTagCheckpoint = 0x636b7074;
inline constexpr std::uint64_t kTagLocal = 0x6c6f636c;
inline constexpr std::uint64_t kTagLoss = 0x6c6f7373;
inline constexpr std::uint64_t kTagQuant = 0x71756e74;

/// Distinct participant ids with multiplicities, preserving first-draw
/// order. With-replacement sampling can repeat an id; the repeated runs
/// would be bit-identical, so we execute once and weight the aggregate.
struct Participants {
  std::vector<index_t> ids;
  std::vector<index_t> multiplicity;
  index_t total = 0;  // sum of multiplicities == number of draws

  static Participants from_draws(const std::vector<index_t>& draws);

  /// The participants whose `mask` entry (aligned with ids) is nonzero,
  /// in order, with their multiplicities.
  Participants subset(const std::vector<char>& mask) const;
};

/// Coordinates per block of the block-parallel model-vector kernels (the
/// aggregations, running averages and copy_model): 64 KiB of doubles.
/// Every element's arithmetic and source order are the same whatever the
/// split, so results are bit-identical for any pool, including none; a
/// vector of at most one block runs inline with no dispatch (DESIGN.md
/// §7, "Model-vector traffic").
inline constexpr std::size_t kModelBlock = 8192;

/// Where a block-parallel model-vector kernel runs. Built from a pool
/// pointer (implicitly): split into kModelBlock blocks on the pool, or one
/// inline call when it is null. Built by piece(): only coordinates
/// [lo, hi), inline on the caller — one piece of a split the caller
/// schedules itself. Every coordinate's arithmetic is the same either way.
struct ModelSplit {
  ModelSplit(parallel::ThreadPool* p = nullptr) : pool(p) {}  // NOLINT
  static ModelSplit piece(std::size_t lo, std::size_t hi) {
    ModelSplit s;
    s.lo = lo;
    s.hi = hi;
    return s;
  }
  parallel::ThreadPool* pool = nullptr;
  std::size_t lo = 0;
  std::size_t hi = static_cast<std::size_t>(-1);  // whole vector
};

/// dst = src, block-parallel on `split` (sizes must match).
void copy_model(nn::ConstVecView src, nn::VecView dst, ModelSplit split);

/// out = sum_i weights[i] * vectors[ids[i]] with weights normalized to 1.
/// `split` splits the coordinates into kModelBlock blocks on a pool
/// (null: serial on the caller) or picks one piece; the result is
/// bit-identical either way.
void weighted_average(const std::vector<std::vector<scalar_t>>& vectors,
                      const Participants& parts, std::vector<scalar_t>& out,
                      ModelSplit split = {});

/// The model-report combiner and its parameters, threaded through the
/// aggregation helpers. The default is the plain mean, which keeps every
/// pre-existing call site bit-identical.
struct AggregateSpec {
  Aggregate kind = Aggregate::kMean;
  scalar_t trim_frac = 0.2;  // kTrimmedMean only; in [0, 0.5)
};

/// Coordinate-wise robust combine of `srcs` with integer multiplicities
/// `mults` (sum == total). Inputs are ordered by (coordinate value,
/// source index) with a fixed sorted-order reduction, so the result is a
/// pure function of the multiset of inputs — deterministic at 0 ULP and
/// invariant under input permutation. The value order is total: -0 ties
/// +0 and every NaN sorts above +Inf, so any input, finite or not, has
/// a defined result. kMean is rejected here (callers
/// dispatch it to the fused mean kernels). `out` may alias a source:
/// each coordinate is fully read before it is written. `split` as in
/// weighted_average.
void robust_combine(const std::vector<const std::vector<scalar_t>*>& srcs,
                    const std::vector<index_t>& mults, index_t total,
                    const AggregateSpec& agg, nn::VecView out,
                    ModelSplit split = {});

/// weighted_average with a selectable combiner: kMean is
/// weighted_average, the robust kinds treat each participant's
/// multiplicity as that many weight units.
void robust_weighted_average(
    const std::vector<std::vector<scalar_t>>& vectors,
    const Participants& parts, const AggregateSpec& agg,
    std::vector<scalar_t>& out, ModelSplit split = {});

/// Last delivered update per potential participant, for OnFault::
/// kReuseStale. `last_round[id] < 0` means the participant never
/// delivered; a casualty's staleness at round k is k - last_round[id].
/// A run keeps one iff on_fault is kReuseStale (the only reader), so a
/// snapshot holds one as its options record says, on any transport.
struct StaleStore {
  std::vector<std::vector<scalar_t>> models;
  std::vector<index_t> last_round;
  // Scratch for the blended substitute vectors, sized on demand. Blends
  // are materialized before the accumulation touches `out`, so the
  // fallback vector may alias the output (trainers pass result.w as
  // both).
  std::vector<std::vector<scalar_t>> blend;

  void init(index_t n) {
    models.assign(static_cast<std::size_t>(n), {});
    last_round.assign(static_cast<std::size_t>(n), -1);
  }
  bool has(index_t id) const {
    return last_round[static_cast<std::size_t>(id)] >= 0;
  }
  void deliver(index_t id, const std::vector<scalar_t>& m, index_t round) {
    models[static_cast<std::size_t>(id)] = m;
    last_round[static_cast<std::size_t>(id)] = round;
  }
};

/// Weighted aggregation of `vectors[parts.ids[i]]` under failures.
/// `delivered[i]` (aligned with parts.ids) flags survivors. Policies:
///   kRenormalize — survivors only, multiplicities renormalized to the
///                  surviving total (stays on the simplex);
///   kReuseStale  — original weights; casualties contribute
///                  decay^age * stale + (1 - decay^age) * fallback, and
///                  survivors refresh `stale`;
///   kSkipRound   — any failure abandons the aggregation.
/// Returns false when the aggregation is skipped (kSkipRound with a
/// failure, or no survivor carries weight under kRenormalize); `out` is
/// untouched then. With all participants delivered this is bit-identical
/// to weighted_average for every policy. `fallback` may alias `out`.
/// `agg` selects the combiner over the (survivor + substitute) set; the
/// default mean reproduces the historical behavior bit-for-bit. `pool`
/// splits the combine as in weighted_average.
bool degraded_weighted_average(
    const std::vector<std::vector<scalar_t>>& vectors,
    const Participants& parts, const std::vector<char>& delivered,
    OnFault policy, scalar_t stale_decay, index_t round, StaleStore& stale,
    const std::vector<scalar_t>& fallback, std::vector<scalar_t>& out,
    const AggregateSpec& agg = {}, parallel::ThreadPool* pool = nullptr);

// ——— The cloud step: the same whether areas or clients report ———

/// Phase 1's draws from a round's stream. With `weights` (minimax): m
/// draws by weight with replacement, so Eq. (5) is unbiased, then the
/// checkpoint, step c1 in [1, steps] of innermost block c2 in
/// [0, blocks), c1 drawn first. Without: m of n uniformly, no checkpoint.
struct RoundDraw {
  Participants parts;
  index_t c1 = 0;
  index_t c2 = -1;
};
RoundDraw draw_round(const rng::Xoshiro256& round_gen,
                     const std::vector<scalar_t>* weights, index_t n,
                     index_t m, index_t steps, index_t blocks);

/// Eqs. (5)-(6): combine models[parts.ids[j]] into `w` (the broadcast
/// model) by opts.aggregate and degraded_weighted_average over the
/// reports `delivered` flags — all of them in a round nothing can fail,
/// which is bit-identical to the plain aggregate and still refreshes the
/// stale store. With `ckpts`, the checkpoint is the plain mean over the
/// delivered reports that hold one (holds_ckpt[id], empty = all;
/// checkpoints are honest, DESIGN.md §13), else, or without
/// opts.use_checkpoint, the aggregate. Then w is projected. False (w,
/// checkpoint untouched): the round is skipped.
bool cloud_aggregate(const std::vector<std::vector<scalar_t>>& models,
                     const std::vector<std::vector<scalar_t>>* ckpts,
                     const std::vector<char>& holds_ckpt,
                     const Participants& parts,
                     const std::vector<char>& delivered,
                     const TrainOptions& opts, index_t round,
                     StaleStore& stale, std::vector<scalar_t>& w,
                     std::vector<scalar_t>& checkpoint,
                     parallel::ThreadPool* pool);

/// Eq. (7) over the delivered loss reports, in order: p[ids[s]] +=
/// eta_p * prod(taus) * (p.size() / ids.size()) * losses[s], then
/// projection onto `set`. No reports: p is untouched.
void ascent_step(std::span<const index_t> ids,
                 std::span<const scalar_t> losses, scalar_t eta_p,
                 std::span<const index_t> taus, const SimplexSet& set,
                 std::vector<scalar_t>& p);

/// Lazily materialized label-flipped twins of client shards, for the
/// AttackKind::kLabelFlip arm. data::flip_labels is pure, so each twin
/// is cached and re-flipped only when the underlying shard changes
/// identity (concept-drift phase switch). Materialize in the trainers'
/// single-threaded job-setup loops only — get() is not thread-safe.
/// `flipped` is a deque so that growing it for a higher client id keeps
/// the twins already handed to this block's jobs in place.
struct PoisonStore {
  std::vector<const data::Dataset*> src;
  std::deque<data::Dataset> flipped;
  const data::Dataset& get(const data::Dataset& shard, index_t client);
};

/// The two-layer trainers run in-process on a flat client set: the
/// transport ships the edge tier of the hierarchical engine, and taus
/// shapes its tree. Any other opts.transport, or a non-empty opts.taus,
/// is a CheckError naming `trainer`, never silently ignored.
void require_inproc(const TrainOptions& opts, const char* trainer);

/// avg <- (avg * k + value) / (k + 1); k is the number of points already
/// folded into avg. `pool` as in weighted_average.
void update_running_average(std::vector<scalar_t>& avg,
                            const std::vector<scalar_t>& value, index_t k,
                            parallel::ThreadPool* pool = nullptr);

/// Uniform probability vector of length n.
std::vector<scalar_t> uniform_weights(index_t n);

/// A Phase-2 loss-estimation sample of a shard: `batch_size` indices
/// drawn uniformly with replacement from `gen`, or the whole shard when
/// batch_size is 0.
std::vector<index_t> loss_batch(index_t shard_size, index_t batch_size,
                                rng::Xoshiro256 gen);

/// Append a RoundRecord (per-edge accuracy + uniform-weight loss) when
/// the cadence says this round is due (always due at the final round).
/// A due evaluation runs in one `eval` span (args: round, edge count) as
/// one parallel region over every edge's loss and accuracy
/// (metrics::evaluate_edges).
/// Also mirrors the cumulative CommStats into the obs registry (see
/// publish_comm_metrics), so a metrics snapshot taken after training
/// reconciles exactly with TrainResult::comm.
void maybe_record(const nn::Model& model, const data::FederatedDataset& fed,
                  parallel::ThreadPool& pool, index_t round,
                  index_t total_rounds, index_t eval_every,
                  const std::vector<scalar_t>& w, const sim::CommStats& comm,
                  metrics::TrainingHistory& history);

/// Mirror the cumulative CommStats (including both LinkFaultStats) into
/// absolute obs gauges under "sim.comm.*". Value channel: CommStats is a
/// pure function of (seed, config) by the determinism contract, and the
/// gauges inherit that. No-op when obs hooks are compiled out.
void publish_comm_metrics(const sim::CommStats& comm);

// ——— Crash-safe snapshot plumbing (io/snapshot.hpp) ———
//
// Every trainer derives all round-k randomness from non-advancing splits
// of a root generator (root.split(k+1).split(phase)...), so the remaining
// trajectory after round k is a pure function of the round-boundary
// state. RunState points at exactly that state; snapshotting it at the
// end of a round and restoring it before the loop makes the resumed run
// bit-identical to the uninterrupted one — including under an active
// FaultPlan, which is itself a pure function of (fault seed, round,
// entity). Per-round scratch buffers (client/edge/leaf model stores,
// checkpoint flags, StaleStore::blend) are freshly written before every
// read and are deliberately NOT part of the snapshot.

// Snapshot section tags (ASCII mnemonics, little-endian FourCC).
inline constexpr std::uint32_t kSnapAlgo = 0x4f474c41;        // "ALGO"
inline constexpr std::uint32_t kSnapOpts = 0x5354504f;        // "OPTS"
inline constexpr std::uint32_t kSnapRound = 0x444e5552;       // "RUND"
inline constexpr std::uint32_t kSnapRng = 0x53474e52;         // "RNGS"
inline constexpr std::uint32_t kSnapW = 0x5f5f5f57;           // "W___"
inline constexpr std::uint32_t kSnapP = 0x5f5f5f50;           // "P___"
inline constexpr std::uint32_t kSnapWAvg = 0x47564157;        // "WAVG"
inline constexpr std::uint32_t kSnapPAvg = 0x47564150;        // "PAVG"
inline constexpr std::uint32_t kSnapAux = 0x51585541;         // "AUXQ"
inline constexpr std::uint32_t kSnapAuxAvg = 0x41585541;      // "AUXA"
inline constexpr std::uint32_t kSnapComm = 0x4d4d4f43;        // "COMM"
inline constexpr std::uint32_t kSnapStaleModels = 0x4d4c5453; // "STLM"
inline constexpr std::uint32_t kSnapStaleRounds = 0x524c5453; // "STLR"
inline constexpr std::uint32_t kSnapHistory = 0x54534948;     // "HIST"

// Algorithm ids embedded in every snapshot so resuming with the wrong
// trainer (or comparing λ of a min-only method) fails loudly.
inline constexpr std::uint64_t kAlgoFedAvg = 1;
inline constexpr std::uint64_t kAlgoHierFavg = 2;
inline constexpr std::uint64_t kAlgoDrfa = 3;
inline constexpr std::uint64_t kAlgoHierMinimax = 4;
// 5 and 6 named the retired L-level entry points. Never reuse them, so
// those runs' snapshots stay refused.
inline constexpr std::uint64_t kAlgoQffl = 7;

/// Borrowed pointers into one trainer's live round-boundary state. Null
/// pointers mean "this trainer has no such state" (e.g. FedAvg has no λ);
/// presence in a snapshot must match, or resume_round throws.
struct RunState {
  std::uint64_t algo_id = 0;
  // The run's options_record, written as the OPTS section; a resume must
  // find the same record. Empty only in hand-built test states.
  OptionsRecord options;
  rng::Xoshiro256* root = nullptr;            // required
  std::vector<scalar_t>* w = nullptr;         // required
  std::vector<scalar_t>* p = nullptr;
  std::vector<scalar_t>* w_avg = nullptr;
  std::vector<scalar_t>* p_avg = nullptr;
  std::vector<scalar_t>* aux = nullptr;       // DRFA per-client q
  std::vector<scalar_t>* aux_avg = nullptr;   // DRFA running q average
  sim::CommStats* comm = nullptr;
  StaleStore* stale = nullptr;                // snapshotted iff initialized
  metrics::TrainingHistory* history = nullptr;
};

/// Encode the pointed-at state as an io::Snapshot; `next_round` is the
/// first round index still to run (rounds completed so far).
io::Snapshot make_run_snapshot(const RunState& st, index_t next_round);

/// Restore state from the newest valid snapshot under `resume_from` and
/// return the first round index to run; 0 (fresh start, state untouched)
/// when `resume_from` is empty or holds no valid snapshot. Throws
/// CheckError when the snapshot belongs to a different algorithm, has no
/// OPTS section or another options record (the message names the first
/// differing option and both values), or its shapes do not match the
/// run's topology.
index_t resume_round(const std::string& resume_from, const RunState& st);

/// End-of-round hook, called as the last statement of round k's loop
/// body with the run's one `writer` (built from the policy before the
/// loop; the loop calls writer.wait() after its last round). It joins the
/// previous round's write, rethrowing its error, then, when the policy
/// cadence is due, copies the state into the writer's buffer and starts
/// writing `snapshot.<k+1>` on the writer thread, which overlaps round
/// k + 1. It throws io::SimulatedCrash when the crash-replay harness
/// scheduled a kill after round k, once that round's snapshot is durable.
void snapshot_round_end(const io::SnapshotPolicy& policy, index_t k,
                        const RunState& st, io::SnapshotWriter& writer);

}  // namespace hm::algo::detail
