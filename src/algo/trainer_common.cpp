#include "algo/trainer_common.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "core/check.hpp"
#include "core/log.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/vecops.hpp"

namespace hm::algo::detail {

namespace {

/// Run body(lo, hi) over [0, n) in kModelBlock coordinate blocks across
/// the split's pool. A null pool, or a vector of at most one block, is one
/// inline body(0, n) call; a piece is one inline call over its
/// coordinates (clamped to n).
template <typename Body>
void for_model_blocks(const ModelSplit& split, std::size_t n,
                      const Body& body) {
  if (split.lo != 0 || split.hi < n) {
    body(std::min(split.lo, n), std::min(split.hi, n));
    return;
  }
  const std::size_t blocks = (n + kModelBlock - 1) / kModelBlock;
  if (split.pool == nullptr || blocks <= 1) {
    body(std::size_t{0}, n);
    return;
  }
  parallel::parallel_for(
      *split.pool, 0, static_cast<index_t>(blocks),
      [&](index_t b) {
        const std::size_t lo = static_cast<std::size_t>(b) * kModelBlock;
        body(lo, std::min(n, lo + kModelBlock));
      },
      1);
}

/// Weighted accumulation over a set of participant vectors with the fused
/// one- and two-source kernels: the first source overwrites (saves the
/// zero-fill pass), then sources are folded pairwise so `out` is walked
/// half as many times. Accumulation order over sources is the sequential
/// order, same as a chain of axpy calls, in every coordinate block.
template <typename WeightAt, typename SourceAt>
void accumulate_weighted(std::size_t count, const WeightAt& weight_at,
                         const SourceAt& source_at,
                         std::vector<scalar_t>& out,
                         const ModelSplit& split) {
  HM_CHECK(count > 0);
  for (std::size_t i = 0; i < count; ++i) {
    HM_CHECK(source_at(i).size() == out.size());
  }
  for_model_blocks(split, out.size(), [&](std::size_t lo, std::size_t hi) {
    const auto src = [&](std::size_t i) {
      return nn::ConstVecView(source_at(i)).subspan(lo, hi - lo);
    };
    const nn::VecView dst = nn::VecView(out).subspan(lo, hi - lo);
    tensor::axpby(weight_at(0), src(0), scalar_t{0}, dst);
    std::size_t i = 1;
    for (; i + 2 <= count; i += 2) {
      tensor::axpy2(weight_at(i), src(i), weight_at(i + 1), src(i + 1), dst);
    }
    if (i < count) tensor::axpy(weight_at(i), src(i), dst);
  });
}

/// Sort key for the robust combiners: the IEEE 754 totalOrder on doubles
/// with -0 folded onto +0 and every NaN tied above +Inf. Non-NaN values
/// order exactly as operator< does, and the order is strict and weak for
/// any bit pattern (std::sort on raw doubles is undefined with a NaN).
std::uint64_t order_key(scalar_t v) {
  if (std::isnan(v)) return ~std::uint64_t{0};
  const auto b = std::bit_cast<std::uint64_t>(v == 0 ? scalar_t{0} : v);
  return (b >> 63) != 0 ? ~b : b | (std::uint64_t{1} << 63);
}

}  // namespace

void copy_model(nn::ConstVecView src, nn::VecView dst, ModelSplit split) {
  HM_CHECK(src.size() == dst.size());
  for_model_blocks(split, dst.size(), [&](std::size_t lo, std::size_t hi) {
    tensor::copy(src.subspan(lo, hi - lo), dst.subspan(lo, hi - lo));
  });
}

Participants Participants::from_draws(const std::vector<index_t>& draws) {
  Participants p;
  p.total = static_cast<index_t>(draws.size());
  std::unordered_map<index_t, std::size_t> slot_of;
  slot_of.reserve(draws.size());
  for (const index_t id : draws) {
    const auto [it, inserted] = slot_of.try_emplace(id, p.ids.size());
    if (inserted) {
      p.ids.push_back(id);
      p.multiplicity.push_back(1);
    } else {
      ++p.multiplicity[it->second];
    }
  }
  return p;
}

Participants Participants::subset(const std::vector<char>& mask) const {
  HM_CHECK(mask.size() == ids.size());
  Participants s;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!mask[i]) continue;
    s.ids.push_back(ids[i]);
    s.multiplicity.push_back(multiplicity[i]);
    s.total += multiplicity[i];
  }
  return s;
}

void weighted_average(const std::vector<std::vector<scalar_t>>& vectors,
                      const Participants& parts, std::vector<scalar_t>& out,
                      ModelSplit split) {
  robust_weighted_average(vectors, parts, AggregateSpec{}, out, split);
}

void robust_combine(const std::vector<const std::vector<scalar_t>*>& srcs,
                    const std::vector<index_t>& mults, index_t total,
                    const AggregateSpec& agg, nn::VecView out,
                    ModelSplit split) {
  HM_CHECK(agg.kind != Aggregate::kMean);
  HM_CHECK(!srcs.empty() && mults.size() == srcs.size() && total > 0);
  HM_CHECK_MSG(agg.trim_frac >= 0 && agg.trim_frac < scalar_t{0.5},
               "trim_frac must be in [0, 0.5), got " << agg.trim_frac);
  const std::size_t m = srcs.size();
  const std::size_t dim = out.size();
  for (std::size_t i = 0; i < m; ++i) {
    HM_CHECK(srcs[i]->size() == dim);
    HM_CHECK(mults[i] >= 1);
  }
  // Trim floor(trim_frac * total) weight units per side, capped so at
  // least one unit survives. Integer weights make the cap and the
  // median's tie test exact, never a float comparison.
  const index_t trim =
      std::min(static_cast<index_t>(agg.trim_frac *
                                    static_cast<scalar_t>(total)),
               (total - 1) / 2);
  // Per-coordinate (order key, source index) pairs, sorted ascending.
  // The index tiebreak pins the order among equal keys, and the sorted
  // order is also the accumulation order for the trimmed mean. Each
  // coordinate is independent, so blocks of them can run anywhere.
  for_model_blocks(split, dim, [&](std::size_t first, std::size_t last) {
    std::vector<std::pair<std::uint64_t, std::size_t>> order(m);
    for (std::size_t c = first; c < last; ++c) {
      for (std::size_t i = 0; i < m; ++i) {
        order[i] = {order_key((*srcs[i])[c]), i};
      }
      std::sort(order.begin(), order.end());
      const auto sorted = [&](std::size_t j) {
        return (*srcs[order[j].second])[c];
      };
      if (agg.kind == Aggregate::kMedian) {
        index_t cum = 0;
        std::size_t j = 0;
        for (; j < m; ++j) {
          cum += mults[order[j].second];
          if (2 * cum >= total) break;
        }
        if (2 * cum == total) {
          // Even split: exactly half the weight is at or below order[j],
          // so the median is the midpoint of the straddling values.
          out[c] = scalar_t{0.5} * (sorted(j) + sorted(j + 1));
        } else {
          out[c] = sorted(j);
        }
      } else {  // kTrimmedMean
        scalar_t acc = 0;
        const index_t lo = trim;  // keep weight units in [lo, hi)
        const index_t hi = total - trim;
        index_t pos = 0;
        for (std::size_t j = 0; j < m; ++j) {
          const index_t w = mults[order[j].second];
          const index_t a = std::max(pos, lo);
          const index_t b = std::min(pos + w, hi);
          if (b > a) acc += static_cast<scalar_t>(b - a) * sorted(j);
          pos += w;
        }
        out[c] = acc / static_cast<scalar_t>(total - 2 * trim);
      }
    }
  });
}

namespace {

/// Combine srcs[i] at weight mults[i] / total: the fused mean kernels for
/// kMean, robust_combine otherwise.
void combine(const std::vector<const std::vector<scalar_t>*>& srcs,
             const std::vector<index_t>& mults, index_t total,
             const AggregateSpec& agg, std::vector<scalar_t>& out,
             const ModelSplit& split) {
  if (agg.kind != Aggregate::kMean) {
    robust_combine(srcs, mults, total, agg, out, split);
    return;
  }
  const scalar_t inv_total = scalar_t{1} / static_cast<scalar_t>(total);
  accumulate_weighted(
      srcs.size(),
      [&](std::size_t i) {
        return static_cast<scalar_t>(mults[i]) * inv_total;
      },
      [&](std::size_t i) -> const std::vector<scalar_t>& { return *srcs[i]; },
      out, split);
}

}  // namespace

void robust_weighted_average(
    const std::vector<std::vector<scalar_t>>& vectors,
    const Participants& parts, const AggregateSpec& agg,
    std::vector<scalar_t>& out, ModelSplit split) {
  HM_CHECK(!parts.ids.empty() && parts.total > 0);
  std::vector<const std::vector<scalar_t>*> srcs(parts.ids.size());
  for (std::size_t i = 0; i < parts.ids.size(); ++i) {
    srcs[i] = &vectors[static_cast<std::size_t>(parts.ids[i])];
  }
  combine(srcs, parts.multiplicity, parts.total, agg, out, split);
}

namespace {

/// decay^age by repeated multiplication — no libm pow, so the result is
/// bit-identical across platforms like everything else in the trainers.
scalar_t decay_pow(scalar_t decay, index_t age) {
  scalar_t df = 1;
  for (index_t i = 0; i < age; ++i) df *= decay;
  return df;
}

/// Materialize a casualty's substitute vector into `buf`:
/// decay^age * stale + (1 - decay^age) * fallback, or a plain copy of
/// `fallback` when no stale update exists.
void make_blend(const StaleStore& stale, index_t id, scalar_t stale_decay,
                index_t round, const std::vector<scalar_t>& fallback,
                std::vector<scalar_t>& buf) {
  buf.resize(fallback.size());
  if (!stale.has(id)) {
    tensor::copy(fallback, buf);
    return;
  }
  const index_t age = round - stale.last_round[static_cast<std::size_t>(id)];
  const scalar_t df = decay_pow(stale_decay, age);
  tensor::axpby(df, stale.models[static_cast<std::size_t>(id)], scalar_t{0},
                buf);
  tensor::axpy(scalar_t{1} - df, fallback, buf);
}

}  // namespace

bool degraded_weighted_average(
    const std::vector<std::vector<scalar_t>>& vectors,
    const Participants& parts, const std::vector<char>& delivered,
    OnFault policy, scalar_t stale_decay, index_t round, StaleStore& stale,
    const std::vector<scalar_t>& fallback, std::vector<scalar_t>& out,
    const AggregateSpec& agg, parallel::ThreadPool* pool) {
  HM_CHECK(delivered.size() == parts.ids.size());
  // Empty participant set (e.g. Participants::from_draws on zero draws):
  // there is nothing to aggregate — every policy skips the round.
  if (parts.ids.empty()) return false;
  const bool all_delivered =
      std::all_of(delivered.begin(), delivered.end(),
                  [](char c) { return c != 0; });
  if (!all_delivered && policy == OnFault::kSkipRound) return false;

  if (policy != OnFault::kReuseStale) {
    const Participants survivors = parts.subset(delivered);
    if (survivors.ids.empty()) return false;  // skip-round fallback
    robust_weighted_average(vectors, survivors, agg, out, pool);
    return true;
  }

  // kReuseStale: original weights, casualties replaced by their blends.
  // All blends are materialized before the accumulation writes `out`, so
  // `fallback` may alias `out`.
  if (stale.blend.size() < parts.ids.size()) {
    stale.blend.resize(parts.ids.size());
  }
  std::vector<const std::vector<scalar_t>*> srcs(parts.ids.size());
  for (std::size_t i = 0; i < parts.ids.size(); ++i) {
    const index_t id = parts.ids[i];
    if (delivered[i]) {
      srcs[i] = &vectors[static_cast<std::size_t>(id)];
    } else {
      make_blend(stale, id, stale_decay, round, fallback, stale.blend[i]);
      srcs[i] = &stale.blend[i];
    }
  }
  combine(srcs, parts.multiplicity, parts.total, agg, out, pool);
  for (std::size_t i = 0; i < parts.ids.size(); ++i) {
    if (delivered[i]) {
      stale.deliver(parts.ids[i],
                    vectors[static_cast<std::size_t>(parts.ids[i])], round);
    }
  }
  return true;
}

RoundDraw draw_round(const rng::Xoshiro256& round_gen,
                     const std::vector<scalar_t>* weights, index_t n,
                     index_t m, index_t steps, index_t blocks) {
  RoundDraw draw;
  rng::Xoshiro256 sample_gen = round_gen.split(kTagSampleEdges);
  draw.parts = Participants::from_draws(
      weights != nullptr
          ? rng::sample_weighted_with_replacement(*weights, m, sample_gen)
          : rng::sample_without_replacement(n, m, sample_gen));
  if (weights != nullptr) {
    rng::Xoshiro256 ckpt_gen = round_gen.split(kTagCheckpoint);
    draw.c1 = 1 + static_cast<index_t>(ckpt_gen.uniform_index(
                      static_cast<std::uint64_t>(steps)));
    draw.c2 = static_cast<index_t>(
        ckpt_gen.uniform_index(static_cast<std::uint64_t>(blocks)));
  }
  return draw;
}

bool cloud_aggregate(const std::vector<std::vector<scalar_t>>& models,
                     const std::vector<std::vector<scalar_t>>* ckpts,
                     const std::vector<char>& holds_ckpt,
                     const Participants& parts,
                     const std::vector<char>& delivered,
                     const TrainOptions& opts, index_t round,
                     StaleStore& stale, std::vector<scalar_t>& w,
                     std::vector<scalar_t>& checkpoint,
                     parallel::ThreadPool* pool) {
  if (!degraded_weighted_average(models, parts, delivered, opts.on_fault,
                                 opts.stale_decay, round, stale, w, w,
                                 {opts.aggregate, opts.trim_frac}, pool)) {
    return false;
  }
  if (ckpts != nullptr) {
    std::vector<char> held(parts.ids.size(), 1);
    for (std::size_t j = 0; j < held.size(); ++j) {
      held[j] = delivered[j] != 0 &&
                (holds_ckpt.empty() ||
                 holds_ckpt[static_cast<std::size_t>(parts.ids[j])] != 0);
    }
    const Participants survivors = parts.subset(held);
    if (!opts.use_checkpoint || survivors.ids.empty()) {
      tensor::copy(w, checkpoint);
    } else {
      weighted_average(*ckpts, survivors, checkpoint, pool);
    }
  }
  tensor::project_l2_ball(w, opts.w_radius);
  return true;
}

void ascent_step(std::span<const index_t> ids,
                 std::span<const scalar_t> losses, scalar_t eta_p,
                 std::span<const index_t> taus, const SimplexSet& set,
                 std::vector<scalar_t>& p) {
  HM_CHECK(ids.size() == losses.size());
  if (ids.empty()) return;
  const scalar_t scale_v = static_cast<scalar_t>(p.size()) /
                           static_cast<scalar_t>(ids.size());
  scalar_t step = eta_p;
  for (auto t = taus.rbegin(); t != taus.rend(); ++t) {
    step *= static_cast<scalar_t>(*t);
  }
  for (std::size_t s = 0; s < ids.size(); ++s) {
    p[static_cast<std::size_t>(ids[s])] += step * scale_v * losses[s];
  }
  project_capped_simplex(p, set);
}

const data::Dataset& PoisonStore::get(const data::Dataset& shard,
                                      index_t client) {
  const auto i = static_cast<std::size_t>(client);
  if (i >= src.size()) {
    src.resize(i + 1, nullptr);
    flipped.resize(i + 1);
  }
  if (src[i] != &shard) {
    flipped[i] = data::flip_labels(shard);
    src[i] = &shard;
  }
  return flipped[i];
}

void require_inproc(const TrainOptions& opts, const char* trainer) {
  HM_CHECK_MSG(opts.transport.kind == net::TransportKind::kInproc &&
                   opts.taus.empty(),
               trainer << " is a two-layer trainer: it runs in-process on "
                          "a flat client set, got transport '"
                       << net::to_string(opts.transport.kind) << "' and "
                       << opts.taus.size()
                       << " taus (train_hierminimax and train_hierfavg "
                          "take a tree, taus and every backend)");
}

void update_running_average(std::vector<scalar_t>& avg,
                            const std::vector<scalar_t>& value, index_t k,
                            parallel::ThreadPool* pool) {
  HM_CHECK(avg.size() == value.size() && k >= 0);
  const scalar_t w_old =
      static_cast<scalar_t>(k) / static_cast<scalar_t>(k + 1);
  const scalar_t w_new = scalar_t{1} / static_cast<scalar_t>(k + 1);
  for_model_blocks(pool, avg.size(), [&](std::size_t lo, std::size_t hi) {
    tensor::axpby(w_new, nn::ConstVecView(value).subspan(lo, hi - lo), w_old,
                  nn::VecView(avg).subspan(lo, hi - lo));
  });
}

std::vector<scalar_t> uniform_weights(index_t n) {
  HM_CHECK(n > 0);
  return std::vector<scalar_t>(static_cast<std::size_t>(n),
                               scalar_t{1} / static_cast<scalar_t>(n));
}

std::vector<index_t> loss_batch(index_t shard_size, index_t batch_size,
                                rng::Xoshiro256 gen) {
  if (batch_size <= 0) return nn::all_indices(shard_size);
  std::vector<index_t> batch(static_cast<std::size_t>(batch_size));
  for (auto& idx : batch) {
    idx = static_cast<index_t>(
        gen.uniform_index(static_cast<std::uint64_t>(shard_size)));
  }
  return batch;
}

void publish_comm_metrics(const sim::CommStats& comm) {
#if HM_OBS_ENABLED
  auto& reg = obs::registry();
  // One gauge per counter; extra_rtts, a double, has none.
  sim::for_each_counter(comm, [&reg](const char* link, const char* name,
                                     const auto& v) {
    if constexpr (std::is_integral_v<std::remove_cvref_t<decltype(v)>>) {
      const std::string at = link != nullptr ? std::string(link) + "." : "";
      reg.gauge("sim.comm." + at + name).set(static_cast<std::int64_t>(v));
    }
  });
#else
  (void)comm;
#endif
}

void maybe_record(const nn::Model& model, const data::FederatedDataset& fed,
                  parallel::ThreadPool& pool, index_t round,
                  index_t total_rounds, index_t eval_every,
                  const std::vector<scalar_t>& w, const sim::CommStats& comm,
                  metrics::TrainingHistory& history) {
  publish_comm_metrics(comm);
  const bool final_round = round == total_rounds;
  const bool due = eval_every > 0 && round % eval_every == 0;
  if (!final_round && !due) return;
  HM_OBS_SPAN("eval", "algo", round, fed.num_edges());
  metrics::RoundRecord record;
  record.round = round;
  record.comm = comm;
  metrics::EdgeEvaluation eval = metrics::evaluate_edges(model, w, fed, pool);
  record.edge_acc = std::move(eval.accuracy);
  record.summary = metrics::summarize(record.edge_acc);
  scalar_t total = 0;
  for (const scalar_t l : eval.loss) total += l;
  record.global_loss = total / static_cast<scalar_t>(eval.loss.size());
  history.add(std::move(record));
}

// ——— Snapshot encode/decode ———

namespace {

void encode_stream_state(io::ByteWriter& w, const rng::StreamState& st) {
  for (const std::uint64_t word : st.s) w.put_u64(word);
  w.put_u64(st.has_cached_normal ? 1 : 0);
  w.put_f64(st.cached_normal);
}

rng::StreamState decode_stream_state(io::ByteReader& r) {
  rng::StreamState st;
  for (auto& word : st.s) word = r.u64();
  const std::uint64_t flag = r.u64();
  HM_CHECK_MSG(flag <= 1, "rng stream state: bad normal-cache flag " << flag);
  st.has_cached_normal = flag == 1;
  st.cached_normal = r.f64();
  return st;
}

/// The COMM layout: every counter in for_each_counter order, as u64,
/// and extra_rtts as f64.
void encode_comm(io::ByteWriter& w, const sim::CommStats& c) {
  sim::for_each_counter(c, [&w](const char*, const char*, const auto& v) {
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>, double>) {
      w.put_f64(v);
    } else {
      w.put_u64(v);
    }
  });
}

void decode_comm(io::ByteReader& r, sim::CommStats& c) {
  sim::for_each_counter(c, [&r](const char*, const char*, auto& v) {
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>, double>) {
      v = r.f64();
    } else {
      v = r.u64();
    }
  });
}

std::vector<std::uint8_t> encode_history(
    const metrics::TrainingHistory& history) {
  io::ByteWriter w;
  w.put_u64(history.size());
  for (const auto& rec : history.records()) {
    w.put_i64(rec.round);
    encode_comm(w, rec.comm);
    w.put_u64(rec.edge_acc.size());
    for (const scalar_t a : rec.edge_acc) w.put_f64(a);
    w.put_f64(rec.summary.average);
    w.put_f64(rec.summary.worst);
    w.put_f64(rec.summary.best);
    w.put_f64(rec.summary.variance_pct2);
    w.put_f64(rec.global_loss);
  }
  return w.take();
}

void decode_history(io::ByteReader& r, metrics::TrainingHistory& history) {
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    metrics::RoundRecord rec;
    rec.round = static_cast<index_t>(r.i64());
    decode_comm(r, rec.comm);
    const std::uint64_t accs = r.u64();
    HM_CHECK_MSG(accs * 8 <= r.remaining(),
                 "history record " << i << " declares " << accs
                                   << " edge accuracies but only "
                                   << r.remaining() << " bytes remain");
    rec.edge_acc.resize(accs);
    for (auto& a : rec.edge_acc) a = r.f64();
    rec.summary.average = r.f64();
    rec.summary.worst = r.f64();
    rec.summary.best = r.f64();
    rec.summary.variance_pct2 = r.f64();
    rec.global_loss = r.f64();
    history.add(std::move(rec));
  }
  HM_CHECK_MSG(r.remaining() == 0, "history section has trailing bytes");
}

/// Is the stale store live for this run? init() sizes last_round; a
/// default-constructed store (fault-free path) leaves it empty.
bool stale_live(const StaleStore* stale) {
  return stale != nullptr && !stale->last_round.empty();
}

/// The OPTS section: one "name=value\n" line per record row.
std::vector<std::uint8_t> encode_options(const OptionsRecord& record) {
  std::string text;
  for (const auto& [name, value] : record) text += name + "=" + value + "\n";
  return {text.begin(), text.end()};
}

OptionsRecord decode_options(const std::vector<std::uint8_t>& bytes,
                             const std::string& path) {
  std::istringstream in(std::string(bytes.begin(), bytes.end()));
  OptionsRecord record;
  for (std::string line; std::getline(in, line);) {
    const std::size_t eq = line.find('=');
    HM_CHECK_MSG(eq != std::string::npos,
                 "snapshot '" << path << "' has a malformed OPTS line '"
                              << line.substr(0, 64) << "'");
    record.emplace_back(line.substr(0, eq), line.substr(eq + 1));
  }
  return record;
}

/// The value of option `name` in `record`, or "(none)".
std::string option_value(const OptionsRecord& record,
                         const std::string& name) {
  const auto it = std::find_if(record.begin(), record.end(),
                               [&](const auto& r) { return r.first == name; });
  return it == record.end() ? "(none)" : it->second;
}

}  // namespace

namespace {

/// Put the pointed-at state into `s`, an io::Snapshot or an
/// io::SnapshotEncoder: both lay the same sections out in the same order.
template <typename Sink>
void put_run_state(const RunState& st, index_t next_round, Sink& s) {
  HM_CHECK(st.root != nullptr && st.w != nullptr && st.history != nullptr);
  s.put_u64(kSnapAlgo, st.algo_id);
  if (!st.options.empty()) s.put_bytes(kSnapOpts, encode_options(st.options));
  s.put_u64(kSnapRound, static_cast<std::uint64_t>(next_round));
  {
    io::ByteWriter w;
    encode_stream_state(w, st.root->state());
    s.put_bytes(kSnapRng, w.take());
  }
  s.put_f64_vec(kSnapW, *st.w);
  if (st.p) s.put_f64_vec(kSnapP, *st.p);
  if (st.w_avg) s.put_f64_vec(kSnapWAvg, *st.w_avg);
  if (st.p_avg) s.put_f64_vec(kSnapPAvg, *st.p_avg);
  if (st.aux) s.put_f64_vec(kSnapAux, *st.aux);
  if (st.aux_avg) s.put_f64_vec(kSnapAuxAvg, *st.aux_avg);
  if (st.comm) {
    io::ByteWriter w;
    encode_comm(w, *st.comm);
    s.put_bytes(kSnapComm, w.take());
  }
  if (stale_live(st.stale)) {
    s.put_f64_vec_list(kSnapStaleModels, st.stale->models);
    std::vector<std::int64_t> rounds(st.stale->last_round.begin(),
                                     st.stale->last_round.end());
    s.put_i64_vec(kSnapStaleRounds, rounds);
  }
  s.put_bytes(kSnapHistory, encode_history(*st.history));
}

}  // namespace

io::Snapshot make_run_snapshot(const RunState& st, index_t next_round) {
  io::Snapshot s;
  put_run_state(st, next_round, s);
  return s;
}

index_t resume_round(const std::string& resume_from, const RunState& st) {
  if (resume_from.empty()) return 0;
  HM_CHECK(st.root != nullptr && st.w != nullptr && st.history != nullptr);
  io::LoadMiss miss;
  const auto loaded = io::load_latest_snapshot(resume_from, &miss);
  if (!loaded) {
    // A damaged store (candidates exist, all corrupt/torn) must not be
    // confused with a fresh start: silently retraining from round 0
    // would discard the progress the user asked to resume.
    HM_CHECK_MSG(!miss.hard, "resume from '" << resume_from
                                             << "' failed: " << miss.message);
    log::info() << "resume: " << miss.message;
    return 0;
  }
  const io::Snapshot& s = loaded->snapshot;

  const std::uint64_t algo = s.get_u64(kSnapAlgo);
  HM_CHECK_MSG(algo == st.algo_id,
               "snapshot '" << loaded->path << "' was written by algorithm id "
                            << algo << ", this run is algorithm id "
                            << st.algo_id);
  // Every option that shapes the trajectory is in the record, so one
  // loop over its rows (this run's, then any only the snapshot has)
  // compares them all.
  HM_CHECK_MSG(s.has(kSnapOpts),
               "snapshot '" << loaded->path
                            << "' has no OPTS section (it predates the "
                               "options record), so a resume cannot be "
                               "checked to be bit-exact");
  const OptionsRecord saved =
      decode_options(s.get_bytes(kSnapOpts), loaded->path);
  const auto schedule = [](const OptionsRecord& r) {
    return "tree " + option_value(r, "tree") + " taus " +
           option_value(r, "taus");
  };
  OptionsRecord rows = st.options;
  rows.insert(rows.end(), saved.begin(), saved.end());
  for (const auto& row : rows) {
    const std::string was = option_value(saved, row.first);
    const std::string now = option_value(st.options, row.first);
    HM_CHECK_MSG(was == now,
                 "snapshot '" << loaded->path << "' was written on "
                              << schedule(saved) << ", this run uses "
                              << schedule(st.options) << "; " << row.first
                              << ": snapshot " << was << ", this run " << now
                              << " — resume would not be bit-exact");
  }
  const std::uint64_t next_round = s.get_u64(kSnapRound);
  HM_CHECK_MSG(next_round >= 1 && next_round <= (1ULL << 40),
               "snapshot '" << loaded->path << "' has implausible round "
                            << next_round);

  // The CRC proves the bytes are the ones written, not that they are a
  // state a trainer can continue from: NaN/Inf would poison every later
  // aggregate and projection, so a restored vector must be finite.
  const auto require_finite = [&](const std::vector<scalar_t>& v,
                                  const std::string& section) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      HM_CHECK_MSG(std::isfinite(v[i]),
                   "snapshot '" << loaded->path << "' section '" << section
                                << "' has non-finite value " << v[i]
                                << " at index " << i);
    }
  };
  const auto restore_vec = [&](std::uint32_t tag, std::vector<scalar_t>* dst,
                               const char* name) {
    HM_CHECK_MSG((dst != nullptr) == s.has(tag),
                 "snapshot '" << loaded->path << "' "
                              << (s.has(tag) ? "has" : "lacks") << " a '"
                              << name
                              << "' section but this trainer expects the "
                                 "opposite — algorithm/options mismatch");
    if (dst == nullptr) return;
    std::vector<scalar_t> v = s.get_f64_vec(tag);
    HM_CHECK_MSG(v.size() == dst->size(),
                 "snapshot '" << loaded->path << "' section '" << name
                              << "' has " << v.size() << " values, this run "
                              << "expects " << dst->size()
                              << " — model/topology mismatch");
    require_finite(v, name);
    *dst = std::move(v);
  };
  restore_vec(kSnapW, st.w, "w");
  restore_vec(kSnapP, st.p, "p");
  restore_vec(kSnapWAvg, st.w_avg, "w_avg");
  restore_vec(kSnapPAvg, st.p_avg, "p_avg");
  restore_vec(kSnapAux, st.aux, "aux");
  restore_vec(kSnapAuxAvg, st.aux_avg, "aux_avg");

  {
    const auto& bytes = s.get_bytes(kSnapRng);
    io::ByteReader r(bytes.data(), bytes.size());
    st.root->set_state(decode_stream_state(r));
    HM_CHECK_MSG(r.remaining() == 0, "rng section has trailing bytes");
  }

  HM_CHECK_MSG((st.comm != nullptr) == s.has(kSnapComm),
               "snapshot '" << loaded->path
                            << "' comm-stats section presence mismatch");
  if (st.comm) {
    const auto& bytes = s.get_bytes(kSnapComm);
    io::ByteReader r(bytes.data(), bytes.size());
    decode_comm(r, *st.comm);
    HM_CHECK_MSG(r.remaining() == 0, "comm section has trailing bytes");
  }

  HM_CHECK_MSG(stale_live(st.stale) == s.has(kSnapStaleRounds),
               "snapshot '"
                   << loaded->path
                   << "' stale-store presence mismatch: the store is kept "
                      "iff on_fault is stale, so the snapshot was written "
                      "under an older rule (fault plan or transport)");
  HM_CHECK_MSG(s.has(kSnapStaleModels) == s.has(kSnapStaleRounds),
               "snapshot '" << loaded->path
                            << "' has half a stale store (models without "
                               "rounds or vice versa)");
  if (stale_live(st.stale)) {
    auto models = s.get_f64_vec_list(kSnapStaleModels);
    const auto rounds = s.get_i64_vec(kSnapStaleRounds);
    HM_CHECK_MSG(models.size() == rounds.size() &&
                     models.size() == st.stale->last_round.size(),
                 "snapshot '" << loaded->path << "' stale store covers "
                              << models.size()
                              << " participants, this run has "
                              << st.stale->last_round.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
      require_finite(models[m], "stale_models[" + std::to_string(m) + "]");
    }
    st.stale->models = std::move(models);
    st.stale->last_round.assign(rounds.begin(), rounds.end());
  }

  {
    HM_CHECK_MSG(st.history->empty(),
                 "resume_round must run before any history is recorded");
    const auto& bytes = s.get_bytes(kSnapHistory);
    io::ByteReader r(bytes.data(), bytes.size());
    decode_history(r, *st.history);
  }

  log::info() << "resumed from snapshot '" << loaded->path << "' at round "
              << next_round
              << (loaded->rejected.empty()
                      ? ""
                      : " (degraded past newer corrupt candidates)");
  return static_cast<index_t>(next_round);
}

void snapshot_round_end(const io::SnapshotPolicy& policy, index_t k,
                        const RunState& st, io::SnapshotWriter& writer) {
  // Round k - 1's write, if any, is joined here at the latest.
  writer.wait();
  if (policy.enabled() && (k + 1) % policy.every_k_rounds == 0) {
    writer.save(k + 1, [&](io::SnapshotEncoder& enc) {
      put_run_state(st, k + 1, enc);
    });
  }
  if (policy.crash_after_round >= 0 && k == policy.crash_after_round) {
    writer.wait();  // the crash comes after this round's snapshot is durable
    std::ostringstream os;
    os << "simulated crash after round " << k;
    throw io::SimulatedCrash(os.str());
  }
}

}  // namespace hm::algo::detail
