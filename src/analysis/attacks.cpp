#include "analysis/attacks.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <numeric>
#include <stdexcept>

#include "analysis/convergence.hpp"
#include "analysis/fft.hpp"
#include "analysis/pca.hpp"
#include "obs/obs.hpp"
#include "obs/phase_timer.hpp"
#include "util/parallel.hpp"

namespace rftc::analysis {

/// One engine.report() pass serves success, mean rank and the peak
/// correlation (the old code paid two full report passes per checkpoint via
/// key_recovered() + mean_rank()).
AttackCheckpoint evaluate_attack_checkpoint(const CpaEngine& engine,
                                            const aes::Block& correct_key) {
  AttackCheckpoint ev;
  const std::vector<CpaEngine::ByteReport> reports = engine.report();
  if (reports.empty()) return ev;
  ev.recovered = true;
  double rank_sum = 0.0;
  for (const CpaEngine::ByteReport& r : reports) {
    const std::uint8_t correct =
        correct_key[static_cast<std::size_t>(r.byte_pos)];
    const int best = r.best_guess();
    ev.recovered = ev.recovered && best == correct;
    rank_sum += r.rank(correct);
    ev.peak_corr =
        std::max(ev.peak_corr, r.peak_abs_corr[static_cast<std::size_t>(best)]);
  }
  ev.mean_rank = rank_sum / static_cast<double>(reports.size());
  return ev;
}

std::vector<int> normalized_byte_positions(const AttackParams& params) {
  std::vector<int> bytes = params.byte_positions;
  if (bytes.empty()) {
    bytes.resize(16);
    std::iota(bytes.begin(), bytes.end(), 0);
  }
  return bytes;
}

std::vector<std::size_t> normalized_checkpoints(const AttackParams& params,
                                                std::size_t total) {
  std::vector<std::size_t> checkpoints = params.checkpoints;
  if (checkpoints.empty()) checkpoints = {total};
  std::sort(checkpoints.begin(), checkpoints.end());
  checkpoints.erase(
      std::remove_if(checkpoints.begin(), checkpoints.end(),
                     [&](std::size_t c) { return c == 0 || c > total; }),
      checkpoints.end());
  if (checkpoints.empty()) checkpoints = {total};
  return checkpoints;
}

namespace {

/// Phase the preprocessing transform of an attack kind bills to (nullptr
/// for plain CPA, which has no transform).
const char* transform_phase(AttackKind kind) {
  switch (kind) {
    case AttackKind::kCpa: return nullptr;
    case AttackKind::kDtwCpa: return obs::kPhaseDtw;
    case AttackKind::kPcaCpa: return obs::kPhasePca;
    case AttackKind::kFftCpa: return obs::kPhaseFft;
    case AttackKind::kSwCpa: return obs::kPhaseSw;
  }
  return nullptr;
}

/// The streamed and in-RAM campaigns share one core that walks *segments*:
/// contiguous runs of (already downsampled) traces with a global offset.
/// The in-RAM path is a single segment (the whole set); the store path is
/// one segment per chunk.  Segment boundaries never change the result:
/// traces feed the engine one at a time in global order, and transform
/// tiles write disjoint rows — so streamed results are bit-identical to
/// the in-RAM path (the golden streaming test pins this).
struct SegmentSource {
  /// Total traces and post-downsample sample count.
  std::size_t total = 0;
  std::size_t samples = 0;
  /// First `n` downsampled traces, for preprocessing fits (DTW reference,
  /// PCA basis).  The reference stays valid until the source dies.
  std::function<const trace::TraceSet&(std::size_t n)> prefix;
  /// Calls `feed(segment, first_global_index)` over consecutive segments.
  std::function<void(
      const std::function<void(const trace::TraceSet&, std::size_t)>&)>
      for_each_segment;
};

AttackOutcome run_attack_impl(const SegmentSource& src,
                              const aes::Block& correct_key,
                              const AttackParams& params) {
  if (src.total == 0) throw std::invalid_argument("run_attack: empty set");
  RFTC_OBS_SPAN(attack_span, "analysis", "run_attack");
  attack_span.arg("traces", static_cast<double>(src.total));
  static obs::Counter& attacks_run =
      obs::Registry::global().counter("analysis.attacks_run");
  attacks_run.inc();
  static obs::Counter& traces_attacked =
      obs::Registry::global().counter("analysis.traces_attacked");

  const std::vector<int> bytes = normalized_byte_positions(params);
  const std::vector<std::size_t> checkpoints =
      normalized_checkpoints(params, src.total);

  // Preprocessing setup.
  std::vector<double> dtw_ref;
  PcaBasis pca;
  std::size_t features = src.samples;
  switch (params.kind) {
    case AttackKind::kCpa:
      break;
    case AttackKind::kDtwCpa: {
      obs::PhaseScope setup_phase(obs::kPhaseDtw);
      // Reference: one real capture, as in elastic alignment [22] — every
      // other trace is warped onto its time base.  (A mean over differently
      // clocked traces would smear the round pulses and give the DP nothing
      // to lock onto.)  Among the first dtw_ref_traces captures we pick the
      // one whose length (completion) is closest to the median so extreme
      // stretches are halved.
      const std::size_t nref =
          std::max<std::size_t>(1, std::min(params.dtw_ref_traces, src.total));
      const trace::TraceSet& head = src.prefix(nref);
      // Rank candidate references by total energy (a proxy for capture
      // length: longer encryptions spread energy further right), and take
      // the median.
      std::vector<std::pair<double, std::size_t>> energy(nref);
      for (std::size_t i = 0; i < nref; ++i) {
        double centroid = 0.0, mass = 0.0;
        const auto tr = head.trace(i);
        for (std::size_t s = 0; s < tr.size(); ++s) {
          centroid += static_cast<double>(tr[s]) * static_cast<double>(s);
          mass += static_cast<double>(tr[s]);
        }
        energy[i] = {mass > 0 ? centroid / mass : 0.0, i};
      }
      std::sort(energy.begin(), energy.end());
      const std::size_t ref_idx = energy[nref / 2].second;
      const auto ref_tr = head.trace(ref_idx);
      dtw_ref.assign(ref_tr.begin(), ref_tr.end());
      break;
    }
    case AttackKind::kPcaCpa: {
      obs::PhaseScope setup_phase(obs::kPhasePca);
      const std::size_t nfit = std::min(params.pca_fit_traces, src.total);
      pca = compute_pca(src.prefix(nfit), params.pca_components, nfit);
      features = pca.dims();
      break;
    }
    case AttackKind::kFftCpa:
      features = next_pow2(src.samples) / 2;
      break;
    case AttackKind::kSwCpa: {
      const std::size_t w = std::max<std::size_t>(1, params.sw_window);
      const std::size_t s = std::max<std::size_t>(1, params.sw_stride);
      features = src.samples >= w ? (src.samples - w) / s + 1 : 1;
      break;
    }
  }

  CpaEngine engine(features, bytes, params.leakage, params.engine_mode);
  AttackOutcome out;
  out.kind = params.kind;

  // Preprocessing transforms are pure per-trace functions that write
  // straight into their feature row, so each tile of traces is transformed
  // in parallel (disjoint feature rows, no per-trace heap work) and then fed
  // to the engine serially in trace order — results are independent of the
  // thread count, the tile size and the segment boundaries.  Tiles never
  // straddle a checkpoint or a segment.
  const std::size_t tile = std::max<std::size_t>(1, engine.batch_size());
  std::vector<float> feat_buf(params.kind == AttackKind::kCpa
                                  ? 0
                                  : tile * features);
  std::size_t next_cp = 0;

  src.for_each_segment([&](const trace::TraceSet& seg, std::size_t first) {
    const auto transform_tile = [&](std::size_t i0, std::size_t i1) {
      par::parallel_for(i0, i1, 1, [&](std::size_t jb, std::size_t je) {
        for (std::size_t i = jb; i < je; ++i) {
          const auto tr = seg.trace(i - first);
          float* feat = feat_buf.data() + (i - i0) * features;
          switch (params.kind) {
            case AttackKind::kCpa:
              break;
            case AttackKind::kDtwCpa:
              dtw_align_into(dtw_ref, tr, params.dtw,
                             std::span<float>(feat, features));
              break;
            case AttackKind::kPcaCpa:
              pca.project_into(tr, std::span<float>(feat, features));
              break;
            case AttackKind::kFftCpa:
              magnitude_spectrum_into(tr, std::span<float>(feat, features));
              break;
            case AttackKind::kSwCpa: {
              const std::size_t w = std::max<std::size_t>(1, params.sw_window);
              const std::size_t s = std::max<std::size_t>(1, params.sw_stride);
              for (std::size_t k = 0; k < features; ++k) {
                double acc = 0.0;
                const std::size_t base = k * s;
                for (std::size_t x = 0; x < w && base + x < tr.size(); ++x)
                  acc += static_cast<double>(tr[base + x]);
                feat[k] = static_cast<float>(acc);
              }
              break;
            }
          }
        }
      });
    };

    std::size_t i = first;
    const std::size_t seg_end = first + seg.size();
    while (i < seg_end) {
      std::size_t block_end = std::min(i + tile, seg_end);
      if (next_cp < checkpoints.size())
        block_end = std::min(block_end, checkpoints[next_cp]);
      if (params.kind == AttackKind::kCpa) {
        obs::PhaseScope kernel_phase(obs::kPhaseCpaKernel);
        for (std::size_t j = i; j < block_end; ++j)
          engine.add(seg.plaintext(j - first), seg.ciphertext(j - first),
                     seg.trace(j - first));
      } else {
        {
          obs::PhaseScope tile_phase(transform_phase(params.kind));
          transform_tile(i, block_end);
        }
        obs::PhaseScope kernel_phase(obs::kPhaseCpaKernel);
        for (std::size_t j = i; j < block_end; ++j)
          engine.add(seg.plaintext(j - first), seg.ciphertext(j - first),
                     std::span<const float>(
                         feat_buf.data() + (j - i) * features, features));
      }
      traces_attacked.inc(block_end - i);
      i = block_end;
      while (next_cp < checkpoints.size() && i == checkpoints[next_cp]) {
        obs::PhaseScope report_phase(obs::kPhaseReport);
        const AttackCheckpoint ev =
            evaluate_attack_checkpoint(engine, correct_key);
        out.checkpoints.push_back(checkpoints[next_cp]);
        out.success.push_back(ev.recovered);
        out.mean_rank.push_back(ev.mean_rank);
        out.peak_corr.push_back(ev.peak_corr);
        // Convergence checkpoint: correlation peak and key rank vs traces —
        // the quantity Fig. 4/Fig. 5 plot as a success-rate curve.
        RFTC_OBS_INSTANT("analysis", "cpa.checkpoint",
                         {"traces", static_cast<double>(checkpoints[next_cp])},
                         {"peak_corr", ev.peak_corr},
                         {"mean_rank", ev.mean_rank});
        if (params.monitor != nullptr)
          params.monitor->observe_cpa(engine, correct_key);
        ++next_cp;
      }
    }
  });
  return out;
}

/// Copies one mapped chunk into a TraceSet, downsampled by `factor` —
/// per-trace box averaging with the exact arithmetic of
/// TraceSet::downsampled, so streamed features match the in-RAM path bit
/// for bit.
trace::TraceSet chunk_to_set(const trace::TraceChunk& c, std::size_t factor) {
  trace::TraceSet raw(c.samples());
  raw.reserve(c.count());
  for (std::size_t k = 0; k < c.count(); ++k)
    raw.add(std::vector<float>(c.trace(k).begin(), c.trace(k).end()),
            c.plaintext(k), c.ciphertext(k));
  return factor > 1 ? raw.downsampled(factor) : raw;
}

}  // namespace

std::string attack_name(AttackKind kind) {
  switch (kind) {
    case AttackKind::kCpa: return "CPA";
    case AttackKind::kPcaCpa: return "PCA-CPA";
    case AttackKind::kDtwCpa: return "DTW-CPA";
    case AttackKind::kFftCpa: return "FFT-CPA";
    case AttackKind::kSwCpa: return "SW-CPA";
  }
  return "?";
}

std::size_t AttackOutcome::first_success() const {
  for (std::size_t i = 0; i < checkpoints.size(); ++i)
    if (success[i]) return checkpoints[i];
  return 0;
}

AttackOutcome run_attack(const trace::TraceSet& raw,
                         const aes::Block& correct_key,
                         const AttackParams& params) {
  if (raw.size() == 0) throw std::invalid_argument("run_attack: empty set");
  const trace::TraceSet set =
      params.downsample > 1 ? raw.downsampled(params.downsample) : raw;

  SegmentSource src;
  src.total = set.size();
  src.samples = set.samples();
  src.prefix = [&set](std::size_t) -> const trace::TraceSet& { return set; };
  src.for_each_segment =
      [&set](const std::function<void(const trace::TraceSet&, std::size_t)>&
                 feed) { feed(set, 0); };
  return run_attack_impl(src, correct_key, params);
}

AttackOutcome run_attack(const trace::TraceStore& store,
                         const aes::Block& correct_key,
                         const AttackParams& params) {
  if (store.size() == 0)
    throw std::invalid_argument("run_attack: empty store");
  const std::size_t factor = std::max<std::size_t>(1, params.downsample);
  if (store.samples() / factor == 0)
    throw std::invalid_argument("run_attack: downsample factor too large");

  // Preprocessing fit window, materialized once.  compute_pca and the DTW
  // reference pick read only the first n traces of the set, so a prefix cut
  // at trace granularity reproduces the in-RAM fit exactly.
  trace::TraceSet head(1);
  std::size_t head_n = 0;
  SegmentSource src;
  src.total = store.size();
  src.samples = store.samples() / factor;
  src.prefix = [&](std::size_t n) -> const trace::TraceSet& {
    if (head_n < n) {
      obs::PhaseScope io(obs::kPhaseStoreIo);
      trace::TraceSet raw_head = store.prefix(n);
      head = factor > 1 ? raw_head.downsampled(factor) : std::move(raw_head);
      head_n = n;
    }
    return head;
  };
  src.for_each_segment =
      [&](const std::function<void(const trace::TraceSet&, std::size_t)>&
              feed) {
        std::size_t first = 0;
        for (std::size_t c = 0; c < store.chunk_count(); ++c) {
          // One chunk resident at a time: the mapping dies with `seg`'s
          // source chunk at the end of each iteration.
          std::optional<trace::TraceSet> seg_opt;
          {
            obs::PhaseScope io(obs::kPhaseStoreIo);
            seg_opt.emplace(chunk_to_set(store.chunk(c), factor));
          }
          const trace::TraceSet& seg = *seg_opt;
          feed(seg, first);
          first += seg.size();
        }
      };
  return run_attack_impl(src, correct_key, params);
}

CpaEngine accumulate_attack_range(const trace::TraceStore& store,
                                  const AttackParams& params, std::size_t t0,
                                  std::size_t t1) {
  if (params.kind != AttackKind::kCpa)
    throw std::invalid_argument(
        "accumulate_attack_range: only plain CPA shards merge bit-exactly");
  if (store.size() == 0)
    throw std::invalid_argument("accumulate_attack_range: empty store");
  const std::size_t factor = std::max<std::size_t>(1, params.downsample);
  if (store.samples() / factor == 0)
    throw std::invalid_argument(
        "accumulate_attack_range: downsample factor too large");

  CpaEngine engine(store.samples() / factor, normalized_byte_positions(params),
                   params.leakage, params.engine_mode);
  static obs::Counter& traces_attacked =
      obs::Registry::global().counter("analysis.traces_attacked");
  store.for_range(
      t0, t1,
      [&](const trace::TraceChunk& c, std::size_t k0, std::size_t k1) {
        // Materialize just the shard's slice of the chunk, downsampled with
        // the exact chunk_to_set arithmetic (box averaging is per trace, so
        // the slice matches the full-chunk conversion bit for bit).
        trace::TraceSet raw(c.samples());
        raw.reserve(k1 - k0);
        {
          obs::PhaseScope io(obs::kPhaseStoreIo);
          for (std::size_t k = k0; k < k1; ++k)
            raw.add(std::vector<float>(c.trace(k).begin(), c.trace(k).end()),
                    c.plaintext(k), c.ciphertext(k));
        }
        const trace::TraceSet seg =
            factor > 1 ? raw.downsampled(factor) : std::move(raw);
        obs::PhaseScope kernel_phase(obs::kPhaseCpaKernel);
        for (std::size_t i = 0; i < seg.size(); ++i)
          engine.add(seg.plaintext(i), seg.ciphertext(i), seg.trace(i));
        traces_attacked.inc(seg.size());
      });
  return engine;
}

}  // namespace rftc::analysis
