// Dynamic Time Warping — the "elastic alignment" preprocessing of van
// Woudenberg et al. [22] that DTW-CPA attacks use to undo random-delay
// countermeasures.
//
// A Sakoe–Chiba band bounds the warping window, turning the O(n^2) DP of
// the paper's background section into O(n·w) per trace — the standard
// engineering choice for attack campaigns on long traces; with the window
// at n the implementation degenerates to the full DP.
//
// For nearest-neighbour style searches (template matching, the planned
// frequency-set optimizer inner loop), dtw_distance additionally supports
// early abandoning: pass `max_distance` (typically the best distance found
// so far) and the call first applies an O(n + m) LB_Kim-style lower bound,
// then prunes DP cells above the cutoff and abandons as soon as a whole
// row exceeds it.  An abandoned call returns the `kDtwAbandoned` sentinel;
// a returned finite value <= max_distance is exactly the unpruned banded
// distance.
//
// Both DPs sweep only the band, over rolling rows: O(n·w) time and O(m)
// DP memory per call, plus an n x band-width move matrix for the
// alignment backtrack.  All DP scratch (rolling rows, move matrix,
// backtrack accumulators) lives in per-thread reusable workspaces, so
// steady-state calls allocate nothing.
#pragma once

#include <limits>
#include <span>
#include <vector>

namespace rftc::analysis {

/// Sentinel returned by dtw_distance when the `max_distance` cutoff proves
/// the true distance exceeds it (lower-bound reject or early abandon).
/// Compares greater than every real distance, so best-so-far updates in a
/// search loop need no special casing.
inline constexpr double kDtwAbandoned =
    std::numeric_limits<double>::infinity();

struct DtwParams {
  /// Sakoe–Chiba band half-width in samples.  0 selects the unconstrained
  /// full O(n^2) DP.
  std::size_t band = 16;
  /// Early-abandon cutoff for dtw_distance: when finite, the call returns
  /// kDtwAbandoned as soon as the distance provably exceeds this value
  /// (LB_Kim prefilter, per-cell pruning, row-minimum abandon).  The
  /// default (infinity) disables pruning entirely.  Results <= the cutoff
  /// are bit-identical to the unpruned DP.  Ignored by dtw_align, which
  /// must always produce a complete warp path.
  double max_distance = std::numeric_limits<double>::infinity();
};

/// DTW distance between `a` and `b` (squared-difference local cost).
/// Returns kDtwAbandoned when params.max_distance is finite and the true
/// distance exceeds it (see DtwParams::max_distance).
double dtw_distance(std::span<const double> a, std::span<const double> b,
                    const DtwParams& params = {});

/// Warp `trace` onto the time base of `reference`: writes into `out`
/// (which must have reference length) the mean of the trace samples the
/// optimal DTW path matches to each reference sample.  When the path end
/// is unreachable, `out` is the trace resampled to reference length.
///
/// The path obeys the Sakoe–Chiba P=1 slope constraint, steps (1,1), (1,2)
/// and (2,1): it may locally stretch or compress time by at most 2x.
/// Unconstrained warping on smooth band-limited traces "aligns" the
/// amplitude noise itself and launders the leakage out of the traces;
/// every practical elastic-alignment implementation constrains the slope
/// for exactly this reason.  It also bounds how much frequency
/// randomization the alignment can undo (a 12 MHz round cannot be matched
/// to a 48 MHz reference), which is the mechanism behind the paper's
/// observation that DTW fails once the frequency spread is large (§8).
///
/// The DP scratch is per-thread and reused, so campaign loops that write
/// straight into their feature rows do no per-call heap work.
void dtw_align_into(std::span<const double> reference,
                    std::span<const float> trace, const DtwParams& params,
                    std::span<float> out);

/// dtw_align_into into a vector resized to reference length (its capacity
/// is reused across calls).
void dtw_align_into(std::span<const double> reference,
                    std::span<const float> trace, const DtwParams& params,
                    std::vector<float>& out);

/// dtw_align_into into a fresh vector.
std::vector<float> dtw_align(std::span<const double> reference,
                             std::span<const float> trace,
                             const DtwParams& params = {});

}  // namespace rftc::analysis
