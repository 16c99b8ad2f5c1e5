#include "analysis/dtw.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "simd/simd.hpp"

namespace rftc::analysis {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Band description for row i (1-based): columns [lo(i), hi(i)] inclusive.
//
// Membership is the symmetric scaled Sakoe–Chiba condition
//   |i*m - j*n| <= w * max(n, m)
// in exact integer arithmetic.  The condition is invariant under swapping
// the inputs (n <-> m with i <-> j), so dtw_distance(a, b) == dtw_distance
// (b, a) for any band — the earlier floor-truncated "center = i*m/n,
// j in [center-w, center+w]" geometry admitted cells in one orientation it
// excluded in the other and broke that symmetry.  For n == m it reduces to
// the classic |i - j| <= w band, cell for cell.
struct Band {
  std::size_t n, m, w;
  /// Half-width in the cross-multiplied (j*n) units.
  std::size_t W() const { return w * std::max(n, m); }
  std::size_t lo(std::size_t i) const {
    const std::size_t im = i * m, width = W();
    if (im <= width) return 1;
    // Smallest j with j*n >= i*m - W.
    return std::max<std::size_t>(1, (im - width + n - 1) / n);
  }
  std::size_t hi(std::size_t i) const {
    // Largest j <= m with j*n <= i*m + W.
    return std::min(m, (i * m + W()) / n);
  }
  /// Upper bound on hi(i) - lo(i) + 1 over all rows (move-matrix stride).
  std::size_t width() const {
    return std::min<std::size_t>(m, 2 * W() / n + 2);
  }
};

std::size_t effective_band(std::size_t n, std::size_t m,
                           const DtwParams& params) {
  return params.band == 0
             ? std::max(n, m)
             : std::max(params.band, (n > m ? n - m : m - n));
}

// Per-thread reusable DP scratch.  rftc::par worker threads each own one
// instance; assign()/resize() keep the underlying capacity, so steady-state
// calls do no heap work (the per-call-allocation fix of the campaign hot
// loop).  DTW never calls itself reentrantly, so a single workspace per
// thread suffices.
struct Workspace {
  std::vector<double> prev, cur;          // dtw_distance rolling rows
  std::vector<double> rows, costs;        // align: rolling D and cost rows
  std::vector<std::uint8_t> moves;        // align: n x band-width steps
  std::vector<std::size_t> row_lo, row_hi;  // align: per-row band bounds
  std::vector<double> sum;                // backtrack accumulators
  std::vector<std::uint32_t> cnt;
};

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

obs::Counter& lb_kim_reject_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("analysis.dtw.lb_kim_rejects");
  return c;
}

obs::Counter& early_abandon_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("analysis.dtw.early_abandons");
  return c;
}

/// O(n + m) lower bound on the banded DTW distance (LB_Kim style).  Every
/// warp path matches (a[0], b[0]) and (a[n-1], b[m-1]), and must match the
/// extremal value of one series against SOME value of the other, so the
/// distance is at least
///   max( d2(a0,b0) [+ d2(a_last,b_last) when distinct cells],
///        (max(a) - max(b))^2, (min(a) - min(b))^2 ).
double lb_kim(std::span<const double> a, std::span<const double> b) {
  const std::size_t n = a.size(), m = b.size();
  const double d0 = a[0] - b[0];
  const double dl = a[n - 1] - b[m - 1];
  double lb = d0 * d0 + (n + m > 2 ? dl * dl : 0.0);
  const auto [amin, amax] = std::minmax_element(a.begin(), a.end());
  const auto [bmin, bmax] = std::minmax_element(b.begin(), b.end());
  const double dmax = *amax - *bmax;
  const double dmin = *amin - *bmin;
  lb = std::max(lb, dmax * dmax);
  lb = std::max(lb, dmin * dmin);
  return lb;
}

}  // namespace

double dtw_distance(std::span<const double> a, std::span<const double> b,
                    const DtwParams& params) {
  const std::size_t n = a.size(), m = b.size();
  if (n == 0 || m == 0) throw std::invalid_argument("dtw_distance: empty");
  const double cutoff = params.max_distance;
  const bool pruned = cutoff < kInf;
  if (pruned && lb_kim(a, b) > cutoff) {
    lb_kim_reject_counter().inc();
    return kDtwAbandoned;
  }
  Band band{n, m, effective_band(n, m, params)};

  // prev[0] = D(0, 0) = 0 anchors the path start: cell (1, 1) reads it as
  // its diagonal predecessor inside the sweep, so no post-sweep patching of
  // row 1 is needed (the band always contains (1, 1) because
  // w >= |n - m| implies |m - n| <= w * max(n, m)).
  Workspace& ws = workspace();
  ws.prev.assign(m + 1, kInf);
  ws.cur.assign(m + 1, kInf);
  double* prev = ws.prev.data();
  double* cur = ws.cur.data();
  prev[0] = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t lo = band.lo(i), hi = band.hi(i);
    // Clearing only the band window keeps the row reset O(band) instead of
    // O(m).  The window must reach the NEXT row's band end: row i+1 reads
    // this buffer (as prev) up to hi(i+1), and with rolling buffers any
    // cell past our own hi would otherwise hold a stale value from row i-2.
    const std::size_t clear_hi = i < n ? std::max(hi, band.hi(i + 1)) : hi;
    std::fill(cur + (lo - 1), cur + clear_hi + 1, kInf);
    const double ai = a[i - 1];
    double row_min = kInf;
    for (std::size_t j = lo; j <= hi; ++j) {
      const double d = ai - b[j - 1];
      const double cost = d * d;
      const double best = std::min({prev[j - 1], prev[j], cur[j - 1]});
      if (best == kInf) continue;
      const double v = cost + best;
      // Cell pruning: any path through a cell above the cutoff already
      // exceeds it (costs are non-negative), so the cell can be treated as
      // unreachable without affecting any result <= cutoff.
      if (pruned && v > cutoff) continue;
      cur[j] = v;
      row_min = std::min(row_min, v);
    }
    if (pruned && row_min == kInf) {
      // Every surviving path prefix exceeds the cutoff: abandon.
      early_abandon_counter().inc();
      return kDtwAbandoned;
    }
    std::swap(prev, cur);
  }
  if (pruned && prev[m] == kInf) {
    early_abandon_counter().inc();
    return kDtwAbandoned;
  }
  return prev[m];
}

namespace {

/// Fills lo[i] = band.lo(i) and hi[i] = band.hi(i) for i = 1..n, stepping
/// the two floor divisions by m per row (quotient and remainder carried)
/// instead of dividing per row.
void band_bounds(const Band& band, std::size_t* lo, std::size_t* hi) {
  const std::size_t n = band.n, m = band.m, W = band.W();
  const std::size_t qm = m / n, rm = m % n;
  const auto step = [&](std::size_t& q, std::size_t& r) {
    q += qm;
    r += rm;
    if (r >= n) {
      r -= n;
      ++q;
    }
  };
  // hi(i) = min(m, floor((i*m + W) / n)).
  std::size_t qh = (m + W) / n, rh = (m + W) % n;
  // lo(i) = 1 while i*m <= W, then max(1, floor((i*m - W + n - 1) / n)).
  std::size_t ql = 0, rl = 0;
  bool lo_started = false;
  for (std::size_t i = 1; i <= n; ++i) {
    hi[i] = std::min(m, qh);
    step(qh, rh);
    const std::size_t im = i * m;
    if (im <= W) {
      lo[i] = 1;
      continue;
    }
    if (!lo_started) {
      const std::size_t num = im - W + n - 1;
      ql = num / n;
      rl = num % n;
      lo_started = true;
    }
    lo[i] = std::max<std::size_t>(1, ql);
    step(ql, rl);
  }
}

/// Slope-constrained alignment (Sakoe–Chiba P = 1 step pattern): the path
/// is built from steps (1,1), (1,2) and (2,1), so each reference sample
/// matches between half and two trace samples.
///
/// Banded rolling-row DP.  The steps read rows i-1 and i-2 only, so three
/// column-indexed rows roll through the sweep and each row is one
/// independent-lane simd::dtw_p1_row call.  The result is bit-identical to
/// the textbook dense (n+1) x (m+1) recurrence (tests/dtw_p1_oracle.hpp):
/// the kernel evaluates the same per-cell expressions in the same
/// association and candidate order with the same strict-< rule, and a
/// candidate whose predecessor is +inf never wins (+inf plus a cost is
/// +inf or NaN), which is what the dense code's explicit "< inf" guards
/// and its j >= 2 / i >= 2 checks express.  Every cell a row reads is
/// either written by the sweep or +inf, exactly as in the dense matrix:
/// rows carry kPad cells of +inf padding before column 0, and after each
/// row the stale cells the next two rows read left of its band are reset.
void dtw_align_p1(std::span<const double> reference,
                  std::span<const float> trace, const DtwParams& params,
                  std::span<float> out) {
  const std::size_t n = reference.size(), m = trace.size();
  const Band band{n, m, effective_band(n, m, params)};
  const std::size_t bw = band.width();

  Workspace& ws = workspace();
  ws.row_lo.resize(n + 1);
  ws.row_hi.resize(n + 1);
  std::size_t* lo_of = ws.row_lo.data();
  std::size_t* hi_of = ws.row_hi.data();
  band_bounds(band, lo_of, hi_of);

  // Column j of a row lives at index j + kPad; the padding makes the
  // (1,2) step's read of column j - 2 = -1 a +inf cell.
  constexpr std::size_t kPad = 2;
  const std::size_t stride = m + 1 + kPad;
  ws.rows.assign(3 * stride, kInf);
  ws.costs.assign(2 * stride, 0.0);
  double* d0 = ws.rows.data() + kPad;  // row i (being written)
  double* d1 = d0 + stride;            // row i-1
  double* d2 = d1 + stride;            // row i-2
  double* c0 = ws.costs.data() + kPad;  // costs of row i
  double* c1 = c0 + stride;             // costs of row i-1
  d1[0] = 0.0;  // D(0, 0) anchors the path start
  // Every cell of [lo(i), hi(i)] is written, so the move matrix needs no
  // initialisation; the backtrack never reads outside a row's band.
  if (ws.moves.size() < n * bw) ws.moves.resize(n * bw);
  std::uint8_t* moves = ws.moves.data();

  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t lo = lo_of[i], hi = hi_of[i];
    // Costs of row i: the (1,2) step reads column lo - 1, and row i + 1's
    // (2,1) step reads this row's costs up to hi(i + 1).
    const double ri = reference[i - 1];
    for (std::size_t j = std::max<std::size_t>(1, lo - 1),
                     end = hi_of[std::min(i + 1, n)];
         j <= end; ++j) {
      const double d = ri - static_cast<double>(trace[j - 1]);
      c0[j] = d * d;
    }
    simd::dtw_p1_row(c0 + lo, c1 + lo, d1 + lo - 1, d2 + lo - 1, d0 + lo,
                     moves + (i - 1) * bw, hi - lo + 1);
    // Rows i + 1 and i + 2 read this row over [lo(i+1) - 2, hi(i+2) - 1].
    // The two cells left of the band may hold row i - 3's values: reset
    // them.  Band bounds never decrease, so no earlier row of this buffer
    // wrote right of hi, and those cells are still +inf from the fill.
    d0[static_cast<std::ptrdiff_t>(lo) - 2] = kInf;
    d0[static_cast<std::ptrdiff_t>(lo) - 1] = kInf;
    double* spare = d2;
    d2 = d1;
    d1 = d0;
    d0 = spare;
    std::swap(c0, c1);
  }

  // Backtrack, accumulating matched trace samples per reference index.
  ws.sum.assign(n, 0.0);
  ws.cnt.assign(n, 0);
  std::vector<double>& sum = ws.sum;
  std::vector<std::uint32_t>& cnt = ws.cnt;
  if (d1[m] >= kInf) {
    // End point unreachable under the slope constraint (extreme stretch):
    // return the trace unwarped (resampled if lengths differ) — the
    // alignment honestly failed, as it does on hardware.
    for (std::size_t k = 0; k < n; ++k)
      out[k] = trace[std::min(m - 1, k * m / n)];
    return;
  }
  const auto step_at = [&](std::size_t i, std::size_t j) -> std::uint8_t {
    const std::size_t lo = lo_of[i];
    return j >= lo && j <= hi_of[i] ? moves[(i - 1) * bw + (j - lo)] : 255;
  };
  std::size_t i = n, j = m;
  while (i >= 1 && j >= 1) {
    sum[i - 1] += static_cast<double>(trace[j - 1]);
    ++cnt[i - 1];
    const std::uint8_t how = step_at(i, j);
    if (i == 1 && j == 1) break;
    switch (how) {
      case 0:
        --i;
        --j;
        break;
      case 1:
        sum[i - 1] += static_cast<double>(trace[j - 2]);
        ++cnt[i - 1];
        --i;
        j -= 2;
        break;
      case 2:
        sum[i - 1 - 1] += static_cast<double>(trace[j - 1]);
        ++cnt[i - 1 - 1];
        i -= 2;
        --j;
        break;
      default:
        // Should not happen on a reachable path; bail out diagonally.
        if (i > 1) --i;
        if (j > 1) --j;
        break;
    }
  }

  for (std::size_t k = 0; k < n; ++k)
    out[k] = cnt[k] ? static_cast<float>(sum[k] / cnt[k])
                    : static_cast<float>(reference[k]);
}

}  // namespace

void dtw_align_into(std::span<const double> reference,
                    std::span<const float> trace, const DtwParams& params,
                    std::span<float> out) {
  const std::size_t n = reference.size(), m = trace.size();
  if (n == 0 || m == 0) throw std::invalid_argument("dtw_align: empty");
  if (out.size() != n)
    throw std::invalid_argument("dtw_align: output length != reference length");
  // Tally every alignment so heartbeat readers can see DTW progress (the
  // banded DP dominates the dtw phase; one counter bump per call is noise).
  static obs::Counter& alignments =
      obs::Registry::global().counter("analysis.dtw.alignments");
  alignments.inc();
  dtw_align_p1(reference, trace, params, out);
}

void dtw_align_into(std::span<const double> reference,
                    std::span<const float> trace, const DtwParams& params,
                    std::vector<float>& out) {
  out.resize(reference.size());
  dtw_align_into(reference, trace, params, std::span<float>(out));
}

std::vector<float> dtw_align(std::span<const double> reference,
                             std::span<const float> trace,
                             const DtwParams& params) {
  std::vector<float> out;
  dtw_align_into(reference, trace, params, out);
  return out;
}

}  // namespace rftc::analysis
