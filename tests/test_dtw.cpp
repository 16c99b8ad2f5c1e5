#include "analysis/dtw.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace rftc::analysis {
namespace {

std::vector<double> to_double(const std::vector<float>& v) {
  return {v.begin(), v.end()};
}

/// Naive full-matrix O(n*m) DP reference for dtw_distance: the textbook
/// recurrence over every in-band cell, with the same symmetric band
/// membership |i*m - j*n| <= w * max(n, m) the production code documents.
/// No rolling rows, no early exits — a deliberately independent
/// implementation to pin the banded sweep against.
double naive_dtw(const std::vector<double>& a, const std::vector<double>& b,
                 std::size_t band) {
  const std::size_t n = a.size(), m = b.size();
  const std::size_t w =
      band == 0 ? std::max(n, m) : std::max(band, (n > m ? n - m : m - n));
  const auto in_band = [&](std::size_t i, std::size_t j) {
    const auto lhs = static_cast<long long>(i * m) -
                     static_cast<long long>(j * n);
    return static_cast<unsigned long long>(lhs < 0 ? -lhs : lhs) <=
           static_cast<unsigned long long>(w) * std::max(n, m);
  };
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> d(n + 1, std::vector<double>(m + 1, inf));
  d[0][0] = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      if (!in_band(i, j)) continue;
      const double best =
          std::min({d[i - 1][j - 1], d[i - 1][j], d[i][j - 1]});
      if (best == inf) continue;
      const double diff = a[i - 1] - b[j - 1];
      d[i][j] = diff * diff + best;
    }
  }
  return d[n][m];
}

TEST(DtwDistance, IdenticalSequencesHaveZeroDistance) {
  const std::vector<double> a = {1, 2, 3, 4, 5, 4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(dtw_distance(a, a), 0.0);
}

TEST(DtwDistance, ShiftedPulseIsRecoverable) {
  // A pulse shifted by 3 samples: DTW distance should be near zero while
  // the Euclidean distance is large.
  std::vector<double> a(32, 0.0), b(32, 0.0);
  for (int i = 10; i < 14; ++i) a[static_cast<std::size_t>(i)] = 5.0;
  for (int i = 13; i < 17; ++i) b[static_cast<std::size_t>(i)] = 5.0;
  EXPECT_LT(dtw_distance(a, b, {.band = 8}), 1e-9);
  double euclid = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    euclid += (a[i] - b[i]) * (a[i] - b[i]);
  EXPECT_GT(euclid, 100.0);
}

TEST(DtwDistance, MonotoneInMismatch) {
  std::vector<double> a(16, 0.0);
  a[8] = 10.0;
  std::vector<double> b = a;
  b[8] = 9.0;
  std::vector<double> c = a;
  c[8] = 0.0;
  EXPECT_LT(dtw_distance(a, b), dtw_distance(a, c));
}

TEST(DtwDistance, EmptyInputThrows) {
  std::vector<double> a, b = {1.0};
  EXPECT_THROW(dtw_distance(a, b), std::invalid_argument);
}

TEST(DtwDistance, UnconstrainedMatchesWideBand) {
  Xoshiro256StarStar rng(3);
  std::vector<double> a(40), b(40);
  for (auto& v : a) v = rng.gaussian();
  for (auto& v : b) v = rng.gaussian();
  const double full = dtw_distance(a, b, {.band = 0});
  const double wide = dtw_distance(a, b, {.band = 40});
  EXPECT_NEAR(full, wide, 1e-9);
}

TEST(DtwDistance, MatchesNaiveReferenceDp) {
  // Differential fuzz against the full-matrix reference, band disabled and
  // enabled, equal and unequal lengths.  Exact equality: both walk the
  // same cells and sum the same squared differences, only in a different
  // evaluation order of min().
  Xoshiro256StarStar rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n = 1 + rng.uniform(40);
    const std::size_t m = 1 + rng.uniform(40);
    std::vector<double> a(n), b(m);
    for (auto& v : a) v = rng.gaussian();
    for (auto& v : b) v = rng.gaussian();
    for (const std::size_t band : {std::size_t{0}, std::size_t{1},
                                   std::size_t{3}, std::size_t{8}}) {
      const double got = dtw_distance(a, b, {.band = band});
      const double want = naive_dtw(a, b, band);
      EXPECT_DOUBLE_EQ(got, want)
          << "n=" << n << " m=" << m << " band=" << band;
    }
  }
}

TEST(DtwDistance, SymmetricUnderSwappedInputs) {
  // dtw_distance(a, b) == dtw_distance(b, a): the cost is symmetric and
  // the band membership |i*m - j*n| <= w*max(n,m) is invariant under
  // transposing the DP matrix.  The earlier floor-truncated band geometry
  // violated this for n != m with a narrow band (e.g. n=19, m=17, band=1
  // gave 18.36 one way and 22.08 the other).
  Xoshiro256StarStar rng(77);
  for (int iter = 0; iter < 100; ++iter) {
    const std::size_t n = 2 + rng.uniform(30);
    const std::size_t m = 2 + rng.uniform(30);
    std::vector<double> a(n), b(m);
    for (auto& v : a) v = rng.gaussian();
    for (auto& v : b) v = rng.gaussian();
    for (const std::size_t band :
         {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
      EXPECT_DOUBLE_EQ(dtw_distance(a, b, {.band = band}),
                       dtw_distance(b, a, {.band = band}))
          << "n=" << n << " m=" << m << " band=" << band;
    }
  }
}

TEST(DtwDistance, PrunedMatchesNaiveWhenCutoffNotHit) {
  // With max_distance at or above the true distance no abandon may trigger,
  // and cell pruning must not change the result: exact equality with the
  // full-matrix reference, same discipline as MatchesNaiveReferenceDp.
  Xoshiro256StarStar rng(4242);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n = 1 + rng.uniform(40);
    const std::size_t m = 1 + rng.uniform(40);
    std::vector<double> a(n), b(m);
    for (auto& v : a) v = rng.gaussian();
    for (auto& v : b) v = rng.gaussian();
    for (const std::size_t band : {std::size_t{0}, std::size_t{3},
                                   std::size_t{8}}) {
      const double want = naive_dtw(a, b, band);
      EXPECT_DOUBLE_EQ(
          dtw_distance(a, b, {.band = band, .max_distance = want}), want)
          << "exact cutoff, n=" << n << " m=" << m << " band=" << band;
      EXPECT_DOUBLE_EQ(
          dtw_distance(a, b, {.band = band, .max_distance = want * 4 + 1}),
          want)
          << "loose cutoff, n=" << n << " m=" << m << " band=" << band;
    }
  }
}

TEST(DtwDistance, CutoffBelowTrueDistanceReturnsAbandonedSentinel) {
  Xoshiro256StarStar rng(99);
  int abandoned = 0;
  for (int iter = 0; iter < 100; ++iter) {
    const std::size_t n = 2 + rng.uniform(30);
    const std::size_t m = 2 + rng.uniform(30);
    std::vector<double> a(n), b(m);
    for (auto& v : a) v = rng.gaussian();
    for (auto& v : b) v = rng.gaussian();
    const double want = naive_dtw(a, b, 4);
    if (want <= 0.0) continue;
    // Any cutoff strictly below the true distance must yield the sentinel,
    // whether the call dies at the lower bound, mid-sweep, or only at the
    // final cell.
    for (const double frac : {0.9, 0.5, 0.01}) {
      const double got =
          dtw_distance(a, b, {.band = 4, .max_distance = want * frac});
      EXPECT_EQ(got, kDtwAbandoned) << "n=" << n << " m=" << m
                                    << " frac=" << frac;
      ++abandoned;
    }
  }
  EXPECT_GT(abandoned, 0);
}

TEST(DtwDistance, AbandonedSentinelIsInfinity) {
  // Documented contract: the sentinel compares greater than any real
  // distance so best-so-far search loops need no special casing.
  EXPECT_TRUE(std::isinf(kDtwAbandoned));
  EXPECT_GT(kDtwAbandoned, 1e300);
}

TEST(DtwDistance, PruneCountersAdvance) {
  obs::Counter& lb = obs::Registry::global().counter(
      "analysis.dtw.lb_kim_rejects");
  obs::Counter& ea = obs::Registry::global().counter(
      "analysis.dtw.early_abandons");
  const std::uint64_t lb0 = lb.value(), ea0 = ea.value();

  // Wildly offset constant series: LB_Kim (min/max gap) kills this one
  // without touching the DP.
  const std::vector<double> lo(32, 0.0), hi(32, 100.0);
  EXPECT_EQ(dtw_distance(lo, hi, {.max_distance = 1.0}), kDtwAbandoned);
  EXPECT_GT(lb.value(), lb0);
  const std::uint64_t lb1 = lb.value();

  // b is a with its interior reversed: endpoints and extrema all match, so
  // LB_Kim is 0 and the cutoff must be enforced by the row sweep itself.
  Xoshiro256StarStar rng(7);
  std::vector<double> a(32);
  a.front() = a.back() = 0.0;
  for (std::size_t i = 1; i + 1 < a.size(); ++i) a[i] = rng.gaussian() * 10.0;
  std::vector<double> b = a;
  std::reverse(b.begin() + 1, b.end() - 1);
  const double full = dtw_distance(a, b, {.band = 4});
  ASSERT_GT(full, 1.0);
  EXPECT_EQ(dtw_distance(a, b, {.band = 4, .max_distance = full * 0.1}),
            kDtwAbandoned);
  EXPECT_GT(ea.value(), ea0);
  EXPECT_EQ(lb.value(), lb1) << "must not have been a lower-bound reject";
}

TEST(DtwDistance, WorkspaceReuseAcrossShapesStaysExact) {
  // The rolling rows are per-thread and reused; interleaving calls of very
  // different shapes (long after short, wide band after narrow) must never
  // leak state between calls.
  Xoshiro256StarStar rng(1234);
  std::vector<double> big_a(160), big_b(200), small_a(7), small_b(5);
  for (auto& v : big_a) v = rng.gaussian();
  for (auto& v : big_b) v = rng.gaussian();
  for (auto& v : small_a) v = rng.gaussian();
  for (auto& v : small_b) v = rng.gaussian();
  const double want_big = naive_dtw(big_a, big_b, 12);
  const double want_small = naive_dtw(small_a, small_b, 2);
  for (int round = 0; round < 3; ++round) {
    EXPECT_DOUBLE_EQ(dtw_distance(big_a, big_b, {.band = 12}), want_big);
    EXPECT_DOUBLE_EQ(dtw_distance(small_a, small_b, {.band = 2}), want_small);
    EXPECT_DOUBLE_EQ(
        dtw_distance(big_a, big_b, {.band = 12, .max_distance = want_big}),
        want_big);
  }
}

TEST(DtwAlign, AlignIntoMatchesAlignAndReusesBuffer) {
  Xoshiro256StarStar rng(31);
  std::vector<float> out;  // deliberately reused across shapes
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t n = 8 + rng.uniform(56);
    const std::size_t m = 8 + rng.uniform(56);
    std::vector<double> ref(n);
    std::vector<float> tr(m);
    for (auto& v : ref) v = rng.gaussian();
    for (auto& v : tr) v = static_cast<float>(rng.gaussian());
    const DtwParams p{.band = 8};
    const std::vector<float> fresh = dtw_align(ref, tr, p);
    dtw_align_into(ref, tr, p, out);
    ASSERT_EQ(out.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i)
      EXPECT_EQ(out[i], fresh[i]) << "i=" << i;
    // The span form writes the same values into a caller-owned row.
    std::vector<float> row(n + 2, -1.0f);
    dtw_align_into(ref, tr, p, std::span<float>(row.data() + 1, n));
    EXPECT_EQ(row.front(), -1.0f);
    EXPECT_EQ(row.back(), -1.0f);
    for (std::size_t i = 0; i < fresh.size(); ++i)
      EXPECT_EQ(row[i + 1], fresh[i]) << "i=" << i;
  }
  std::vector<float> wrong(3);
  EXPECT_THROW(dtw_align_into(std::vector<double>(4, 0.0),
                              std::vector<float>(4, 0.0f), {},
                              std::span<float>(wrong)),
               std::invalid_argument);
}

TEST(DtwAlign, IgnoresMaxDistance) {
  // dtw_align must always produce a complete warp even when the params
  // carry a cutoff that would abandon the equivalent dtw_distance call.
  std::vector<double> ref(32, 0.0);
  std::vector<float> tr(32, 50.0f);
  const DtwParams p{.band = 8, .max_distance = 1e-3};
  const auto out = dtw_align(ref, tr, p);
  ASSERT_EQ(out.size(), 32u);
  for (const float v : out) EXPECT_EQ(v, 50.0f);
}

TEST(DtwAlign, AlignedOutputHasReferenceLength) {
  std::vector<double> ref(50, 0.0);
  std::vector<float> tr(64, 0.0f);
  const auto out = dtw_align(ref, tr);
  EXPECT_EQ(out.size(), 50u);
}

TEST(DtwAlign, UndoesAShift) {
  // Reference has a pulse at 20; the trace has it at 26.  After alignment
  // the pulse must sit back at (or next to) 20.
  std::vector<double> ref(64, 0.0);
  std::vector<float> tr(64, 0.0f);
  for (int i = 20; i < 24; ++i) ref[static_cast<std::size_t>(i)] = 8.0;
  for (int i = 26; i < 30; ++i) tr[static_cast<std::size_t>(i)] = 8.0f;
  const auto out = dtw_align(ref, tr, {.band = 12});
  // Energy concentrated near the reference pulse location.
  float at_ref = 0, away = 0;
  for (int i = 18; i < 26; ++i) at_ref += out[static_cast<std::size_t>(i)];
  for (int i = 34; i < 42; ++i) away += out[static_cast<std::size_t>(i)];
  EXPECT_GT(at_ref, 20.0f);
  EXPECT_LT(away, 4.0f);
}

TEST(DtwAlign, IdentityWhenAlreadyAligned) {
  Xoshiro256StarStar rng(5);
  std::vector<float> tr(48);
  for (auto& v : tr) v = static_cast<float>(rng.gaussian());
  const auto ref = to_double(tr);
  const auto out = dtw_align(ref, tr, {.band = 8});
  for (std::size_t i = 0; i < tr.size(); ++i)
    EXPECT_NEAR(out[i], tr[i], 1e-5) << i;
}

TEST(DtwAlign, HandlesLengthMismatch) {
  std::vector<double> ref(30, 1.0);
  std::vector<float> tr(45, 1.0f);
  const auto out = dtw_align(ref, tr, {.band = 4});
  EXPECT_EQ(out.size(), 30u);
  for (const float v : out) EXPECT_NEAR(v, 1.0f, 1e-6);
}

TEST(DtwAlign, StretchedTraceCompressesBack) {
  // The trace is the reference played at half speed (each sample doubled);
  // warping should reconstruct something close to the reference.
  std::vector<double> ref(32);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ref[i] = std::sin(static_cast<double>(i) * 0.4);
  std::vector<float> tr(64);
  for (std::size_t i = 0; i < tr.size(); ++i)
    tr[i] = static_cast<float>(ref[i / 2]);
  const auto out = dtw_align(ref, tr, {.band = 0});
  double err = 0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    err += std::fabs(out[i] - ref[i]);
  EXPECT_LT(err / static_cast<double>(ref.size()), 0.08);
}

}  // namespace
}  // namespace rftc::analysis
