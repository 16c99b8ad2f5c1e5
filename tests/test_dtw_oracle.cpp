// The banded rolling-row DTW aligner against the dense P = 1 oracle.
//
// analysis::dtw_align_into promises output byte-identical to the dense
// (n+1) x (m+1) kernel kept in dtw_p1_oracle.hpp, under either SIMD
// backend: same cells, same per-cell expressions and association, same
// candidate order and strict-< ties, same inf/NaN handling, the same
// unreachable-endpoint fallback and the same backtrack.  The generated
// cases cover both orientations of every length pair up to 300, bands from
// the full DP to past the matrix, tie-heavy small integers, sums whose
// rounding depends on association, costs that overflow to +inf, NaN
// samples, length ratios beyond the 2x slope limit and shifted traces
// whose paths run along the band edges; a DTW-CPA campaign must then come out identical to CPA on
// oracle-aligned features at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/attacks.hpp"
#include "analysis/dtw.hpp"
#include "dtw_p1_oracle.hpp"
#include "pbt/generators.hpp"
#include "pbt/pbt.hpp"
#include "rftc/device.hpp"
#include "simd/simd.hpp"
#include "trace/acquisition.hpp"
#include "util/parallel.hpp"

namespace rftc {
namespace {

using analysis::DtwParams;
using pbt::Rng;

class BackendGuard {
 public:
  BackendGuard() : saved_(simd::backend()) {}
  ~BackendGuard() { simd::set_backend(saved_); }

 private:
  simd::Backend saved_;
};

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(par::thread_count()) {}
  ~ThreadCountGuard() { par::set_thread_count(saved_); }

 private:
  std::size_t saved_;
};

std::vector<simd::Backend> available_backends() {
  std::vector<simd::Backend> b{simd::Backend::kScalar};
  if (simd::avx2_supported()) b.push_back(simd::Backend::kAvx2);
  return b;
}

enum class Values {
  kGaussian,
  kSmallInt,
  kRounding,
  kHuge,
  kNaN,
  kRatio,
  kShifted,
  kCount
};

const char* values_name(Values v) {
  switch (v) {
    case Values::kGaussian: return "gaussian";
    case Values::kSmallInt: return "small-int";
    case Values::kRounding: return "rounding";
    case Values::kHuge: return "huge";
    case Values::kNaN: return "nan";
    case Values::kRatio: return "ratio";
    case Values::kShifted: return "shifted";
    case Values::kCount: break;
  }
  return "?";
}

struct AlignCase {
  std::vector<double> ref;
  std::vector<float> tr;
  std::size_t band = 0;
  Values values = Values::kGaussian;
};

AlignCase gen_case(Rng& rng) {
  AlignCase c;
  c.values = static_cast<Values>(rng.uniform(static_cast<int>(Values::kCount)));
  std::size_t n = pbt::gen::size_in(rng, 1, 300);
  std::size_t m = pbt::gen::size_in(rng, 1, 300);
  if (c.values == Values::kRatio) {
    // Past the 2x slope limit in one orientation or the other, so the end
    // point is often unreachable and the resampling fallback runs.
    n = pbt::gen::size_in(rng, 1, 60);
    m = n * pbt::gen::size_in(rng, 2, 5) + pbt::gen::size_in(rng, 0, 3);
    if (rng.next() & 1) std::swap(n, m);
  } else if (rng.uniform(4) != 0) {
    // The attack's shape: nearly equal lengths, so the effective band
    // (never below |n - m|) stays narrow and the band edges move through
    // the matrix row by row.
    m = static_cast<std::size_t>(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(n) + pbt::gen::int_in(rng, -12, 12)));
  }
  c.ref.resize(n);
  c.tr.resize(m);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto value = [&]() -> double {
    switch (c.values) {
      case Values::kSmallInt:
        return static_cast<double>(pbt::gen::int_in(rng, -2, 2));
      case Values::kRounding:
        // Small integers (ties) mixed with ~1e8 outliers: a 1e16 cost
        // absorbs a following +1 or not depending on how the sums
        // associate, so any reassociation flips decisions.
        return static_cast<double>(pbt::gen::int_in(rng, -2, 2)) +
               (rng.uniform(4) == 0 ? 1e8 : 0.0);
      case Values::kHuge: {
        // 1e200 squared overflows to +inf; as a float it becomes +-inf.
        const std::uint64_t pick = rng.uniform(6);
        if (pick == 0) return 1e200;
        if (pick == 1) return -1e200;
        return rng.gaussian();
      }
      case Values::kNaN:
        return rng.uniform(8) == 0 ? nan : rng.gaussian();
      default:
        return rng.gaussian();
    }
  };
  for (double& v : c.ref) v = value();
  for (float& v : c.tr) v = static_cast<float>(value());
  c.band = rng.uniform(2) == 0 ? pbt::gen::size_in(rng, 0, 12)
                               : pbt::gen::size_in(rng, 0, std::max(n, m) + 2);
  if (c.values == Values::kShifted) {
    // The trace is the reference displaced by up to a band width and a
    // bit, so the optimal path runs along (and is clipped by) the band
    // edges, where the rolling rows' boundary cells decide the result.
    c.band = pbt::gen::size_in(rng, 1, 8);
    const std::int64_t reach = static_cast<std::int64_t>(c.band) + 2;
    const std::int64_t shift = pbt::gen::int_in(rng, -reach, reach);
    for (std::size_t j = 0; j < m; ++j) {
      const std::int64_t src = static_cast<std::int64_t>(j * n / m) + shift;
      const std::int64_t k =
          std::clamp<std::int64_t>(src, 0, static_cast<std::int64_t>(n) - 1);
      c.tr[j] = static_cast<float>(c.ref[static_cast<std::size_t>(k)] +
                                   0.01 * rng.gaussian());
    }
  }
  return c;
}

std::string show_case(const AlignCase& c) {
  std::ostringstream os;
  os << "values=" << values_name(c.values) << " n=" << c.ref.size()
     << " m=" << c.tr.size() << " band=" << c.band << " ref=[";
  for (const double x : c.ref) os << x << " ";
  os << "] tr=[";
  for (const float x : c.tr) os << x << " ";
  os << "]";
  return os.str();
}

std::vector<AlignCase> shrink_case(const AlignCase& c) {
  std::vector<AlignCase> out;
  for (auto& cand : pbt::shrink_vector<double>(c.ref)) {
    if (cand.empty()) continue;
    AlignCase s = c;
    s.ref = std::move(cand);
    out.push_back(std::move(s));
  }
  for (auto& cand : pbt::shrink_vector<float>(c.tr)) {
    if (cand.empty()) continue;
    AlignCase s = c;
    s.tr = std::move(cand);
    out.push_back(std::move(s));
  }
  for (const std::uint64_t band : pbt::shrink_uint(c.band, 0)) {
    AlignCase s = c;
    s.band = static_cast<std::size_t>(band);
    out.push_back(std::move(s));
  }
  return out;
}

/// nullopt when dtw_align matches the oracle byte for byte under every
/// available backend.
std::optional<std::string> check_against_oracle(const AlignCase& c) {
  const DtwParams params{.band = c.band};
  const std::vector<float> want =
      test::dtw_align_p1_dense(c.ref, c.tr, params);
  for (const simd::Backend b : available_backends()) {
    simd::set_backend(b);
    const std::vector<float> got = analysis::dtw_align(c.ref, c.tr, params);
    if (got.size() != want.size() ||
        std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) !=
            0) {
      std::ostringstream os;
      os << "backend " << simd::backend_name() << " differs from the oracle";
      for (std::size_t k = 0; k < std::min(got.size(), want.size()); ++k)
        if (std::memcmp(&got[k], &want[k], sizeof(float)) != 0) {
          os << " first at k=" << k << ": " << got[k] << " vs " << want[k];
          break;
        }
      return os.str();
    }
  }
  return std::nullopt;
}

TEST(PbtDtwAlign, MatchesDenseOracleBytewiseOnEveryBackend) {
  BackendGuard guard;
  const pbt::Config cfg = pbt::Config::from_env(0xD7B0A1, 1000);
  EXPECT_TRUE(pbt::check<AlignCase>(
      "dtw_align_vs_dense_oracle", gen_case, check_against_oracle, cfg,
      shrink_case, show_case));
}

TEST(DtwAlignOracle, MatchesNearTwoThousandSamples) {
  BackendGuard guard;
  Xoshiro256StarStar rng(2000);
  struct Shape {
    std::size_t n, m, band;
  };
  for (const Shape s : {Shape{2000, 2000, 16}, Shape{2000, 1993, 16},
                        Shape{1990, 2000, 40}, Shape{1999, 2000, 0}}) {
    AlignCase c;
    c.ref.resize(s.n);
    c.tr.resize(s.m);
    // A slowly drifting pulse train plus noise: realistic paths, not just
    // the diagonal.
    for (std::size_t i = 0; i < s.n; ++i)
      c.ref[i] = std::sin(0.05 * static_cast<double>(i)) + 0.1 * rng.gaussian();
    for (std::size_t j = 0; j < s.m; ++j)
      c.tr[j] = static_cast<float>(
          std::sin(0.05 * static_cast<double>(j) * 1.01) + 0.1 * rng.gaussian());
    c.band = s.band;
    const auto err = check_against_oracle(c);
    EXPECT_FALSE(err.has_value())
        << "n=" << s.n << " m=" << s.m << " band=" << s.band << ": "
        << err.value_or("");
  }
}

aes::Key oracle_key() {
  aes::Key k{};
  for (int i = 0; i < 16; ++i)
    k[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0x5A ^ (13 * i));
  return k;
}

bool same_outcome(const analysis::AttackOutcome& a,
                  const analysis::AttackOutcome& b) {
  const auto bits_equal = [](const std::vector<double>& x,
                             const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  return a.checkpoints == b.checkpoints && a.success == b.success &&
         bits_equal(a.mean_rank, b.mean_rank) &&
         bits_equal(a.peak_corr, b.peak_corr);
}

TEST(DtwAlignOracle, DtwCpaOutcomeEqualsCpaOnOracleAlignedFeatures) {
  ThreadCountGuard tguard;
  BackendGuard bguard;
  // Randomized clocks (RFTC(1, 4)) so the alignment has real work to do.
  core::RftcDevice dev = core::RftcDevice::make(oracle_key(), 1, 4, 5);
  trace::PowerModelParams pm;
  trace::TraceSimulator sim(pm, 17);
  Xoshiro256StarStar rng(18);
  const trace::TraceSet raw = trace::acquire_random(
      [&](const aes::Block& pt) { return dev.encrypt(pt); }, sim, 300, rng);

  analysis::AttackParams dtw_params;
  dtw_params.kind = analysis::AttackKind::kDtwCpa;
  dtw_params.byte_positions = {0, 7};
  dtw_params.checkpoints = {100, 200, 300};
  dtw_params.dtw_ref_traces = 1;  // the reference is trace 0

  // The same features built by the oracle, attacked with plain CPA.
  const trace::TraceSet ds = raw.downsampled(dtw_params.downsample);
  const std::vector<double> ref(ds.trace(0).begin(), ds.trace(0).end());
  trace::TraceSet aligned(ds.samples());
  for (std::size_t i = 0; i < ds.size(); ++i)
    aligned.add(test::dtw_align_p1_dense(ref, ds.trace(i), dtw_params.dtw),
                ds.plaintext(i), ds.ciphertext(i));
  analysis::AttackParams cpa_params = dtw_params;
  cpa_params.kind = analysis::AttackKind::kCpa;
  cpa_params.downsample = 1;
  const aes::Block rk10 = aes::expand_key(oracle_key())[10];
  const analysis::AttackOutcome want =
      analysis::run_attack(aligned, rk10, cpa_params);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (const simd::Backend b : available_backends()) {
      par::set_thread_count(threads);
      simd::set_backend(b);
      const analysis::AttackOutcome got =
          analysis::run_attack(raw, rk10, dtw_params);
      EXPECT_TRUE(same_outcome(got, want))
          << "threads=" << threads << " backend=" << simd::backend_name();
    }
  }
}

}  // namespace
}  // namespace rftc
