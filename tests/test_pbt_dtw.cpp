// DTW properties: symmetry, band monotonicity/containment, and
// pruned-vs-naive agreement, quantified over random trace pairs and band
// widths.
//
// The symmetry property is exactly the invariant the floor-truncated band
// bug of PR 5 broke (an asymmetric integer band center made
// dtw(a,b) != dtw(b,a) for odd length differences) — reintroducing that bug
// makes this suite print a shrunk reproducer within a handful of cases.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dtw.hpp"
#include "pbt/generators.hpp"
#include "pbt/pbt.hpp"

namespace rftc {
namespace {

using analysis::DtwParams;
using analysis::dtw_distance;
using analysis::kDtwAbandoned;
using pbt::Config;
using pbt::Rng;

struct DtwCase {
  std::vector<double> a, b;
  std::size_t band = 0;
};

DtwCase gen_case(Rng& rng) {
  DtwCase c;
  c.a = pbt::gen::real_vector(rng, 1, 40, -4.0, 4.0);
  c.b = pbt::gen::real_vector(rng, 1, 40, -4.0, 4.0);
  c.band = pbt::gen::size_in(rng, 0, 48);
  return c;
}

std::string show_case(const DtwCase& c) {
  std::ostringstream os;
  os << "len_a=" << c.a.size() << " len_b=" << c.b.size()
     << " band=" << c.band << " a=[";
  for (const double x : c.a) os << x << " ";
  os << "] b=[";
  for (const double x : c.b) os << x << " ";
  os << "]";
  return os.str();
}

/// Candidates keep both sequences non-empty; halving a sequence first gives
/// the fastest descent toward a minimal pair.
std::vector<DtwCase> shrink_case(const DtwCase& c) {
  std::vector<DtwCase> out;
  const auto add_vec_shrinks = [&](bool first) {
    const std::vector<double>& v = first ? c.a : c.b;
    for (auto& cand : pbt::shrink_vector<double>(v)) {
      if (cand.empty()) continue;
      DtwCase s = c;
      (first ? s.a : s.b) = std::move(cand);
      out.push_back(std::move(s));
    }
  };
  add_vec_shrinks(true);
  add_vec_shrinks(false);
  for (const std::uint64_t band : pbt::shrink_uint(c.band, 0)) {
    DtwCase s = c;
    s.band = static_cast<std::size_t>(band);
    out.push_back(std::move(s));
  }
  return out;
}

bool bit_equal(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

TEST(PbtDtw, DistanceIsSymmetric) {
  const Config cfg = Config::from_env(0xD7B001, 400);
  const bool ok = pbt::check<DtwCase>(
      "dtw_symmetry", gen_case,
      [](const DtwCase& c) -> std::optional<std::string> {
        const DtwParams params{.band = c.band};
        const double ab = dtw_distance(c.a, c.b, params);
        const double ba = dtw_distance(c.b, c.a, params);
        if (!bit_equal(ab, ba)) {
          std::ostringstream os;
          os << "dtw(a,b)=" << ab << " != dtw(b,a)=" << ba;
          return os.str();
        }
        return std::nullopt;
      },
      cfg, shrink_case, show_case);
  EXPECT_TRUE(ok);
}

TEST(PbtDtw, WideningTheBandNeverIncreasesTheDistance) {
  // A band constrains the admissible warp paths, so distance is monotone
  // non-increasing in band width, and a band covering the whole matrix is
  // exactly the unconstrained DP.
  const Config cfg = Config::from_env(0xD7B002, 400);
  const bool ok = pbt::check<DtwCase>(
      "dtw_band_containment", gen_case,
      [](const DtwCase& c) -> std::optional<std::string> {
        const std::size_t full = std::max(c.a.size(), c.b.size());
        DtwParams narrow{.band = std::max<std::size_t>(1, c.band)};
        DtwParams wider = narrow;
        wider.band = narrow.band * 2;
        DtwParams covering = narrow;
        covering.band = full + 1;
        DtwParams unconstrained = narrow;
        unconstrained.band = 0;

        const double d_narrow = dtw_distance(c.a, c.b, narrow);
        const double d_wider = dtw_distance(c.a, c.b, wider);
        const double d_cover = dtw_distance(c.a, c.b, covering);
        const double d_free = dtw_distance(c.a, c.b, unconstrained);
        if (d_wider > d_narrow) {
          std::ostringstream os;
          os << "wider band increased distance: " << d_wider << " > "
             << d_narrow;
          return os.str();
        }
        if (!bit_equal(d_cover, d_free)) {
          std::ostringstream os;
          os << "covering band " << covering.band
             << " != unconstrained DP: " << d_cover << " vs " << d_free;
          return os.str();
        }
        return std::nullopt;
      },
      cfg, shrink_case, show_case);
  EXPECT_TRUE(ok);
}

TEST(PbtDtw, PrunedAgreesWithNaiveOrAbandons) {
  // max_distance is a pure go-faster knob: at or above the true distance
  // the result is bit-identical to the unpruned DP; clearly below it the
  // call must abandon with the sentinel.
  const Config cfg = Config::from_env(0xD7B003, 400);
  const bool ok = pbt::check<DtwCase>(
      "dtw_pruned_vs_naive", gen_case,
      [](const DtwCase& c) -> std::optional<std::string> {
        const DtwParams base{.band = c.band};
        const double exact = dtw_distance(c.a, c.b, base);

        DtwParams at = base;
        at.max_distance = exact;
        const double kept = dtw_distance(c.a, c.b, at);
        if (!bit_equal(kept, exact)) {
          std::ostringstream os;
          os << "cutoff == distance must keep the exact result: " << kept
             << " vs " << exact;
          return os.str();
        }

        if (exact > 0.0) {
          DtwParams below = base;
          below.max_distance = exact * 0.5;
          const double pruned = dtw_distance(c.a, c.b, below);
          if (pruned != kDtwAbandoned) {
            std::ostringstream os;
            os << "cutoff below the distance must abandon; got " << pruned
               << " (exact " << exact << ")";
            return os.str();
          }
        }
        return std::nullopt;
      },
      cfg, shrink_case, show_case);
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace rftc
