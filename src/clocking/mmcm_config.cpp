#include "clocking/mmcm_config.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace rftc::clk {

MmcmLimits altera_iopll_limits() {
  MmcmLimits lim;
  lim.vco_min_mhz = 600.0;
  lim.vco_max_mhz = 1600.0;
  lim.pfd_min_mhz = 5.0;
  lim.pfd_max_mhz = 325.0;
  lim.mult_min_8ths = 1 * 8;
  // The IOPLL's M counter reaches far higher, but a 24 MHz input already
  // saturates the 1600 MHz VCO at M=66; capping at the DRP codec's counter
  // range keeps the reconfiguration-stream model shared across vendors.
  lim.mult_max_8ths = 64 * 8;
  lim.divclk_max = 110;
  // The IOPLL's C counters reach 512, but the reconfiguration stream model
  // shares the 7-series DRP codec, whose counters top out at 128; the
  // 12-48 MHz band never needs more.
  lim.out_div_max_8ths = 128 * 8;
  lim.fractional_clkout0 = false;
  return lim;
}

namespace {

bool is_whole(int eighths) { return eighths % 8 == 0; }

/// Closest legal divider (in eighths) for `vco / target`, honouring the
/// fractional capability of the output.
int best_divider_8ths(double vco_mhz, double target_mhz, bool fractional,
                      const MmcmLimits& lim) {
  const double ideal = vco_mhz / target_mhz;
  // Rounded half away from zero (as llround) and clamped while still a
  // double, so a far-out target cannot overflow the int.
  double rounded =
      fractional ? std::round(ideal * 8.0) : std::round(ideal) * 8.0;
  if (!(rounded >= lim.out_div_min_8ths)) rounded = lim.out_div_min_8ths;
  if (rounded > lim.out_div_max_8ths) rounded = lim.out_div_max_8ths;
  int div8 = static_cast<int>(rounded);
  if (!fractional) div8 = (div8 / 8) * 8;
  if (div8 < 8) div8 = 8;
  return div8;
}

}  // namespace

std::optional<std::string> MmcmConfig::validate(const MmcmLimits& lim) const {
  // The message stream is built only on failure: constructing one costs
  // more than the checks, and every synthesized set is validated.
  const auto fail = [](const auto&... parts) {
    std::ostringstream err;
    (err << ... << parts);
    return std::optional<std::string>(err.str());
  };
  if (fin_mhz <= 0) return "input frequency must be positive";
  if (mult_8ths < lim.mult_min_8ths || mult_8ths > lim.mult_max_8ths)
    return fail("CLKFBOUT_MULT_F=", mult_8ths / 8.0, " outside [",
                lim.mult_min_8ths / 8.0, ", ", lim.mult_max_8ths / 8.0, "]");
  if (divclk < lim.divclk_min || divclk > lim.divclk_max)
    return fail("DIVCLK_DIVIDE=", divclk, " outside [", lim.divclk_min, ", ",
                lim.divclk_max, "]");
  const double pfd = pfd_mhz();
  if (pfd < lim.pfd_min_mhz || pfd > lim.pfd_max_mhz)
    return fail("PFD frequency ", pfd, " MHz outside [", lim.pfd_min_mhz, ", ",
                lim.pfd_max_mhz, "]");
  const double vco = vco_mhz();
  if (vco < lim.vco_min_mhz || vco > lim.vco_max_mhz)
    return fail("VCO frequency ", vco, " MHz outside [", lim.vco_min_mhz, ", ",
                lim.vco_max_mhz, "]");
  for (int k = 0; k < kMmcmOutputs; ++k) {
    const int d = out_div_8ths[static_cast<std::size_t>(k)];
    if (d < lim.out_div_min_8ths || d > lim.out_div_max_8ths)
      return fail("CLKOUT", k, "_DIVIDE=", d / 8.0, " outside [",
                  lim.out_div_min_8ths / 8.0, ", ", lim.out_div_max_8ths / 8.0,
                  "]");
    if ((k != 0 || !lim.fractional_clkout0) && !is_whole(d))
      return fail("CLKOUT", k, "_DIVIDE=", d / 8.0,
                  " fractional divide is not available on this output");
  }
  return std::nullopt;
}

std::optional<SynthesisResult> synthesize_frequency(double fin_mhz,
                                                    double target_mhz,
                                                    int output_index,
                                                    const MmcmLimits& lim) {
  if (target_mhz <= 0) return std::nullopt;
  const bool fractional = (output_index == 0) && lim.fractional_clkout0;
  SynthesisResult best;
  double best_err = std::numeric_limits<double>::infinity();

  for (int d = lim.divclk_min; d <= lim.divclk_max; ++d) {
    const double pfd = fin_mhz / d;
    if (pfd < lim.pfd_min_mhz) break;  // d only grows from here
    if (pfd > lim.pfd_max_mhz) continue;
    // Legal multiplier range for this d so the VCO stays in band.
    const int m_lo = std::max(
        lim.mult_min_8ths,
        static_cast<int>(std::ceil(lim.vco_min_mhz * d / fin_mhz * 8.0)));
    const int m_hi = std::min(
        lim.mult_max_8ths,
        static_cast<int>(std::floor(lim.vco_max_mhz * d / fin_mhz * 8.0)));
    for (int m = m_lo; m <= m_hi; ++m) {
      const double vco = fin_mhz * (m / 8.0) / d;
      const int div8 = best_divider_8ths(vco, target_mhz, fractional, lim);
      const double achieved = vco / (div8 / 8.0);
      const double err = std::fabs(achieved - target_mhz);
      if (err < best_err) {
        best_err = err;
        best.config = MmcmConfig{};
        best.config.fin_mhz = fin_mhz;
        best.config.mult_8ths = m;
        best.config.divclk = d;
        best.config.out_div_8ths.fill(lim.out_div_max_8ths);
        best.config.out_div_8ths[static_cast<std::size_t>(output_index)] = div8;
        best.config.out_enabled.fill(false);
        best.config.out_enabled[static_cast<std::size_t>(output_index)] = true;
        best.output_index = output_index;
        best.achieved_mhz = achieved;
        best.error_mhz = err;
      }
    }
  }
  if (!std::isfinite(best_err)) return std::nullopt;
  if (auto why = best.config.validate(lim)) return std::nullopt;
  return best;
}

std::optional<MmcmConfig> synthesize_frequency_set(
    double fin_mhz, const std::array<double, kMmcmOutputs>& targets_mhz,
    int count, const MmcmLimits& lim) {
  if (count < 1 || count > kMmcmOutputs) return std::nullopt;
  return FrequencySetSynthesizer(fin_mhz, lim).synthesize(targets_mhz, count);
}

namespace {

/// Widening of every bound: far above the few-ulp rounding of a term, a
/// window edge or the lower bound, far below any error difference that
/// matters.
constexpr double kSlack = 1e-9;
/// Seed VCOs evaluated for a first best error.
constexpr double kSeeds = 8;

}  // namespace

FrequencySetSynthesizer::FrequencySetSynthesizer(double fin_mhz,
                                                 const MmcmLimits& lim)
    : fin_mhz_(fin_mhz), limits_(lim) {
  // Same (DIVCLK, MULT) walk, in the same order, as a full scan.
  std::vector<Candidate> all;
  for (int d = lim.divclk_min; d <= lim.divclk_max; ++d) {
    const double pfd = fin_mhz / d;
    if (pfd < lim.pfd_min_mhz) break;  // d only grows from here
    if (pfd > lim.pfd_max_mhz) continue;
    const int m_lo = std::max(
        lim.mult_min_8ths,
        static_cast<int>(std::ceil(lim.vco_min_mhz * d / fin_mhz * 8.0)));
    const int m_hi = std::min(
        lim.mult_max_8ths,
        static_cast<int>(std::floor(lim.vco_max_mhz * d / fin_mhz * 8.0)));
    for (int m = m_lo; m <= m_hi; ++m) {
      const double vco = fin_mhz * (m / 8.0) / d;
      all.push_back({vco, 1.0 / vco, m, d});
    }
  }
  if (all.empty()) return;

  // Keep the first pair of every distinct VCO, in scan order.
  std::vector<std::uint32_t> order(all.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<std::uint32_t>(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return all[a].vco_mhz < all[b].vco_mhz;
                   });
  std::vector<bool> keep(all.size(), false);
  for (std::size_t p = 0; p < order.size(); ++p)
    if (p == 0 || all[order[p]].vco_mhz != all[order[p - 1]].vco_mhz)
      keep[order[p]] = true;
  std::vector<std::uint32_t> renumber(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!keep[i]) continue;
    renumber[i] = static_cast<std::uint32_t>(table_.size());
    table_.push_back(all[i]);
  }
  for (const std::uint32_t i : order) {
    if (!keep[i]) continue;
    sorted_.push_back(renumber[i]);
    sorted_vco_.push_back(all[i].vco_mhz);
  }

  // Bucket index over the VCO span: bucket b starts at the first sorted
  // position at or above lo + b * width.
  const std::size_t buckets = 2 * table_.size() + 2;
  bucket_lo_mhz_ = sorted_vco_.front();
  const double span = sorted_vco_.back() - bucket_lo_mhz_;
  bucket_width_mhz_ = span > 0 ? span / static_cast<double>(buckets - 1) : 1.0;
  bucket_inv_width_ = 1.0 / bucket_width_mhz_;
  bucket_.resize(buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    const double edge =
        bucket_lo_mhz_ + static_cast<double>(b) * bucket_width_mhz_;
    bucket_[b] = static_cast<std::uint32_t>(
        std::lower_bound(sorted_vco_.begin(), sorted_vco_.end(), edge) -
        sorted_vco_.begin());
  }
  visited_.assign(table_.size(), 0);
}

std::size_t FrequencySetSynthesizer::sorted_lower(double vco_mhz) const {
  const double f = (vco_mhz - bucket_lo_mhz_) * bucket_inv_width_;
  if (!(f >= 1.0)) return 0;
  const double last = static_cast<double>(bucket_.size() - 1);
  // One bucket early, so rounding in f can never skip a candidate.
  return bucket_[static_cast<std::size_t>(std::min(f, last)) - 1];
}

void FrequencySetSynthesizer::consider(std::size_t i, const Query& query,
                                       Best& best) {
  const Candidate& c = table_[i];
  if (query.bounded) {
    // Output k's divider is j * step_k / t_k for an integer j >= 1, and
    // min_j |x/j - 1| >= dist(x, Z) / (x + 1) for x = vco / step_k.  With
    // y = 1/x, 1/(x + 1) = y/(1 + y) >= y(1 - y): no division needed.
    double lower = 0.0;
    for (int k = 0; k < query.count; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      const double x = c.vco_mhz * query.inv_step[ku];
      const double frac = x - static_cast<double>(static_cast<std::int32_t>(x));
      const double y = query.step[ku] * c.inv_vco;
      lower += std::min(frac, 1.0 - frac) * y * (1.0 - y);
    }
    if (lower > best.err + kSlack * (1.0 + best.err)) return;
  }
  ++evaluations_;
  double err = 0.0;
  for (int k = 0; k < query.count; ++k) {
    const double t = query.targets[static_cast<std::size_t>(k)];
    const int div8 = best_divider_8ths(
        c.vco_mhz, t, /*fractional=*/k == 0 && limits_.fractional_clkout0,
        limits_);
    const double achieved = c.vco_mhz / (div8 / 8.0);
    err += std::fabs(achieved - t) / t;
    // Non-negative terms: the running sum only grows.
    if (query.bounded && err > best.err) return;
  }
  if (err < best.err || (err == best.err && i < best.index))
    best = {err, i};
}

std::optional<MmcmConfig> FrequencySetSynthesizer::synthesize(
    const std::array<double, kMmcmOutputs>& targets, int count) {
  if (count < 1 || count > kMmcmOutputs || table_.empty()) return std::nullopt;
  if (++call_ == 0) {
    std::fill(visited_.begin(), visited_.end(), 0);
    call_ = 1;
  }
  const double lo = sorted_vco_.front();
  const double hi = sorted_vco_.back();
  const std::size_t n = sorted_vco_.size();

  // Output k's achievable frequencies are vco / O for dividers O = j * q_k
  // (q_k = 1/8 on a fractional output, else 1), so its windows are
  // step_k = q_k * t_k apart in VCO.  The anchor is the output with the
  // widest step, i.e. the fewest windows.
  Query query{targets, count, true, {}, {}};
  int anchor = 0;
  for (int k = 0; k < count; ++k) {
    const auto ku = static_cast<std::size_t>(k);
    const double t = targets[ku];
    query.step[ku] = (k == 0 && limits_.fractional_clkout0) ? t / 8.0 : t;
    query.inv_step[ku] = 1.0 / query.step[ku];
    // Positive finite targets make every term non-negative; the x < 2^31
    // cap keeps the bound's int32 truncation exact.
    if (!(std::isfinite(t) && t > 0 && hi * query.inv_step[ku] < 0x1p31))
      query.bounded = false;
    if (query.step[ku] > query.step[static_cast<std::size_t>(anchor)])
      anchor = k;
  }
  // {+inf, 0} can only be displaced by a finite error, as in a strict `<`
  // scan starting from +inf.
  Best best{std::numeric_limits<double>::infinity(), 0};
  bool windowed = false;
  if (query.bounded) {
    const double step = query.step[static_cast<std::size_t>(anchor)];
    const double j_min =
        (anchor == 0 && limits_.fractional_clkout0) ? 8.0 : 1.0;

    // Seeds: the VCO nearest each of a few window centres spread over the
    // span, for a first best error.
    const double c_first = std::max(j_min, std::ceil(lo / step));
    const double c_last = std::max(c_first, std::floor(hi / step));
    const double stride =
        std::max(1.0, std::ceil((c_last - c_first + 1.0) / kSeeds));
    for (double j = c_first; j <= c_last; j += stride) {
      const double centre = j * step;
      std::size_t p = sorted_lower(centre);
      while (p < n && sorted_vco_[p] < centre) ++p;
      if (p == n ||
          (p > 0 && centre - sorted_vco_[p - 1] < sorted_vco_[p] - centre))
        --p;
      visited_[sorted_[p]] = call_;
      consider(sorted_[p], query, best);
    }

    // Windows: a candidate that ties or beats the best error B has its
    // anchor term <= B, so its VCO lies within j * step * [1 - B, 1 + B]
    // for some j.  The window range is fixed by the first B; each window
    // uses the current one.  Past n/4 windows a linear pass is cheaper.
    const double b0 = best.err + kSlack;
    if (b0 < 0.5) {
      const double j_lo = std::max(j_min, std::floor(lo / (step * (1 + b0))));
      const double j_hi = std::ceil(hi / (step * (1 - b0)));
      if (j_hi - j_lo < 0.25 * static_cast<double>(n)) {
        for (double j = j_lo; j <= j_hi; ++j) {
          const double b = best.err + kSlack;
          const double w_lo = j * step * (1 - b);
          const double w_hi = j * step * (1 + b);
          for (std::size_t p = sorted_lower(w_lo);
               p < n && sorted_vco_[p] <= w_hi; ++p) {
            const std::size_t i = sorted_[p];
            if (sorted_vco_[p] < w_lo || visited_[i] == call_) continue;
            visited_[i] = call_;
            consider(i, query, best);
          }
        }
        windowed = true;
      }
    }
  }
  if (!windowed)
    for (std::size_t i = 0; i < table_.size(); ++i) consider(i, query, best);
  if (!(best.err < std::numeric_limits<double>::infinity())) return std::nullopt;

  const Candidate& c = table_[best.index];
  MmcmConfig cfg;
  cfg.fin_mhz = fin_mhz_;
  cfg.mult_8ths = c.mult_8ths;
  cfg.divclk = c.divclk;
  cfg.out_div_8ths.fill(limits_.out_div_max_8ths);
  cfg.out_enabled.fill(false);
  for (int k = 0; k < count; ++k) {
    cfg.out_div_8ths[static_cast<std::size_t>(k)] = best_divider_8ths(
        c.vco_mhz, targets[static_cast<std::size_t>(k)],
        /*fractional=*/k == 0 && limits_.fractional_clkout0, limits_);
    cfg.out_enabled[static_cast<std::size_t>(k)] = true;
  }
  if (cfg.validate(limits_)) return std::nullopt;
  return cfg;
}

}  // namespace rftc::clk
