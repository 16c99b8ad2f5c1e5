// Xilinx 7-series MMCM (MMCME2) configuration model.
//
// An MMCM synthesizes output clocks as
//
//   f_out[k] = f_in * CLKFBOUT_MULT_F / (DIVCLK_DIVIDE * CLKOUT[k]_DIVIDE)
//
// subject to the electrical limits of the part (UG472 / DS182):
//   * VCO frequency  f_vco = f_in * M / D must stay within [600, 1200] MHz
//     (Kintex-7 -1 speed grade, the SASEBO-GIII part used by the paper),
//   * CLKFBOUT_MULT_F in [2.000, 64.000] in steps of 0.125,
//   * DIVCLK_DIVIDE in [1, 106],
//   * CLKOUT0_DIVIDE_F in [1.000, 128.000] in steps of 0.125,
//   * CLKOUT1..6_DIVIDE integer in [1, 128],
//   * PFD frequency f_in / D within [10, 550] MHz.
//
// All fractional values are held in eighths (units of 1/8) so the model is
// exact — there is no floating-point state anywhere in a configuration.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/time_types.hpp"

namespace rftc::clk {

/// Number of clock outputs per MMCM (CLKOUT0..CLKOUT6 exist in silicon;
/// the paper describes "typically six" usable outputs [21]).
inline constexpr int kMmcmOutputs = 7;

/// Electrical limits of the modelled device (Kintex-7, -1 speed grade).
struct MmcmLimits {
  double vco_min_mhz = 600.0;
  double vco_max_mhz = 1200.0;
  double pfd_min_mhz = 10.0;
  double pfd_max_mhz = 550.0;
  int mult_min_8ths = 2 * 8;     // CLKFBOUT_MULT_F >= 2.000
  int mult_max_8ths = 64 * 8;    // <= 64.000
  int divclk_min = 1;
  int divclk_max = 106;
  int out_div_min_8ths = 1 * 8;  // CLKOUT0_DIVIDE_F >= 1.000
  int out_div_max_8ths = 128 * 8;
  /// Whether output 0 supports fractional (1/8-step) division.  True for
  /// 7-series MMCMs (CLKOUT0_DIVIDE_F).
  bool fractional_clkout0 = true;
};

/// Altera/Intel IOPLL limits (§8: "RFTC is not limited to Xilinx FPGAs").
/// Modelled after the Cyclone/Arria IOPLL: wider VCO band, integer output
/// counters only (the fractional capability sits in the feedback path,
/// which the eighths-granular multiplier already covers).
MmcmLimits altera_iopll_limits();

/// A complete MMCM attribute set.  Invariant: once `validate` returns
/// success the configuration is electrically legal for `limits`.
struct MmcmConfig {
  /// Input clock frequency (board oscillator), MHz.
  double fin_mhz = 24.0;
  /// CLKFBOUT_MULT_F in eighths (e.g. 50.125 -> 401).
  int mult_8ths = 50 * 8;
  /// DIVCLK_DIVIDE.
  int divclk = 1;
  /// Per-output divider in eighths.  Only output 0 may be fractional
  /// (non-multiple of 8); outputs 1..6 must be whole numbers of eighths*8.
  std::array<int, kMmcmOutputs> out_div_8ths{8, 8, 8, 8, 8, 8, 8};
  /// Which outputs are in use (drive a BUFG).
  std::array<bool, kMmcmOutputs> out_enabled{true, false, false, false,
                                             false, false, false};

  double vco_mhz() const {
    return fin_mhz * (static_cast<double>(mult_8ths) / 8.0) /
           static_cast<double>(divclk);
  }
  double pfd_mhz() const { return fin_mhz / static_cast<double>(divclk); }
  double output_mhz(int k) const {
    return vco_mhz() / (static_cast<double>(out_div_8ths[static_cast<std::size_t>(k)]) / 8.0);
  }
  /// Output clock period in integer picoseconds.
  Picoseconds output_period_ps(int k) const {
    return period_ps_from_mhz(output_mhz(k));
  }

  /// Empty optional when legal; otherwise a diagnostic.
  std::optional<std::string> validate(const MmcmLimits& limits = {}) const;
};

/// Result of frequency synthesis: the chosen attributes plus the achieved
/// frequency (which in general differs slightly from the request).
struct SynthesisResult {
  MmcmConfig config;
  int output_index = 0;
  double achieved_mhz = 0.0;
  double error_mhz = 0.0;
};

/// Finds MMCM attributes producing the closest achievable frequency to
/// `target_mhz` on output `output_index` (fractional divide allowed only on
/// output 0).  Returns nullopt when the target is unreachable within limits.
std::optional<SynthesisResult> synthesize_frequency(
    double fin_mhz, double target_mhz, int output_index = 0,
    const MmcmLimits& limits = {});

/// Finds one attribute set whose outputs 0..count-1 are simultaneously as
/// close as possible to the requested targets.  This is the constraint the
/// paper leans on ("MMCM_DRP module has to have all M clock outputs
/// dynamically reconfigured", §4): all M frequencies of a set share one VCO.
/// Picks the (DIVCLK, MULT) pair, in (DIVCLK, MULT) scan order, whose VCO
/// minimizes the summed relative error of the nearest per-output dividers;
/// ties go to the first pair.  Builds a FrequencySetSynthesizer for one
/// call — callers that synthesize many sets should keep one instead.
std::optional<MmcmConfig> synthesize_frequency_set(
    double fin_mhz, const std::array<double, kMmcmOutputs>& targets_mhz,
    int count, const MmcmLimits& limits = {});

/// synthesize_frequency_set for one input clock and limit set, with the
/// VCO candidate table built once (≈12 KB at 24 MHz) so each call is a
/// short exact search instead of a scan over every (DIVCLK, MULT) pair.
///
/// The result is the full scan's, field for field:
///  * Pairs with the same VCO (e.g. D=1, M=8j and D=2, M=16j) score the
///    same, so only the first can win a strict `<` scan.  The table keeps
///    the first and drops the rest.
///  * For positive targets the error is a sum of non-negative terms, and a
///    floating-point sum of non-negative terms is at least each term.  So a
///    VCO that ties or beats a best error B puts one "anchor" output within
///    relative distance B of its target: VCO ∈ O·t·[1−B, 1+B] for some
///    divider O.  A few seed VCOs give B; then only the candidates inside
///    those windows are scored.
///  * Before its exact error, each candidate is screened by a
///    division-free lower bound (see consider()).
///  * Errors are computed exactly as the full scan does, ties go to the
///    lower scan index, and every bound carries a 1e-9 slack that dwarfs
///    rounding.  Targets the bounds cannot handle (non-positive or
///    non-finite) are scored over the whole table, unscreened.
class FrequencySetSynthesizer {
 public:
  explicit FrequencySetSynthesizer(double fin_mhz, const MmcmLimits& limits = {});

  std::optional<MmcmConfig> synthesize(
      const std::array<double, kMmcmOutputs>& targets_mhz, int count);

  /// Exact candidate errors computed so far (an early-abandoned one counts).
  std::uint64_t exact_evaluations() const { return evaluations_; }

 private:
  struct Candidate {
    double vco_mhz;
    double inv_vco;
    int mult_8ths;
    int divclk;
  };
  struct Best {
    double err;
    std::size_t index;
  };
  /// One call's targets plus the per-output constants of the bounds.
  struct Query {
    const std::array<double, kMmcmOutputs>& targets;
    int count;
    bool bounded;  // every target positive and finite
    std::array<double, kMmcmOutputs> step;      // VCO spacing of windows
    std::array<double, kMmcmOutputs> inv_step;  // 1 / step
  };

  /// First position in vco-sorted order whose VCO may be >= `vco_mhz`
  /// (never past the true lower bound; at most one bucket early).
  std::size_t sorted_lower(double vco_mhz) const;
  /// Scores candidate `i` and takes it on a lower error, or an equal one
  /// at a lower scan index.
  void consider(std::size_t i, const Query& query, Best& best);

  double fin_mhz_;
  MmcmLimits limits_;
  std::vector<Candidate> table_;       // distinct VCOs, in scan order
  std::vector<std::uint32_t> sorted_;  // table_ indices by ascending VCO
  std::vector<double> sorted_vco_;     // table_[sorted_[p]].vco_mhz
  std::vector<std::uint32_t> bucket_;  // first sorted position per bucket
  double bucket_lo_mhz_ = 0.0;
  double bucket_width_mhz_ = 1.0;
  double bucket_inv_width_ = 1.0;
  std::vector<std::uint32_t> visited_;  // per-candidate call stamp
  std::uint32_t call_ = 0;
  std::uint64_t evaluations_ = 0;
};

}  // namespace rftc::clk
