// The frequency planner and the set synthesizer against brute-force
// oracles.
//
// clk::FrequencySetSynthesizer replaces a scan over every (DIVCLK, MULT)
// pair with a windowed, bounded search, and plan_frequencies replaces
// node-based hash sets with flat buffers.  Both promise results identical
// field for field to the straightforward versions kept here, so no
// configuration, period, rejected-set count or trace byte moves.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "clocking/mmcm_config.hpp"
#include "pbt/generators.hpp"
#include "pbt/pbt.hpp"
#include "rftc/frequency_planner.hpp"
#include "util/rng.hpp"

namespace rftc {
namespace {

using clk::kMmcmOutputs;
using clk::MmcmConfig;
using clk::MmcmLimits;
using Targets = std::array<double, kMmcmOutputs>;

// ------------------------------------------------------------- oracles --

int oracle_divider_8ths(double vco_mhz, double target_mhz, bool fractional,
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

/// Every (DIVCLK, MULT) pair in order; the first minimal summed relative
/// error wins.
std::optional<MmcmConfig> oracle_synthesize_set(double fin_mhz,
                                                const Targets& targets,
                                                int count,
                                                const MmcmLimits& lim) {
  if (count < 1 || count > kMmcmOutputs) return std::nullopt;
  std::optional<MmcmConfig> best;
  double best_err = std::numeric_limits<double>::infinity();
  for (int d = lim.divclk_min; d <= lim.divclk_max; ++d) {
    const double pfd = fin_mhz / d;
    if (pfd < lim.pfd_min_mhz) break;
    if (pfd > lim.pfd_max_mhz) continue;
    const int m_lo = std::max(
        lim.mult_min_8ths,
        static_cast<int>(std::ceil(lim.vco_min_mhz * d / fin_mhz * 8.0)));
    const int m_hi = std::min(
        lim.mult_max_8ths,
        static_cast<int>(std::floor(lim.vco_max_mhz * d / fin_mhz * 8.0)));
    for (int m = m_lo; m <= m_hi; ++m) {
      const double vco = fin_mhz * (m / 8.0) / d;
      MmcmConfig cfg;
      cfg.fin_mhz = fin_mhz;
      cfg.mult_8ths = m;
      cfg.divclk = d;
      cfg.out_div_8ths.fill(lim.out_div_max_8ths);
      cfg.out_enabled.fill(false);
      double err = 0.0;
      for (int k = 0; k < count; ++k) {
        const double t = targets[static_cast<std::size_t>(k)];
        const int div8 = oracle_divider_8ths(
            vco, t, /*fractional=*/k == 0 && lim.fractional_clkout0, lim);
        cfg.out_div_8ths[static_cast<std::size_t>(k)] = div8;
        cfg.out_enabled[static_cast<std::size_t>(k)] = true;
        const double achieved = vco / (div8 / 8.0);
        err += std::fabs(achieved - t) / t;
      }
      if (err < best_err) {
        best_err = err;
        best = cfg;
      }
    }
  }
  if (best && best->validate(lim)) return std::nullopt;
  return best;
}

void oracle_times(const std::vector<std::int64_t>& periods, std::size_t index,
                  int remaining, std::int64_t acc,
                  std::vector<std::int64_t>& out) {
  if (index + 1 == periods.size()) {
    out.push_back(acc + remaining * periods[index]);
    return;
  }
  for (int c = 0; c <= remaining; ++c)
    oracle_times(periods, index + 1, remaining - c, acc + c * periods[index],
                 out);
}

/// The planner with the oracle synthesizer and node-based hash sets.
core::FrequencyPlan oracle_plan(const core::PlannerParams& params) {
  if (params.m_outputs < 1 || params.m_outputs > kMmcmOutputs)
    throw std::invalid_argument("plan_frequencies: bad M");
  if (params.p_configs < 1)
    throw std::invalid_argument("plan_frequencies: bad P");
  if (params.f_max_mhz <= params.f_min_mhz || params.grid_step_mhz <= 0)
    throw std::invalid_argument("plan_frequencies: bad frequency range");
  std::vector<double> grid;
  for (double f = params.f_min_mhz; f <= params.f_max_mhz + 1e-9;
       f += params.grid_step_mhz)
    grid.push_back(f);
  Xoshiro256StarStar rng(params.seed);
  const std::int64_t res =
      std::max<std::int64_t>(params.collision_resolution_fs, 1);
  core::FrequencyPlan plan;
  plan.params = params;
  std::unordered_set<std::int64_t> used_times;
  std::unordered_set<std::uint64_t> used_tuples;
  const std::uint64_t budget =
      static_cast<std::uint64_t>(params.p_configs) * 400 + 10'000;
  std::uint64_t attempts = 0;
  std::size_t grid_cursor = 0;
  while (plan.configs.size() < static_cast<std::size_t>(params.p_configs)) {
    if (++attempts > budget)
      throw std::runtime_error(
          "plan_frequencies: candidate budget exhausted before reaching P; "
          "widen the range or lower P");
    Targets targets{};
    for (int k = 0; k < params.m_outputs; ++k) {
      double f;
      if (params.naive_grid_partition) {
        f = grid[(grid_cursor + static_cast<std::size_t>(k)) % grid.size()];
      } else if (params.uniform_in_period) {
        const double p_min = 1.0 / params.f_max_mhz;
        const double p_max = 1.0 / params.f_min_mhz;
        const double p = p_min + (p_max - p_min) * rng.uniform01();
        const double raw = 1.0 / p;
        const auto idx = static_cast<std::size_t>(std::clamp(
            std::llround((raw - params.f_min_mhz) / params.grid_step_mhz),
            0LL, static_cast<long long>(grid.size() - 1)));
        f = grid[idx];
      } else {
        f = grid[rng.uniform(grid.size())];
      }
      targets[static_cast<std::size_t>(k)] = f;
    }
    if (params.naive_grid_partition)
      grid_cursor = (grid_cursor + static_cast<std::size_t>(params.m_outputs)) %
                    grid.size();
    auto cfg = oracle_synthesize_set(params.fin_mhz, targets, params.m_outputs,
                                     params.limits);
    if (!cfg) continue;
    std::vector<Picoseconds> periods(static_cast<std::size_t>(params.m_outputs));
    std::vector<std::int64_t> periods_fs(
        static_cast<std::size_t>(params.m_outputs));
    bool in_range = true;
    const double tolerance = std::max(params.grid_step_mhz, 0.3);
    for (int k = 0; k < params.m_outputs; ++k) {
      const double f = cfg->output_mhz(k);
      if (f < params.f_min_mhz - tolerance ||
          f > params.f_max_mhz + tolerance) {
        in_range = false;
        break;
      }
      periods[static_cast<std::size_t>(k)] = cfg->output_period_ps(k);
      periods_fs[static_cast<std::size_t>(k)] =
          static_cast<std::int64_t>(std::llround(1e9 / f));
    }
    if (!in_range) continue;
    std::vector<std::int64_t> sorted = periods_fs;
    std::sort(sorted.begin(), sorted.end());
    if (params.avoid_overlaps &&
        std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
      continue;
    std::uint64_t tuple_hash = 1469598103934665603ULL;
    for (const std::int64_t p : sorted) {
      tuple_hash ^= static_cast<std::uint64_t>(p);
      tuple_hash *= 1099511628211ULL;
    }
    if (!params.naive_grid_partition && used_tuples.contains(tuple_hash))
      continue;
    if (params.avoid_overlaps) {
      std::vector<std::int64_t> times;
      oracle_times(periods_fs, 0, params.rounds, 0, times);
      std::unordered_set<std::int64_t> candidate;
      bool clash = false;
      for (const std::int64_t t : times) {
        const std::int64_t q = t / res;
        if (used_times.contains(q) || !candidate.insert(q).second) {
          clash = true;
          break;
        }
      }
      if (clash) {
        ++plan.rejected_sets;
        continue;
      }
      used_times.insert(candidate.begin(), candidate.end());
    }
    used_tuples.insert(tuple_hash);
    plan.configs.push_back(*cfg);
    plan.periods_ps.push_back(std::move(periods));
    plan.periods_fs.push_back(std::move(periods_fs));
  }
  return plan;
}

// ------------------------------------------------------------- helpers --

std::optional<std::string> config_diff(const MmcmConfig& got,
                                       const MmcmConfig& want) {
  if (got.fin_mhz != want.fin_mhz) return "fin_mhz differs";
  if (got.mult_8ths != want.mult_8ths)
    return "mult_8ths " + std::to_string(got.mult_8ths) + " vs " +
           std::to_string(want.mult_8ths);
  if (got.divclk != want.divclk)
    return "divclk " + std::to_string(got.divclk) + " vs " +
           std::to_string(want.divclk);
  if (got.out_div_8ths != want.out_div_8ths) return "out_div_8ths differ";
  if (got.out_enabled != want.out_enabled) return "out_enabled differ";
  return std::nullopt;
}

std::optional<std::string> optional_config_diff(
    const std::optional<MmcmConfig>& got,
    const std::optional<MmcmConfig>& want) {
  if (got.has_value() != want.has_value())
    return std::string("found ") + (got ? "a config" : "none") +
           ", oracle found " + (want ? "a config" : "none");
  if (!got) return std::nullopt;
  return config_diff(*got, *want);
}

/// Plans (or their exceptions) must match field for field.
std::optional<std::string> plan_diff(const core::PlannerParams& params) {
  std::optional<core::FrequencyPlan> got, want;
  std::string got_error, want_error;
  try {
    got = core::plan_frequencies(params);
  } catch (const std::exception& e) {
    got_error = e.what();
  }
  try {
    want = oracle_plan(params);
  } catch (const std::exception& e) {
    want_error = e.what();
  }
  if (got_error != want_error)
    return "error '" + got_error + "' vs oracle '" + want_error + "'";
  if (!want) return std::nullopt;
  if (got->configs.size() != want->configs.size()) return "config count";
  for (std::size_t i = 0; i < want->configs.size(); ++i)
    if (auto d = config_diff(got->configs[i], want->configs[i]))
      return "config " + std::to_string(i) + ": " + *d;
  if (got->periods_ps != want->periods_ps) return "periods_ps differ";
  if (got->periods_fs != want->periods_fs) return "periods_fs differ";
  if (got->rejected_sets != want->rejected_sets)
    return "rejected_sets " + std::to_string(got->rejected_sets) + " vs " +
           std::to_string(want->rejected_sets);
  return std::nullopt;
}

MmcmLimits limits_for(bool altera) {
  return altera ? clk::altera_iopll_limits() : MmcmLimits{};
}

// --------------------------------------------------------- synthesizer --

struct SynthCase {
  double fin_mhz = 24.0;
  bool altera = false;
  int count = 1;
  Targets targets{};
};

std::string show_synth(const SynthCase& c) {
  std::ostringstream os;
  os.precision(17);
  os << "fin=" << c.fin_mhz << (c.altera ? " altera" : " 7series")
     << " count=" << c.count << " targets=[";
  for (int k = 0; k < c.count; ++k)
    os << c.targets[static_cast<std::size_t>(k)] << (k + 1 < c.count ? "," : "]");
  return os.str();
}

/// fin = 100 MHz spans DIVCLK 1..10 on a 7-series part; 24 MHz spans 1..2.
constexpr std::array<double, 5> kFins{24.0, 24.0, 100.0, 33.333, 12.5};

SynthCase gen_synth(pbt::Rng& rng) {
  SynthCase c;
  c.fin_mhz = kFins[rng.uniform(kFins.size())];
  c.altera = rng.uniform(2) == 1;
  c.count = static_cast<int>(pbt::gen::size_in(rng, 1, kMmcmOutputs));
  const auto kind = rng.uniform(5);
  for (double& t : c.targets) {
    switch (kind) {
      case 0:  // the planner's 0.012 MHz grid over 12-48 MHz
        t = 12.0 + 0.012 * static_cast<double>(rng.uniform(3001));
        break;
      case 1:  // anywhere in the band
        t = pbt::gen::real_in(rng, 12.0, 48.0);
        break;
      case 2:  // out of band, both sides
        t = std::exp(pbt::gen::real_in(rng, std::log(0.5), std::log(3000.0)));
        break;
      case 3:  // divisors of many VCOs: exact-zero-error ties
        t = std::array<double, 6>{12.0, 24.0, 25.0, 30.0, 37.5, 48.0}
            [rng.uniform(6)];
        break;
      default:  // one repeated target
        t = c.targets[0] > 0 ? c.targets[0]
                             : pbt::gen::real_in(rng, 12.0, 48.0);
        break;
    }
  }
  return c;
}

TEST(SynthesizerOracle, MatchesBruteForceOnRandomTargets) {
  const pbt::Config cfg = pbt::Config::from_env(0x5EA7C4, 3000);
  // One synthesizer per (fin, limits), reused across cases as the planner
  // reuses its own, so call-to-call state is exercised too.
  std::vector<std::pair<std::pair<double, bool>, clk::FrequencySetSynthesizer>>
      synths;
  const auto synth_for = [&](const SynthCase& c)
      -> clk::FrequencySetSynthesizer& {
    for (auto& [key, s] : synths)
      if (key.first == c.fin_mhz && key.second == c.altera) return s;
    synths.emplace_back(std::make_pair(c.fin_mhz, c.altera),
                        clk::FrequencySetSynthesizer(c.fin_mhz,
                                                     limits_for(c.altera)));
    return synths.back().second;
  };
  const bool ok = pbt::check<SynthCase>(
      "synthesizer_matches_oracle", gen_synth,
      [&](const SynthCase& c) {
        return optional_config_diff(
            synth_for(c).synthesize(c.targets, c.count),
            oracle_synthesize_set(c.fin_mhz, c.targets, c.count,
                                  limits_for(c.altera)));
      },
      cfg, {}, show_synth);
  EXPECT_TRUE(ok);
}

TEST(SynthesizerOracle, FreeFunctionMatchesOnEdgeTargets) {
  // Non-positive and non-finite targets take the unbounded full scan.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const bool altera : {false, true})
    for (const double fin : {24.0, 100.0})
      for (const std::array<double, 3> t :
           {std::array<double, 3>{30.0, -5.0, 20.0},
            std::array<double, 3>{0.0, 30.0, 20.0},
            std::array<double, 3>{30.0, inf, 20.0},
            std::array<double, 3>{nan, 30.0, 20.0},
            std::array<double, 3>{1e-6, 30.0, 20.0},
            std::array<double, 3>{5000.0, 6000.0, 20.0},
            std::array<double, 3>{24.0, 24.0, 24.0}})
        for (int count = 1; count <= 3; ++count) {
          Targets targets{};
          std::copy(t.begin(), t.end(), targets.begin());
          const MmcmLimits lim = limits_for(altera);
          EXPECT_EQ(optional_config_diff(
                        clk::synthesize_frequency_set(fin, targets, count, lim),
                        oracle_synthesize_set(fin, targets, count, lim)),
                    std::nullopt)
              << "fin=" << fin << " altera=" << altera << " count=" << count
              << " t0=" << t[0];
        }
}

TEST(SynthesizerOracle, DuplicateVcoTiesGoToTheFirstPair) {
  // At 24 MHz, DIVCLK=2 MULT=16j reproduces DIVCLK=1 MULT=8j's VCO (3j MHz)
  // for every VCO up to 768 MHz.  A 30 MHz integer output is met exactly by
  // every VCO that is a multiple of 30, so the error ties at zero; the
  // first pair in scan order, DIVCLK=1 at 600 MHz, must win.
  Targets targets{};
  targets[0] = 30.0;
  targets[1] = 30.0;
  for (const bool altera : {false, true}) {
    const auto got =
        clk::synthesize_frequency_set(24.0, targets, 2, limits_for(altera));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->divclk, 1);
    EXPECT_EQ(got->mult_8ths, 200);
    EXPECT_EQ(optional_config_diff(
                  got, oracle_synthesize_set(24.0, targets, 2,
                                             limits_for(altera))),
              std::nullopt);
  }
}

// ------------------------------------------------------------- planner --

std::string show_plan(const core::PlannerParams& p) {
  std::ostringstream os;
  os << "M=" << p.m_outputs << " P=" << p.p_configs << " seed=" << p.seed
     << " fin=" << p.fin_mhz
     << (p.limits.fractional_clkout0 ? " 7series" : " altera")
     << " naive=" << p.naive_grid_partition
     << " uniform_in_period=" << p.uniform_in_period
     << " avoid_overlaps=" << p.avoid_overlaps
     << " rounds=" << p.rounds
     << " resolution_fs=" << p.collision_resolution_fs;
  return os.str();
}

core::PlannerParams gen_plan(pbt::Rng& rng) {
  core::PlannerParams p;
  p.m_outputs = static_cast<int>(pbt::gen::size_in(rng, 1, kMmcmOutputs));
  p.seed = rng.next();
  // 50 MHz spans DIVCLK 1..5 at a third of 100 MHz's table size.
  p.fin_mhz = std::array<double, 5>{24.0, 24.0, 50.0, 33.333, 12.5}
      [rng.uniform(5)];
  p.limits = limits_for(rng.uniform(2) == 1);
  p.naive_grid_partition = rng.uniform(5) == 0;
  p.uniform_in_period = rng.uniform(3) != 0;
  p.avoid_overlaps = rng.uniform(6) != 0;
  p.collision_resolution_fs =
      std::array<std::int64_t, 3>{1, 1000, 1'000'000}[rng.uniform(3)];
  // Keep cases fast: a case that runs out of distinct completion times
  // burns the whole candidate budget before it throws.  So past three
  // outputs the round count shrinks (C(R+M-1, R) times per set) and the
  // resolution stays fine, and nanosecond resolution or a naive grid walk
  // (near-equal targets) keeps P small.
  std::size_t p_max = 96;
  if (p.m_outputs > 3) {
    p.rounds = static_cast<int>(pbt::gen::size_in(rng, 1, 4));
    p.collision_resolution_fs = std::min<std::int64_t>(
        p.collision_resolution_fs, 1000);
    p_max = 8;
  }
  if (p.naive_grid_partition) p_max = std::min<std::size_t>(p_max, 8);
  if (p.collision_resolution_fs == 1'000'000) p_max = 2;
  p.p_configs = static_cast<int>(pbt::gen::size_in(rng, 1, p_max));
  return p;
}

TEST(PlannerOracle, MatchesOracleAcrossRandomParameters) {
  const pbt::Config cfg = pbt::Config::from_env(0x91A77E, 80);
  const bool ok = pbt::check<core::PlannerParams>(
      "planner_matches_oracle", gen_plan, plan_diff, cfg, {}, show_plan);
  EXPECT_TRUE(ok);
}

TEST(PlannerOracle, MatchesOracleAtFullScale) {
  // RFTC(M, 1024) as RftcDevice::make plans it, deep in the regime where
  // most candidate sets are rejected.
  for (const int m : {1, 2, 3}) {
    core::PlannerParams p;
    p.m_outputs = m;
    p.p_configs = 1024;
    p.seed = 0x5EED | 1;
    EXPECT_EQ(plan_diff(p), std::nullopt) << show_plan(p);
  }
}

TEST(PlannerOracle, MatchesOracleWhenTheBudgetRunsOut) {
  // A nanosecond collision resolution cannot fit 64 three-frequency sets:
  // both planners must throw the same error after the same walk.
  core::PlannerParams p;
  p.m_outputs = 3;
  p.p_configs = 64;
  p.collision_resolution_fs = 1'000'000;
  EXPECT_EQ(plan_diff(p), std::nullopt) << show_plan(p);
  EXPECT_THROW(core::plan_frequencies(p), std::runtime_error);
}

}  // namespace
}  // namespace rftc
