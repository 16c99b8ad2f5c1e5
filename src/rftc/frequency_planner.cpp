#include "rftc/frequency_planner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace rftc::core {

std::uint64_t completion_times_per_set(int m, int rounds) {
  // C(rounds + m - 1, rounds) computed without overflow for the small
  // arguments we use (m <= 7, rounds <= 32).
  std::uint64_t num = 1;
  for (int i = 1; i <= m - 1; ++i) {
    num = num * static_cast<std::uint64_t>(rounds + i) /
          static_cast<std::uint64_t>(i);
  }
  return num;
}

namespace {

/// Visits every Σ c_i * period_i with Σ c_i = remaining, in a fixed order;
/// stops and returns false as soon as `visit` does.
template <typename Visit>
bool visit_completion_times(const std::vector<Picoseconds>& periods,
                            std::size_t index, int remaining, Picoseconds acc,
                            Visit& visit) {
  if (index + 1 == periods.size())
    return visit(acc + static_cast<Picoseconds>(remaining) * periods[index]);
  for (int c = 0; c <= remaining; ++c)
    if (!visit_completion_times(
            periods, index + 1, remaining - c,
            acc + static_cast<Picoseconds>(c) * periods[index], visit))
      return false;
  return true;
}

}  // namespace

std::vector<Picoseconds> enumerate_completion_times(
    const std::vector<Picoseconds>& periods_ps, int rounds) {
  if (periods_ps.empty())
    throw std::invalid_argument("enumerate_completion_times: no periods");
  std::vector<Picoseconds> out;
  out.reserve(completion_times_per_set(static_cast<int>(periods_ps.size()),
                                       rounds));
  auto append = [&out](Picoseconds t) {
    out.push_back(t);
    return true;
  };
  visit_completion_times(periods_ps, 0, rounds, 0, append);
  return out;
}

std::uint64_t FrequencyPlan::total_completion_times() const {
  return static_cast<std::uint64_t>(configs.size()) *
         completion_times_per_set(params.m_outputs, params.rounds);
}

std::size_t FrequencyPlan::distinct_frequencies() const {
  std::unordered_set<Picoseconds> seen;
  for (const auto& ps : periods_ps) seen.insert(ps.begin(), ps.end());
  return seen.size();
}

namespace {

/// Flat open-addressing set of quantized completion times (linear probing,
/// load factor <= 3/4; 1 MB at RFTC(3, 1024)).  Keys are >= 0, so -1 marks
/// an empty slot.
class CompletionTimeSet {
 public:
  explicit CompletionTimeSet(std::size_t expected) {
    while (4 * expected > 3 * slots_.size()) slots_.resize(2 * slots_.size());
    std::fill(slots_.begin(), slots_.end(), kEmpty);
  }

  bool contains(std::int64_t key) const {
    for (std::size_t s = slot(key);; s = (s + 1) & mask()) {
      if (slots_[s] == key) return true;
      if (slots_[s] == kEmpty) return false;
    }
  }

  void insert(std::int64_t key) {
    if (4 * (size_ + 1) > 3 * slots_.size()) {
      std::vector<std::int64_t> old(2 * slots_.size(), kEmpty);
      old.swap(slots_);
      size_ = 0;
      for (const std::int64_t k : old)
        if (k != kEmpty) place(k);
    }
    place(key);
  }

 private:
  static constexpr std::int64_t kEmpty = -1;

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t slot(std::int64_t key) const {
    // Fibonacci hashing; the high half feeds the mask.
    return static_cast<std::size_t>(
               (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >>
               32) &
           mask();
  }
  void place(std::int64_t key) {
    std::size_t s = slot(key);
    while (slots_[s] != kEmpty && slots_[s] != key) s = (s + 1) & mask();
    if (slots_[s] == kEmpty) {
      slots_[s] = key;
      ++size_;
    }
  }

  std::vector<std::int64_t> slots_ = std::vector<std::int64_t>(16, kEmpty);
  std::size_t size_ = 0;
};

/// Process-wide planner metrics, resolved once.
struct PlannerMetrics {
  obs::Counter& attempts = obs::Registry::global().counter("rftc.plan.attempts");
  obs::Counter& rejected_sets =
      obs::Registry::global().counter("rftc.plan.rejected_sets");
  obs::Counter& synth_evals =
      obs::Registry::global().counter("rftc.plan.synth_evals");
  obs::Histogram& plan_us = obs::Registry::global().histogram("rftc.plan_us");

  static PlannerMetrics& get() {
    static PlannerMetrics m;
    return m;
  }
};

}  // namespace

FrequencyPlan plan_frequencies(const PlannerParams& params) {
  if (params.m_outputs < 1 || params.m_outputs > clk::kMmcmOutputs)
    throw std::invalid_argument("plan_frequencies: bad M");
  if (params.p_configs < 1)
    throw std::invalid_argument("plan_frequencies: bad P");
  if (params.f_max_mhz <= params.f_min_mhz || params.grid_step_mhz <= 0)
    throw std::invalid_argument("plan_frequencies: bad frequency range");
  const auto started = std::chrono::steady_clock::now();

  // Candidate frequency grid (the paper's 0.012 MHz pitch over 12–48 MHz).
  std::vector<double> grid;
  for (double f = params.f_min_mhz; f <= params.f_max_mhz + 1e-9;
       f += params.grid_step_mhz)
    grid.push_back(f);

  Xoshiro256StarStar rng(params.seed);
  const std::int64_t res = std::max<std::int64_t>(params.collision_resolution_fs, 1);
  const auto m = static_cast<std::size_t>(params.m_outputs);
  const std::uint64_t per_set =
      completion_times_per_set(params.m_outputs, params.rounds);

  FrequencyPlan plan;
  plan.params = params;
  clk::FrequencySetSynthesizer synth(params.fin_mhz, params.limits);
  CompletionTimeSet used_times(
      params.avoid_overlaps
          ? static_cast<std::size_t>(std::min<std::uint64_t>(
                static_cast<std::uint64_t>(params.p_configs) * per_set,
                std::uint64_t{1} << 20))
          : 0);
  // A set whose *frequency tuple* was already accepted adds nothing; track
  // period tuples to avoid storing duplicates in the naive mode too.
  std::unordered_set<std::uint64_t> used_tuples;
  // Per-attempt buffers, reused across attempts.
  std::vector<Picoseconds> periods(m);
  std::vector<std::int64_t> periods_fs(m);
  std::vector<std::int64_t> sorted(m);
  std::vector<std::int64_t> times;
  times.reserve(per_set);

  const std::uint64_t budget =
      static_cast<std::uint64_t>(params.p_configs) * 400 + 10'000;
  std::uint64_t attempts = 0;
  std::size_t grid_cursor = 0;
  const auto record = [&] {
    PlannerMetrics& metrics = PlannerMetrics::get();
    metrics.attempts.inc(attempts);
    metrics.rejected_sets.inc(plan.rejected_sets);
    metrics.synth_evals.inc(synth.exact_evaluations());
    metrics.plan_us.observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - started)
            .count());
  };

  while (plan.configs.size() < static_cast<std::size_t>(params.p_configs)) {
    if (++attempts > budget) {
      record();
      throw std::runtime_error(
          "plan_frequencies: candidate budget exhausted before reaching P; "
          "widen the range or lower P");
    }

    // Draw M grid targets and snap the whole set onto one VCO.
    std::array<double, clk::kMmcmOutputs> targets{};
    for (int k = 0; k < params.m_outputs; ++k) {
      double f;
      if (params.naive_grid_partition) {
        f = grid[(grid_cursor + static_cast<std::size_t>(k)) % grid.size()];
      } else if (params.uniform_in_period) {
        const double p_min = 1.0 / params.f_max_mhz;
        const double p_max = 1.0 / params.f_min_mhz;
        const double p = p_min + (p_max - p_min) * rng.uniform01();
        // Snap the drawn period's frequency onto the design grid.
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
      grid_cursor = (grid_cursor + m) % grid.size();
    const auto cfg = synth.synthesize(targets, params.m_outputs);
    if (!cfg) continue;

    bool in_range = true;
    // Integer-divider outputs snap at VCO/O granularity (~0.3 MHz near the
    // top of the band), so the band check must tolerate at least that much.
    const double tolerance = std::max(params.grid_step_mhz, 0.3);
    for (std::size_t k = 0; k < m; ++k) {
      const double f = cfg->output_mhz(static_cast<int>(k));
      if (f < params.f_min_mhz - tolerance ||
          f > params.f_max_mhz + tolerance) {
        in_range = false;
        break;
      }
      periods[k] = cfg->output_period_ps(static_cast<int>(k));
      periods_fs[k] = static_cast<std::int64_t>(std::llround(1e9 / f));
    }
    if (!in_range) continue;

    // All M outputs of a set must have unique frequencies (§4).  The naive
    // mode skips this — near-equal targets snapping to one integer divider
    // is exactly the kind of accident careful planning prevents.
    std::copy(periods_fs.begin(), periods_fs.end(), sorted.begin());
    std::sort(sorted.begin(), sorted.end());
    if (params.avoid_overlaps &&
        std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
      continue;

    // Skip exact repeats of an already-accepted tuple (except in the naive
    // grid partition, which stores whatever the grid walk produced — the
    // whole point of Fig. 3-b).
    std::uint64_t tuple_hash = 1469598103934665603ULL;
    for (const std::int64_t p : sorted) {
      tuple_hash ^= static_cast<std::uint64_t>(p);
      tuple_hash *= 1099511628211ULL;
    }
    if (!params.naive_grid_partition && used_tuples.contains(tuple_hash))
      continue;

    if (params.avoid_overlaps) {
      // Reject on collision with any accepted set, and on *internal*
      // collisions (two round multisets of this very set with identical
      // sums — the 396.1 ns example of §5 is exactly such a case).
      const auto quantize = [res](std::int64_t t) {
        return res == 1 ? t : t / res;
      };
      // A set sharing a period with an accepted set collides on the
      // all-rounds-at-one-clock times; probe those first.
      bool clash = std::any_of(
          periods_fs.begin(), periods_fs.end(), [&](std::int64_t p) {
            return used_times.contains(quantize(params.rounds * p));
          });
      times.clear();
      auto fresh = [&](std::int64_t t) {
        times.push_back(quantize(t));
        return !used_times.contains(times.back());
      };
      clash = clash ||
              !visit_completion_times(periods_fs, 0, params.rounds, 0, fresh);
      if (!clash) {
        std::sort(times.begin(), times.end());
        clash = std::adjacent_find(times.begin(), times.end()) != times.end();
      }
      if (clash) {
        ++plan.rejected_sets;
        continue;
      }
      for (const std::int64_t q : times) used_times.insert(q);
    }

    used_tuples.insert(tuple_hash);
    plan.configs.push_back(*cfg);
    plan.periods_ps.push_back(periods);
    plan.periods_fs.push_back(periods_fs);
  }
  record();
  return plan;
}

}  // namespace rftc::core
