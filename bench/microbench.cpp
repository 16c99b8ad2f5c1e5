// Kernel microbenchmarks (google-benchmark): the hot paths of the
// simulation and attack pipeline.  Results go to the console as usual and
// to BENCH_microbench.json for machine consumption (see
// docs/OBSERVABILITY.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "aes/leakage.hpp"
#include "aes/round_engine.hpp"
#include "analysis/cpa.hpp"
#include "analysis/dtw.hpp"
#include "analysis/fft.hpp"
#include "clocking/drp_codec.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "simd/simd.hpp"
#include "rftc/frequency_planner.hpp"
#include "sched/fixed_clock.hpp"
#include "trace/acquisition.hpp"
#include "util/crc32.hpp"
#include "util/parallel.hpp"

namespace {

using namespace rftc;

void BM_AesEncrypt(benchmark::State& state) {
  const aes::Key key = bench::evaluation_key();
  aes::Block pt{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes::encrypt(pt, key));
    ++pt[0];
  }
}
BENCHMARK(BM_AesEncrypt);

void BM_RoundEngine(benchmark::State& state) {
  aes::RoundEngine engine(bench::evaluation_key());
  aes::Block pt{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.encrypt(pt));
    ++pt[1];
  }
}
BENCHMARK(BM_RoundEngine);

void BM_HypothesisRow(benchmark::State& state) {
  aes::Block ct{};
  for (int i = 0; i < 16; ++i) ct[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(11 * i + 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes::last_round_hypothesis_row(ct, 5));
    ++ct[5];
  }
}
BENCHMARK(BM_HypothesisRow);

void BM_TraceSimulate(benchmark::State& state) {
  core::ScheduledAesDevice dev(
      bench::evaluation_key(),
      std::make_unique<sched::FixedClockScheduler>(48.0));
  trace::PowerModelParams pm;
  trace::TraceSimulator sim(pm, 1);
  aes::Block pt{};
  for (auto _ : state) {
    const auto rec = dev.encrypt(pt);
    benchmark::DoNotOptimize(sim.simulate(rec.schedule, rec.activity));
    ++pt[2];
  }
}
BENCHMARK(BM_TraceSimulate);

void BM_CpaAdd(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  analysis::CpaEngine engine(samples, {0, 5, 10, 15},
                             aes::LeakageModel::kLastRoundHd,
                             analysis::CpaMode::kStreaming);
  std::vector<float> tr(samples, 1.0f);
  aes::Block ct{};
  for (auto _ : state) {
    engine.add(ct, tr);
    ++ct[0];
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CpaAdd)->Arg(64)->Arg(125)->Arg(250);

void BM_CpaAddBatched(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  analysis::CpaEngine engine(samples, {0, 5, 10, 15},
                             aes::LeakageModel::kLastRoundHd,
                             analysis::CpaMode::kBatched);
  std::vector<float> tr(samples, 1.0f);
  aes::Block ct{};
  for (auto _ : state) {
    engine.add(ct, tr);
    ++ct[0];
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CpaAddBatched)->Arg(64)->Arg(125)->Arg(250);

/// Feeds `n` random traces so a report pass sees realistic class sums.
analysis::CpaEngine filled_engine(analysis::CpaMode mode, std::size_t samples,
                                  std::size_t n) {
  analysis::CpaEngine engine(samples, {0, 5, 10, 15},
                             aes::LeakageModel::kLastRoundHd, mode);
  Xoshiro256StarStar rng(11);
  std::vector<float> tr(samples);
  aes::Block ct{};
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : tr) v = static_cast<float>(rng.gaussian());
    for (auto& b : ct) b = static_cast<std::uint8_t>(rng.next());
    engine.add(ct, tr);
  }
  return engine;
}

void BM_CpaReportStreaming(benchmark::State& state) {
  const auto engine = filled_engine(
      analysis::CpaMode::kStreaming, static_cast<std::size_t>(state.range(0)),
      2'048);
  for (auto _ : state) benchmark::DoNotOptimize(engine.report());
}
BENCHMARK(BM_CpaReportStreaming)->Arg(250)->Unit(benchmark::kMillisecond);

void BM_CpaReportBatched(benchmark::State& state) {
  const auto engine = filled_engine(
      analysis::CpaMode::kBatched, static_cast<std::size_t>(state.range(0)),
      2'048);
  for (auto _ : state) benchmark::DoNotOptimize(engine.report());
}
BENCHMARK(BM_CpaReportBatched)->Arg(250)->Unit(benchmark::kMillisecond);

void BM_ParallelFor(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> v(n, 1.0);
  for (auto _ : state) {
    par::parallel_for(0, n, 1'024, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) v[i] = v[i] * 1.0000001 + 0.5;
    });
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ParallelFor)->Arg(1 << 12)->Arg(1 << 16);

void BM_DtwAlign(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256StarStar rng(3);
  std::vector<double> ref(n);
  std::vector<float> tr(n);
  for (std::size_t i = 0; i < n; ++i) {
    ref[i] = rng.gaussian();
    tr[i] = static_cast<float>(rng.gaussian());
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::dtw_align(ref, tr, {.band = 16}));
}
BENCHMARK(BM_DtwAlign)->Arg(125)->Arg(250);

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256StarStar rng(5);
  std::vector<float> sig(n);
  for (auto& v : sig) v = static_cast<float>(rng.gaussian());
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::magnitude_spectrum(sig));
}
BENCHMARK(BM_Fft)->Arg(128)->Arg(512);

void BM_DrpEncode(benchmark::State& state) {
  clk::MmcmConfig cfg;
  cfg.fin_mhz = 24.0;
  cfg.mult_8ths = 40 * 8;
  cfg.divclk = 1;
  cfg.out_div_8ths = {20 * 8, 24 * 8, 30 * 8, 8, 8, 8, 8};
  for (auto _ : state) benchmark::DoNotOptimize(clk::encode_config(cfg));
}
BENCHMARK(BM_DrpEncode);

void BM_EnumerateCompletionTimes(benchmark::State& state) {
  const std::vector<Picoseconds> periods = {20'833, 30'000, 41'667};
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::enumerate_completion_times(periods, 10));
}
BENCHMARK(BM_EnumerateCompletionTimes);

void BM_PlanFrequencies(benchmark::State& state) {
  for (auto _ : state) {
    core::PlannerParams pp;
    pp.m_outputs = 3;
    pp.p_configs = static_cast<int>(state.range(0));
    pp.seed = 1;
    benchmark::DoNotOptimize(core::plan_frequencies(pp));
  }
}
// 1024 is RftcDevice::make's RFTC(3, 1024), where most candidate sets are
// rejected.
BENCHMARK(BM_PlanFrequencies)
    ->Arg(16)
    ->Arg(64)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

/// CRC-32 over a multi-MiB buffer: the integrity check on every .rtst chunk
/// write, store verify() and wire-format snapshot seal.
void BM_Crc32(benchmark::State& state) {
  std::vector<unsigned char> buf(static_cast<std::size_t>(state.range(0)));
  Xoshiro256StarStar rng(0xC2C);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.next());
  for (auto _ : state)
    benchmark::DoNotOptimize(util::crc32(buf.data(), buf.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4 << 20)->Unit(benchmark::kMillisecond);

/// Deterministic 1-NN template-matching workload for the DTW early-abandon
/// gate: one query plus `count` candidates at paper-scale lengths.
/// Candidate 0 is a near-duplicate of the query so the best-so-far cutoff
/// collapses immediately; four candidates are the query with a reversed
/// interior (same endpoints and extrema, so LB_Kim passes and the DP must
/// abandon mid-sweep); the rest are independent random walks whose value
/// ranges differ enough for the O(n+m) lower bound to reject them outright.
std::vector<std::vector<double>> dtw_gate_candidates(
    const std::vector<double>& query, std::size_t count) {
  Xoshiro256StarStar rng(97);
  std::vector<std::vector<double>> cands(count);
  cands[0] = query;
  for (auto& v : cands[0]) v += 1e-3 * rng.gaussian();
  for (std::size_t c = 1; c < 5 && c < count; ++c) {
    cands[c] = query;
    std::reverse(cands[c].begin() + 1 + static_cast<std::ptrdiff_t>(c),
                 cands[c].end() - 1);
  }
  for (std::size_t c = 5; c < count; ++c) {
    cands[c].resize(query.size());
    double x = rng.gaussian();
    for (auto& v : cands[c]) v = x += 0.05 * rng.gaussian();
  }
  return cands;
}

/// Times the 1-NN search over `cands`.  `pruned` threads the best-so-far
/// distance through DtwParams::max_distance; the baseline leaves the cutoff
/// at infinity, i.e. the pre-pruning banded DP on every candidate.
double dtw_gate_search(const std::vector<double>& query,
                       const std::vector<std::vector<double>>& cands,
                       bool pruned, double* best_out) {
  const auto t0 = std::chrono::steady_clock::now();
  double best = std::numeric_limits<double>::infinity();
  for (const auto& c : cands) {
    analysis::DtwParams params{.band = 64};
    if (pruned) params.max_distance = best;
    const double d = analysis::dtw_distance(query, c, params);
    if (d < best) best = d;
  }
  const auto t1 = std::chrono::steady_clock::now();
  *best_out = best;
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Self-gating DTW pruning benchmark (outside google-benchmark so the
/// iteration count — and therefore the prune-counter deltas recorded as
/// exact "count" metrics — is deterministic).  Measures the same banded
/// 1-NN search with and without early abandoning and fails the bench if
/// the speedup drops below 10x or pruning changes the search result.
bool run_dtw_speedup_gate(obs::BenchReport& report) {
  constexpr std::size_t kLen = 1'536;
  constexpr std::size_t kCands = 48;
  constexpr int kRepeats = 3;
  Xoshiro256StarStar rng(31);
  std::vector<double> query(kLen);
  double x = 0.0;
  for (auto& v : query) v = x += 0.05 * rng.gaussian();
  const auto cands = dtw_gate_candidates(query, kCands);

  auto& lb = obs::Registry::global().counter("analysis.dtw.lb_kim_rejects");
  auto& ea = obs::Registry::global().counter("analysis.dtw.early_abandons");
  const double lb0 = static_cast<double>(lb.value());
  const double ea0 = static_cast<double>(ea.value());

  double unpruned = std::numeric_limits<double>::infinity();
  double pruned = std::numeric_limits<double>::infinity();
  double best_unpruned = 0.0;
  double best_pruned = 0.0;
  for (int r = 0; r < kRepeats; ++r) {
    unpruned = std::min(
        unpruned, dtw_gate_search(query, cands, false, &best_unpruned));
    pruned =
        std::min(pruned, dtw_gate_search(query, cands, true, &best_pruned));
  }
  const double speedup = unpruned / pruned;
  report.metric("dtw_unpruned_seconds", unpruned, "s");
  report.metric("dtw_pruned_seconds", pruned, "s");
  report.metric("dtw_speedup_vs_naive", speedup, "x");
  // Per-repeat reject/abandon tallies are a pure function of the fixed
  // candidate set, so the deltas are exact-match "count" metrics.
  report.metric("dtw_lb_kim_rejects",
                static_cast<double>(lb.value()) - lb0, "count");
  report.metric("dtw_early_abandons",
                static_cast<double>(ea.value()) - ea0, "count");
  std::printf(
      "DTW 1-NN (%zu cands x len %zu, band 64): unpruned %.3fs, pruned "
      "%.3fs, speedup %.1fx\n",
      kCands, kLen, unpruned, pruned, speedup);
  if (best_pruned != best_unpruned) {
    std::fprintf(stderr,
                 "FAIL: pruned 1-NN distance %.17g != unpruned %.17g\n",
                 best_pruned, best_unpruned);
    return false;
  }
  if (speedup < 10.0) {
    std::fprintf(stderr,
                 "FAIL: DTW early-abandon speedup %.2fx below the 10x gate\n",
                 speedup);
    return false;
  }
  return true;
}

/// Console output plus per-benchmark metrics captured into the bench
/// report.  BM_TraceSimulate doubles as the headline throughput: one
/// iteration is one full encrypt + trace synthesis, i.e. one trace.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  // Tabular but uncolored: the default OO_Color writes ANSI escapes even
  // into pipes, which breaks downstream grep/CI log parsing.
  explicit CaptureReporter(obs::BenchReport& report)
      : ConsoleReporter(OO_Tabular), report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const std::string name = run.benchmark_name();
      report_.metric(name, run.GetAdjustedRealTime(),
                     benchmark::GetTimeUnitString(run.time_unit));
      if (name == "BM_TraceSimulate" && run.iterations > 0) {
        report_.throughput(static_cast<double>(run.iterations) /
                               run.real_accumulated_time,
                           "traces/s");
      }
    }
  }

 private:
  obs::BenchReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  rftc::obs::BenchReport report("microbench");
  report.seed(1);  // fixtures use small fixed per-benchmark seeds
  report.note("simd_isa", rftc::simd::backend_name());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const bool dtw_ok = run_dtw_speedup_gate(report);
  report.write();
  return dtw_ok ? 0 : 1;
}
