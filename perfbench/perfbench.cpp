// perfbench: the campaign benchmark driver (see perfbench/README.md).
//
//   perfbench --workload attack_suite|tvla_store|dist_cpa --seed N
//             --seconds S --trace 0|1 --tmp DIR --spans FILE [--git-sha SHA]
//
// Runs one workload through the public rftc API in two legs — T = nproc
// threads (dist_cpa: nproc workers at one thread each) and T = 1 — and
// prints a readable report followed, as the last line of stdout, by one JSON
// object {correct, attempted, failed, metrics}.  --trace 0 reports the
// end-to-end metrics; --trace 1 additionally runs every repetition a second
// time under the benchmark's own span recorder and reports the per-layer
// metrics.  All stores and campaign directories live under --tmp.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/attacks.hpp"
#include "analysis/cpa.hpp"
#include "analysis/dtw.hpp"
#include "analysis/tvla.hpp"
#include "common.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "simd/simd.hpp"
#include "trace/acquisition.hpp"
#include "trace/trace_store.hpp"
#include "util/crc32.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_WORKER_BIN
#define PERFBENCH_WORKER_BIN "rftc-worker"
#endif

namespace {

using namespace rftc;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

/// Seconds since process start.
double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_process_start).count();
}

// ---- workload sizes -------------------------------------------------------
// Each repetition is sized so that a 20 s run holds several repetitions of
// each leg; the trace axis is the fast profile's scaled down (README.md).

/// attack_suite: traces per RFTC(1, P) cell and the P axis of Fig. 4.
constexpr std::size_t kSuiteCellTraces = 4096;
constexpr std::array<int, 5> kSuiteP = {4, 16, 64, 256, 1024};
/// tvla_store: traces per population of the RFTC(3, 1024) TVLA campaign.
constexpr std::size_t kTvlaTraces = 4096;
/// dist_cpa: traces in the unprotected input store.
constexpr std::size_t kDistTraces = 16384;
/// Rounds per run: each round re-enters both legs behind one warm-up
/// repetition each, so setup_s is a median over several set-ups.
constexpr int kRounds = 3;
/// Traces captured by the per-layer probes (one capture shard).
constexpr std::size_t kProbeTraces = trace::kCaptureShardSize;

// The standard TVLA fixed plaintext (as in fig6_tvla / ooc_campaign).
constexpr aes::Block kTvlaFixed = {0xDA, 0x39, 0xA3, 0xEE, 0x5E, 0x6B,
                                   0x4B, 0x0D, 0x32, 0x55, 0xBF, 0xEF,
                                   0x95, 0x60, 0x18, 0x90};

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return SplitMix64(seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1))).next();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return 1;
}

// ---- span recorder --------------------------------------------------------
// In-memory spans of the traced repetitions, written as JSON at exit.  All
// spans are opened on the benchmark's main thread, so they nest strictly.
struct Span {
  std::string name;
  double start = 0.0, end = 0.0;
  int parent = -1;
  long rep = -1;
  std::string leg;
};

class SpanRecorder {
 public:
  bool on = false;
  long rep = -1;
  std::string leg;

  int open(std::string name) {
    if (!on) return -1;
    spans_.push_back({std::move(name), now_s(), 0.0, current_, rep, leg});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  /// Duration minus the time its direct children cover.
  double self_time(std::size_t id) const {
    double t = spans_[id].end - spans_[id].start;
    for (std::size_t c = id + 1; c < spans_.size(); ++c)
      if (spans_[c].parent == static_cast<int>(id))
        t -= spans_[c].end - spans_[c].start;
    return t;
  }

  /// Durations of every span called `name` in leg `leg`.
  std::vector<double> durations(const std::string& name,
                                const std::string& in_leg) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name && s.leg == in_leg) out.push_back(s.end - s.start);
    return out;
  }
  /// Summed self time of every span called `name` in leg `leg`.
  double self_sum(const std::string& name, const std::string& in_leg) const {
    double t = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].name == name && spans_[i].leg == in_leg)
        t += self_time(i);
    return t;
  }

  void write_json(const std::string& path, const std::string& provenance) const;

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

SpanRecorder g_spans;

class SpanScope {
 public:
  explicit SpanScope(std::string name) : id_(g_spans.open(std::move(name))) {}
  ~SpanScope() { g_spans.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void SpanRecorder::write_json(const std::string& path,
                              const std::string& provenance) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  std::fprintf(f, "{\"provenance\": %s,\n \"spans\": [", provenance.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"self\": %.9f, \"parent\": %d, \"rep\": %ld, "
                 "\"leg\": \"%s\"}",
                 i == 0 ? "" : ",", i, json_escape(s.name).c_str(), s.start,
                 s.end, self_time(i), s.parent, s.rep, s.leg.c_str());
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// ---- one repetition -------------------------------------------------------
struct RepOutput {
  std::size_t traces = 0;
  std::string digest;  // bytes of the outcome, compared for bit identity
  double disk_bytes = 0.0;
  std::size_t chunks_written = 0;
  double verified_bytes = 0.0;
  dist::CampaignResult campaign;  // dist_cpa only
  bool ok = true;  // workload-specific output checks (verify, key rank)
  std::string error;
};

template <typename T>
void append_bytes(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void append_outcome(std::string& out, const analysis::AttackOutcome& o) {
  append_bytes(out, o.kind);
  for (std::size_t i = 0; i < o.checkpoints.size(); ++i) {
    append_bytes(out, o.checkpoints[i]);
    append_bytes(out, static_cast<bool>(o.success[i]));
    append_bytes(out, o.mean_rank[i]);
    append_bytes(out, o.peak_corr[i]);
  }
}

void append_tvla(std::string& out, const analysis::TvlaResult& r) {
  for (const double t : r.t_values) append_bytes(out, t);
  append_bytes(out, r.max_abs_t);
  append_bytes(out, r.worst_sample);
  append_bytes(out, r.leaking_samples);
  for (const auto& [n, t] : r.convergence) {
    append_bytes(out, n);
    append_bytes(out, t);
  }
}

constexpr std::array<analysis::AttackKind, 4> kSuiteKinds = {
    analysis::AttackKind::kCpa, analysis::AttackKind::kPcaCpa,
    analysis::AttackKind::kDtwCpa, analysis::AttackKind::kFftCpa};

std::string kind_key(analysis::AttackKind k) {
  switch (k) {
    case analysis::AttackKind::kCpa: return "cpa";
    case analysis::AttackKind::kPcaCpa: return "pca_cpa";
    case analysis::AttackKind::kDtwCpa: return "dtw_cpa";
    case analysis::AttackKind::kFftCpa: return "fft_cpa";
    default: return "other";
  }
}

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::string tmp;
  std::size_t traces_per_cell = 0;
  std::size_t samples = 0;
  /// Shard factory whose first shard the per-layer probes capture from.
  trace::CaptureShardFactory probe_factory;
  /// Key bytes the workload's CPA attacks.
  std::vector<int> attack_bytes;
};

RepOutput attack_suite_rep(const Workload& w, long rep) {
  RepOutput out;
  const bench::ScaleProfile profile = bench::scale_profile();
  analysis::AttackParams params;
  params.byte_positions = profile.attack_bytes;
  // The profile's checkpoints, scaled from its 48k-trace budget to the cell.
  for (const std::size_t c : profile.sr_checkpoints)
    params.checkpoints.push_back(
        std::max<std::size_t>(1, c * w.traces_per_cell /
                                     profile.sr_max_traces));
  const aes::Block rk10 = bench::evaluation_round10_key();
  const std::uint64_t repeat = derive(w.seed, static_cast<std::uint64_t>(rep));
  for (const int p : kSuiteP) {
    SpanScope cell("cell.rftc_1_" + std::to_string(p));
    trace::TraceSet set(1);
    {
      SpanScope s("trace.acquire_random_parallel");
      set = bench::rftc_factory(1, p)(repeat, w.traces_per_cell);
    }
    out.traces += set.size();
    for (const analysis::AttackKind kind : kSuiteKinds) {
      SpanScope s("analysis.run_attack." + kind_key(kind));
      params.kind = kind;
      append_outcome(out.digest, analysis::run_attack(set, rk10, params));
    }
  }
  return out;
}

RepOutput tvla_store_rep(const Workload& w, long rep, const std::string& leg) {
  RepOutput out;
  const std::uint64_t mix = derive(w.seed, static_cast<std::uint64_t>(rep));
  const trace::CaptureShardFactory factory =
      bench::rftc_shard_factory(3, 1024, mix);
  const std::string stem = w.tmp + "/tvla_" + leg + "_" + std::to_string(rep);
  const std::string fixed_path = stem + "_fixed.rtst";
  const std::string random_path = stem + "_random.rtst";
  {
    trace::TraceStoreWriter fixed_w(fixed_path, w.samples);
    trace::TraceStoreWriter random_w(random_path, w.samples);
    {
      SpanScope s("trace.acquire_tvla_store");
      trace::acquire_tvla_store(factory, w.traces_per_cell, kTvlaFixed,
                                mix + 1, fixed_w, random_w);
    }
    {
      SpanScope s("trace.finalize");
      fixed_w.finalize();
      random_w.finalize();
    }
    out.chunks_written = fixed_w.chunks_written() + random_w.chunks_written();
  }
  {
    std::optional<trace::StoredTvlaCapture> stored;
    {
      SpanScope s("trace.reopen");
      stored.emplace(trace::StoredTvlaCapture{trace::TraceStore(fixed_path),
                                              trace::TraceStore(random_path)});
    }
    out.disk_bytes = static_cast<double>(stored->fixed.file_bytes() +
                                         stored->random.file_bytes());
    {
      SpanScope s("trace.verify");
      for (const trace::TraceStore* st : {&stored->fixed, &stored->random}) {
        const trace::StoreVerifyResult v = st->verify();
        if (!v.ok) {
          out.ok = false;
          out.error = st->path() + ": " + v.error;
        }
      }
    }
    out.verified_bytes = out.disk_bytes;
    {
      SpanScope s("analysis.run_tvla");
      append_tvla(out.digest, analysis::run_tvla(*stored));
    }
    out.traces = stored->fixed.size() + stored->random.size();
  }
  fs::remove(fixed_path);
  fs::remove(random_path);
  return out;
}

double tree_bytes(const std::string& dir) {
  double total = 0.0;
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += static_cast<double>(e.file_size());
  return total;
}

dist::CampaignSpec dist_spec(const Workload& w) {
  dist::CampaignSpec spec;
  spec.kind = dist::CampaignKind::kAttack;
  spec.name = "perfbench_dist_cpa";
  spec.store = w.tmp + "/dist_input.rtst";
  spec.key_hex = dist::key_to_hex(bench::evaluation_round10_key());
  const std::size_t n = w.traces_per_cell;
  spec.checkpoints = {n / 4, n / 2, n};
  return spec;
}

RepOutput dist_cpa_rep(const Workload& w, std::size_t workers, long rep,
                       const std::string& leg) {
  RepOutput out;
  dist::CoordinatorOptions options;
  options.dir = w.tmp + "/campaign_" + leg + "_" + std::to_string(rep);
  options.worker_binary = PERFBENCH_WORKER_BIN;
  options.workers = workers;
  {
    SpanScope s("dist.run_campaign");
    out.campaign = dist::run_campaign(dist_spec(w), options);
  }
  out.disk_bytes = tree_bytes(options.dir);
  fs::remove_all(options.dir);
  append_outcome(out.digest, out.campaign.attack);
  for (const double r : out.campaign.attack.mean_rank)
    if (r != 1.0) {
      out.ok = false;
      out.error = "mean rank " + std::to_string(r) + " at a checkpoint";
    }
  out.traces = w.traces_per_cell;
  return out;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& tmp) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.tmp = tmp;
  w.attack_bytes = bench::scale_profile().attack_bytes;
  if (name == "attack_suite") {
    w.traces_per_cell = kSuiteCellTraces;
    // Repetition 0's P = 1024 cell.
    w.probe_factory = bench::rftc_shard_factory(
        1, kSuiteP.back(),
        bench::rftc_campaign_mix(1, kSuiteP.back(), derive(seed, 0)));
  } else if (name == "tvla_store") {
    w.traces_per_cell = kTvlaTraces;
    w.probe_factory = bench::rftc_shard_factory(3, 1024, derive(seed, 0));
  } else if (name == "dist_cpa") {
    w.traces_per_cell = kDistTraces;
    w.attack_bytes.clear();
    for (int b = 0; b < 16; ++b) w.attack_bytes.push_back(b);
    w.probe_factory = bench::unprotected_shard_factory(derive(seed, 0));
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (attack_suite | tvla_store | dist_cpa)");
  }
  w.samples = w.probe_factory(0).sim.samples();
  return w;
}

/// One repetition at `threads` (dist_cpa: workers).
RepOutput run_rep(const Workload& w, std::size_t threads, long rep,
                  const std::string& leg) {
  if (w.name == "attack_suite") return attack_suite_rep(w, rep);
  if (w.name == "tvla_store") return tvla_store_rep(w, rep, leg);
  return dist_cpa_rep(w, threads, rep, leg);
}

// ---- legs, counters and phases ---------------------------------------------
struct Leg {
  std::string name;  // "tN" or "t1"
  std::size_t threads = 1;
};

const std::array<const char*, 9> kCounters = {
    "rftc.encryptions",     "rftc.reconfigurations", "trace.traces_captured",
    "analysis.dtw.alignments", "cpa.flushes",        "cpa.reports",
    "par.parallel_for_calls",  "par.shards_executed", "analysis.traces_attacked"};

std::map<std::string, double> read_counters() {
  std::map<std::string, double> m;
  for (const char* c : kCounters)
    m[c] = static_cast<double>(obs::Registry::global().counter(c).value());
  return m;
}

std::map<std::string, double> read_phases() {
  std::map<std::string, double> m;
  for (const auto& [name, st] : obs::PhaseTimer::global().snapshot())
    m[name] = st.seconds;
  return m;
}

void add_delta(std::map<std::string, double>& acc,
               const std::map<std::string, double>& before,
               const std::map<std::string, double>& after) {
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    acc[k] += v - (it == before.end() ? 0.0 : it->second);
  }
}

/// Everything one leg's timed repetitions produced.
struct LegStats {
  std::vector<double> rates;       // traces/s per timed untraced repetition
  double untraced_wall = 0.0;      // summed over repetitions that were traced
  double traced_wall = 0.0;
  std::size_t traced_reps = 0;
  double traced_traces = 0.0;
  std::map<std::string, double> phases;    // PhaseTimer self-time deltas
  std::map<std::string, double> counters;  // Registry counter deltas
  std::vector<double> disk_bytes, chunks, verified_bytes;
  std::vector<double> shards, restarts, attempts;
  std::map<long, std::string> digests;
};

struct Run {
  const Workload* w = nullptr;
  bool traced = false;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> errors;

  /// Runs one repetition, charging failures; returns wall seconds.
  double rep(const Leg& leg, long r, LegStats& stats, bool record,
             bool under_trace) {
    g_spans.on = under_trace;
    g_spans.rep = r;
    g_spans.leg = leg.name;
    const auto ph0 = under_trace ? read_phases() : std::map<std::string, double>{};
    const auto ct0 = under_trace ? read_counters() : std::map<std::string, double>{};
    ++attempted;
    const auto t0 = Clock::now();
    RepOutput out;
    try {
      SpanScope s("rep");
      out = run_rep(*w, leg.threads, r, leg.name);
    } catch (const std::exception& e) {
      out.ok = false;
      out.error = e.what();
    }
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    g_spans.on = false;
    if (!out.ok) {
      ++failed;
      errors.push_back(leg.name + " rep " + std::to_string(r) + ": " +
                       out.error);
      return wall;
    }
    const auto [it, fresh] = stats.digests.emplace(r, out.digest);
    if (!fresh && it->second != out.digest) {
      ++failed;
      errors.push_back(leg.name + " rep " + std::to_string(r) +
                       ": output differs from the same repetition's earlier "
                       "run");
    }
    if (record && !under_trace)
      stats.rates.push_back(static_cast<double>(out.traces) / wall);
    stats.disk_bytes.push_back(out.disk_bytes);
    if (under_trace) {
      add_delta(stats.phases, ph0, read_phases());
      add_delta(stats.counters, ct0, read_counters());
      stats.traced_wall += wall;
      ++stats.traced_reps;
      stats.traced_traces += static_cast<double>(out.traces);
      stats.chunks.push_back(static_cast<double>(out.chunks_written));
      stats.verified_bytes.push_back(out.verified_bytes);
      stats.shards.push_back(static_cast<double>(out.campaign.shards_total));
      stats.restarts.push_back(
          static_cast<double>(out.campaign.worker_restarts));
      stats.attempts.push_back(
          static_cast<double>(out.campaign.shards_total -
                              out.campaign.shards_reused +
                              out.campaign.worker_restarts));
    }
    return wall;
  }
};

// ---- per-layer probes (traced run only) ------------------------------------
struct Probes {
  double encrypt_us = 0, simulate_us = 0, make_ms = 0;
  double dtw_align_us = 0;
  double cpa_add_us_t1 = 0, cpa_add_us_tn = 0;
  double cpa_report_ms_b4 = 0, cpa_report_ms_b16 = 0;
  double crc_mib_s = 0;
  double serialize_ms = 0, deserialize_ms = 0, merge_ms = 0, snapshot_mib = 0;
  double shard_accumulate_s = 0, inproc_s = 0;
};

template <typename F>
double time_s(F&& f) {
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Probes run_probes(const Workload& w, std::size_t n_threads, bool dist) {
  Probes p;
  par::set_thread_count(1);
  // Capture: encrypt against simulate, on one shard of the workload.
  std::vector<double> make_s;
  for (std::size_t j = 0; j < 3; ++j)
    make_s.push_back(time_s([&] { (void)w.probe_factory(j); }));
  p.make_ms = 1e3 * median(make_s);
  trace::CaptureShard shard = w.probe_factory(0);
  Xoshiro256StarStar rng(derive(w.seed, 99));
  trace::TraceSet set(shard.sim.samples());
  set.reserve(kProbeTraces);
  double enc_s = 0.0, sim_s = 0.0;
  for (std::size_t i = 0; i < kProbeTraces; ++i) {
    const aes::Block pt = trace::random_block(rng);
    auto t0 = Clock::now();
    const core::EncryptionRecord rec = shard.encryptor(pt);
    auto t1 = Clock::now();
    std::vector<float> tr = shard.sim.simulate(rec.schedule, rec.activity);
    auto t2 = Clock::now();
    enc_s += std::chrono::duration<double>(t1 - t0).count();
    sim_s += std::chrono::duration<double>(t2 - t1).count();
    set.add(std::move(tr), pt, rec.ciphertext);
  }
  p.encrypt_us = 1e6 * enc_s / kProbeTraces;
  p.simulate_us = 1e6 * sim_s / kProbeTraces;

  // CRC-32 over the captured samples.
  {
    std::vector<float> flat;
    for (std::size_t i = 0; i < set.size(); ++i)
      flat.insert(flat.end(), set.trace(i).begin(), set.trace(i).end());
    volatile std::uint32_t sink = 0;
    const int passes = 8;
    const double s = time_s([&] {
      for (int k = 0; k < passes; ++k)
        sink = sink ^ util::crc32(flat.data(), flat.size() * sizeof(float));
    });
    p.crc_mib_s = passes * flat.size() * sizeof(float) / (1024.0 * 1024.0) / s;
  }

  const analysis::AttackParams defaults;
  const trace::TraceSet ds = set.downsampled(defaults.downsample);
  const aes::Block rk10 = bench::evaluation_round10_key();

  // DTW alignment onto one reference trace.
  {
    const auto ref_tr = ds.trace(0);
    const std::vector<double> ref(ref_tr.begin(), ref_tr.end());
    std::vector<float> warped;
    const double s = time_s([&] {
      for (std::size_t i = 1; i < ds.size(); ++i)
        analysis::dtw_align_into(ref, ds.trace(i), defaults.dtw, warped);
    });
    p.dtw_align_us = 1e6 * s / static_cast<double>(ds.size() - 1);
  }

  // CPA accumulation at 1 and nproc threads, then report at 4 and 16 bytes.
  const auto add_all = [&](std::size_t threads, std::vector<int> bytes) {
    par::set_thread_count(threads);
    analysis::CpaEngine eng(ds.samples(), std::move(bytes));
    const double s = time_s([&] {
      for (std::size_t i = 0; i < ds.size(); ++i)
        eng.add(ds.plaintext(i), ds.ciphertext(i), ds.trace(i));
      (void)eng.score(rk10);  // flushes the last tile
    });
    return std::make_pair(1e6 * s / static_cast<double>(ds.size()),
                          std::move(eng));
  };
  p.cpa_add_us_t1 = add_all(1, w.attack_bytes).first;
  p.cpa_add_us_tn = add_all(n_threads, w.attack_bytes).first;
  par::set_thread_count(1);
  for (const int nbytes : {4, 16}) {
    std::vector<int> bytes;
    for (int b = 0; b < nbytes; ++b) bytes.push_back(b);
    const analysis::CpaEngine eng = add_all(1, bytes).second;
    std::vector<double> s;
    for (int k = 0; k < 5; ++k)
      s.push_back(time_s([&] { (void)eng.score(rk10); }));
    (nbytes == 4 ? p.cpa_report_ms_b4 : p.cpa_report_ms_b16) = 1e3 * median(s);
  }

  // dist: the largest shard's accumulation and its snapshot round trip.
  if (dist) {
    const dist::CampaignSpec spec = dist_spec(w);
    const trace::TraceStore store(spec.store);
    const auto shards = dist::plan_shards(
        store.size(), n_threads,
        analysis::normalized_checkpoints(spec.attack_params(), store.size()));
    dist::ShardRange big = shards.front();
    for (const auto& s : shards)
      if (s.t1 - s.t0 > big.t1 - big.t0) big = s;
    std::optional<analysis::CpaEngine> eng;
    p.shard_accumulate_s = time_s([&] {
      eng.emplace(analysis::accumulate_attack_range(store, spec.attack_params(),
                                                    big.t0, big.t1));
    });
    std::vector<unsigned char> blob;
    p.serialize_ms = 1e3 * time_s([&] { blob = eng->serialize(); });
    p.snapshot_mib = static_cast<double>(blob.size()) / (1024.0 * 1024.0);
    std::optional<analysis::CpaEngine> back;
    p.deserialize_ms = 1e3 * time_s(
        [&] { back.emplace(analysis::CpaEngine::deserialize(blob)); });
    p.merge_ms = 1e3 * time_s([&] { back->merge(*eng); });
  }
  return p;
}

// ---- output ----------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         fmt_num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

double safe_div(double a, double b) { return b > 0.0 ? a / b : 0.0; }

struct Args {
  std::string workload, tmp, spans, git_sha = "unknown";
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") { a.seed = std::stoull(v); have_seed = true; }
    else if (k == "--seconds") { a.seconds = std::stod(v); have_seconds = true; }
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--tmp") a.tmp = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--git-sha") a.git_sha = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (argc % 2 == 0 || a.workload.empty() || a.tmp.empty() || !have_seed ||
      !have_seconds || a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1))
    throw std::invalid_argument(
        "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--tmp DIR [--spans FILE] [--git-sha SHA]");
  return a;
}

int run(const Args& args) {
  const std::size_t n_threads = nproc();
  // Workers inherit the environment: one pool thread each, so a dist_cpa
  // leg of W workers uses W threads.
  ::setenv("RFTC_THREADS", "1", 1);
  Workload w = make_workload(args.workload, args.seed, args.tmp);

  char prov[768];
  std::snprintf(prov, sizeof prov,
                "{\"git_sha\": \"%s\", \"build_type\": \"%s\", \"simd_isa\": "
                "\"%s\", \"nproc\": %zu, \"workload\": \"%s\", \"seed\": %llu, "
                "\"traces_per_cell\": %zu, \"samples_per_trace\": %zu, "
                "\"seconds\": %g, \"trace\": %d}",
                json_escape(args.git_sha).c_str(), PERFBENCH_BUILD_TYPE,
                simd::backend_name(), n_threads, w.name.c_str(),
                static_cast<unsigned long long>(args.seed), w.traces_per_cell,
                w.samples, args.seconds, args.trace);
  std::printf("perfbench provenance %s\n", prov);

  const bool dist = w.name == "dist_cpa";
  const std::vector<Leg> legs = {{"tN", n_threads}, {"t1", 1}};
  std::map<std::string, LegStats> stats;

  // Set-up charged once: the dist_cpa input store.
  if (dist) {
    par::set_thread_count(n_threads);
    const dist::CampaignSpec spec = dist_spec(w);
    const std::uint64_t mix = derive(args.seed, 0);
    trace::TraceStoreWriter out(spec.store, w.samples);
    trace::acquire_random_store(bench::unprotected_shard_factory(mix),
                                w.traces_per_cell, mix + 1, out);
    out.finalize();
  }
  const double init_s = now_s();

  Run run;
  run.w = &w;
  run.traced = args.trace == 1;
  std::vector<double> setup_samples;
  long next_rep = 0;
  const double budget = args.seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    // One warm-up repetition per leg, timed as set-up; it reruns the
    // round's first repetition index, so it is checked like the others.
    double warm = 0.0;
    std::map<std::string, double> warm_wall;
    for (const Leg& leg : legs) {
      par::set_thread_count(dist ? 1 : leg.threads);
      const double t0 = now_s();
      run.rep(leg, next_rep, stats[leg.name], false, false);
      warm_wall[leg.name] = now_s() - t0;
      warm += warm_wall[leg.name];
    }
    setup_samples.push_back(warm);
    // Repetitions per leg this round.  Both legs run the same indices, so
    // every T = nproc outcome has its T = 1 reference, and they alternate
    // repetition by repetition so both legs sample the same machine state.
    const double pair = warm_wall["tN"] + warm_wall["t1"];
    const long k = std::max<long>(
        1, std::lround(budget / std::max(pair, 1e-3) /
                       (run.traced ? 2.0 : 1.0)));
    for (long r = next_rep; r < next_rep + k; ++r) {
      for (const Leg& leg : legs) {
        par::set_thread_count(dist ? 1 : leg.threads);
        LegStats& ls = stats[leg.name];
        if (!run.traced) {
          run.rep(leg, r, ls, true, false);
          continue;
        }
        // The traced copy runs first on odd indices, so neither copy of
        // the pair always follows the leg switch.
        const bool traced_first = r % 2 == 1;
        if (traced_first) run.rep(leg, r, ls, false, true);
        ls.untraced_wall += run.rep(leg, r, ls, true, false);
        if (!traced_first) run.rep(leg, r, ls, false, true);
      }
    }
    next_rep += k;
  }
  const double setup_s = init_s + median(setup_samples);

  // Output checks across legs (and, for dist_cpa, against in-process CPA).
  std::optional<analysis::AttackOutcome> inproc;
  double inproc_s = 0.0;
  if (dist) {
    par::set_thread_count(n_threads);
    const dist::CampaignSpec spec = dist_spec(w);
    const trace::TraceStore store(spec.store);
    inproc_s = time_s([&] {
      inproc = analysis::run_attack(store, bench::evaluation_round10_key(),
                                    spec.attack_params());
    });
    std::string ref;
    append_outcome(ref, *inproc);
    for (const Leg& leg : legs)
      for (const auto& [r, d] : stats[leg.name].digests)
        if (d != ref) {
          ++run.failed;
          run.errors.push_back(leg.name + " rep " + std::to_string(r) +
                               ": merged outcome differs from in-process "
                               "run_attack(store)");
        }
  } else {
    for (const auto& [r, d] : stats["tN"].digests) {
      const auto it = stats["t1"].digests.find(r);
      if (it != stats["t1"].digests.end() && it->second != d) {
        ++run.failed;
        run.errors.push_back("rep " + std::to_string(r) +
                             ": T=" + std::to_string(n_threads) +
                             " outcome differs from T=1");
      }
    }
  }
  for (const std::string& e : run.errors)
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());

  rusage self{}, children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  const double peak_rss_mib =
      static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
      1024.0;

  const LegStats& tn = stats["tN"];
  const LegStats& t1 = stats["t1"];
  const double disk_mib = median(tn.disk_bytes) / (1024.0 * 1024.0);
  const double error_rate =
      safe_div(static_cast<double>(run.failed),
               static_cast<double>(run.attempted));

  std::vector<Metric> e2e = {
      {"traces_per_s", median(tn.rates), "traces/s"},
      {"traces_per_s_t1", median(t1.rates), "traces/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mib", peak_rss_mib, "MiB"},
  };
  std::printf("\n%s: %zu timed repetitions per leg, %zu attempted, %zu failed\n",
              w.name.c_str(), tn.rates.size(), run.attempted, run.failed);
  for (const Leg& leg : legs) {
    std::printf("  %s rates (traces/s):", leg.name.c_str());
    for (const double r : stats[leg.name].rates) std::printf(" %.0f", r);
    std::printf("\n");
  }
  std::printf("  set-up samples (s): init %.3f, warm-ups", init_s);
  for (const double s : setup_samples) std::printf(" %.3f", s);
  std::printf("\n");
  for (const Metric& m : e2e)
    std::printf("  %-22s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  %-22s %14.4f MiB%s\n", "disk_mib", disk_mib,
              w.name == "attack_suite" ? " (in RAM: nothing on disk)" : "");
  std::printf("  %-22s %14.4f ratio (%zu failed / %zu attempted)\n",
              "error_rate", error_rate, run.failed, run.attempted);

  std::vector<Metric> metrics = e2e;
  if (run.traced) {
    const Probes p = run_probes(w, n_threads, dist);
    metrics.clear();
    const auto per_rep = [](const LegStats& s, double v) {
      return safe_div(v, static_cast<double>(s.traced_reps));
    };
    const auto ph = [](const LegStats& s, const char* name) {
      const auto it = s.phases.find(name);
      return it == s.phases.end() ? 0.0 : it->second;
    };
    const auto ct = [](const LegStats& s, const char* name) {
      const auto it = s.counters.find(name);
      return it == s.counters.end() ? 0.0 : it->second;
    };
    const auto add = [&](std::string name, double v, std::string unit) {
      metrics.push_back({std::move(name), v, std::move(unit)});
    };
    std::map<std::string, double> store_s, capture_s;
    for (const Leg& leg : legs) {
      const LegStats& s = stats[leg.name];
      store_s[leg.name] = ph(s, obs::kPhaseStoreIo) +
                          g_spans.self_sum("trace.finalize", leg.name) +
                          g_spans.self_sum("trace.reopen", leg.name) +
                          g_spans.self_sum("trace.verify", leg.name);
      capture_s[leg.name] = ph(s, obs::kPhaseCapture);
    }
    const double enc = ct(tn, "rftc.encryptions") + ct(t1, "rftc.encryptions");
    const double rec =
        ct(tn, "rftc.reconfigurations") + ct(t1, "rftc.reconfigurations");
    add("rftc.encrypt_us", p.encrypt_us, "us");
    add("rftc.make_ms", p.make_ms, "ms");
    add("rftc.reconfigurations_per_1k", 1e3 * safe_div(rec, enc), "per_1k");
    add("trace.simulate_us", p.simulate_us, "us");
    for (const Leg& leg : legs) {
      const LegStats& s = stats[leg.name];
      add("trace.capture_s." + leg.name, per_rep(s, capture_s[leg.name]), "s");
      add("trace.capture_us_per_trace." + leg.name,
          1e6 * safe_div(capture_s[leg.name],
                         ct(s, "trace.traces_captured")),
          "us");
    }
    const double cap_t1 = safe_div(capture_s["t1"], ct(t1, "trace.traces_captured"));
    const double cap_tn = safe_div(capture_s["tN"], ct(tn, "trace.traces_captured"));
    add("trace.capture_scaling_eff",
        safe_div(cap_t1, static_cast<double>(n_threads) * cap_tn), "ratio");
    std::vector<double> fin = g_spans.durations("trace.finalize", "tN");
    const std::vector<double> fin1 = g_spans.durations("trace.finalize", "t1");
    fin.insert(fin.end(), fin1.begin(), fin1.end());
    add("trace.store_finalize_ms", 1e3 * median(fin), "ms");
    const double verify_s = g_spans.self_sum("trace.verify", "tN") +
                            g_spans.self_sum("trace.verify", "t1");
    double verified = 0.0;
    for (const double b : tn.verified_bytes) verified += b;
    for (const double b : t1.verified_bytes) verified += b;
    add("trace.store_verify_mib_s",
        safe_div(verified / (1024.0 * 1024.0), verify_s), "MiB/s");
    for (const Leg& leg : legs)
      add("trace.store_io_s." + leg.name,
          per_rep(stats[leg.name], store_s[leg.name]), "s");
    add("trace.chunks_written", median(tn.chunks), "count");
    add("trace.disk_mib", disk_mib, "MiB");

    for (const analysis::AttackKind k : kSuiteKinds)
      for (const Leg& leg : legs)
        add("analysis.attack_s." + kind_key(k) + "." + leg.name,
            median(g_spans.durations("analysis.run_attack." + kind_key(k),
                                     leg.name)),
            "s");
    const std::array<std::pair<const char*, const char*>, 6> phases = {{
        {"dtw", obs::kPhaseDtw},
        {"pca", obs::kPhasePca},
        {"fft", obs::kPhaseFft},
        {"cpa_kernel", obs::kPhaseCpaKernel},
        {"report", obs::kPhaseReport},
        {"tvla", obs::kPhaseTvla},
    }};
    for (const auto& [key, phase] : phases)
      for (const Leg& leg : legs)
        add(std::string("analysis.phase.") + key + "_s." + leg.name,
            per_rep(stats[leg.name], ph(stats[leg.name], phase)), "s");
    add("analysis.dtw_align_us", p.dtw_align_us, "us");
    add("analysis.dtw.alignments",
        per_rep(tn, ct(tn, "analysis.dtw.alignments")), "count");
    add("analysis.cpa_add_us.t1", p.cpa_add_us_t1, "us");
    add("analysis.cpa_add_us.tN", p.cpa_add_us_tn, "us");
    add("analysis.cpa_scaling_eff",
        safe_div(p.cpa_add_us_t1,
                 static_cast<double>(n_threads) * p.cpa_add_us_tn),
        "ratio");
    add("analysis.cpa_report_ms.b4", p.cpa_report_ms_b4, "ms");
    add("analysis.cpa_report_ms.b16", p.cpa_report_ms_b16, "ms");
    add("analysis.cpa.flushes", per_rep(tn, ct(tn, "cpa.flushes")), "count");
    add("analysis.cpa.reports", per_rep(tn, ct(tn, "cpa.reports")), "count");
    for (const Leg& leg : legs)
      add("analysis.tvla_s." + leg.name,
          median(g_spans.durations("analysis.run_tvla", leg.name)), "s");

    const double campaign_tn =
        median(g_spans.durations("dist.run_campaign", "tN"));
    for (const Leg& leg : legs)
      add("dist.campaign_s." + leg.name,
          median(g_spans.durations("dist.run_campaign", leg.name)), "s");
    double shards = 0.0, restarts = 0.0, attempts = 0.0;
    for (const Leg& leg : legs) {
      for (const double v : stats[leg.name].shards) shards += v;
      for (const double v : stats[leg.name].restarts) restarts += v;
      for (const double v : stats[leg.name].attempts) attempts += v;
    }
    add("dist.shards", median(tn.shards), "count");
    add("dist.worker_restarts", restarts, "count");
    add("dist.shard_ok_ratio", dist ? safe_div(shards, attempts) : 0.0,
        "ratio");
    add("dist.snapshot_mib", p.snapshot_mib, "MiB");
    add("dist.serialize_ms", p.serialize_ms, "ms");
    add("dist.deserialize_ms", p.deserialize_ms, "ms");
    add("dist.merge_ms", p.merge_ms, "ms");
    add("dist.shard_accumulate_s", p.shard_accumulate_s, "s");
    add("dist.overhead_s",
        dist ? std::max(0.0, campaign_tn - p.shard_accumulate_s) : 0.0, "s");
    add("dist.inproc_s", inproc_s, "s");
    add("dist.speedup_vs_inproc", safe_div(inproc_s, campaign_tn), "ratio");

    for (const Leg& leg : legs) {
      const LegStats& s = stats[leg.name];
      const double k_traces = s.traced_traces / 1e3;
      add("util.par.parallel_for_calls_per_1k." + leg.name,
          safe_div(ct(s, "par.parallel_for_calls"), k_traces), "per_1k");
      add("util.par.shards_executed_per_1k." + leg.name,
          safe_div(ct(s, "par.shards_executed"), k_traces), "per_1k");
    }
    add("util.crc_mib_s", p.crc_mib_s, "MiB/s");

    const double untraced = tn.untraced_wall + t1.untraced_wall;
    const double traced = tn.traced_wall + t1.traced_wall;
    add("obs.trace_overhead", safe_div(traced, untraced), "ratio");

    // Attribution of each leg's traced wall time to layers.
    std::printf("\nwall-time attribution (traced repetitions)\n");
    std::printf("  %-14s %8s %8s\n", "layer", "tN", "t1");
    const std::array<const char*, 10> layers = {
        "capture", "store_io", "dtw", "pca", "fft", "cpa_kernel",
        "report", "tvla", "dist", "unattributed"};
    std::map<std::string, std::map<std::string, double>> share;
    for (const Leg& leg : legs) {
      const LegStats& s = stats[leg.name];
      std::map<std::string, double>& sh = share[leg.name];
      sh["capture"] = capture_s[leg.name];
      sh["store_io"] = store_s[leg.name];
      for (const auto& [key, phase] : phases) sh[key] = ph(s, phase);
      sh["dist"] = g_spans.self_sum("dist.run_campaign", leg.name);
      double attributed = 0.0;
      for (const auto& [k, v] : sh) attributed += v;
      sh["unattributed"] = s.traced_wall - attributed;
      for (auto& [k, v] : sh) v = safe_div(v, s.traced_wall);
    }
    for (const char* layer : layers) {
      std::printf("  %-14s %8.3f %8.3f\n", layer, share["tN"][layer],
                  share["t1"][layer]);
      for (const Leg& leg : legs)
        add(std::string("share.") + layer + "." + leg.name,
            share[leg.name][layer], "ratio");
    }
    std::printf("\nper-layer metrics\n");
    for (const Metric& m : metrics)
      std::printf("  %-42s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    if (!args.spans.empty()) g_spans.write_json(args.spans, prov);
  }
  std::fflush(stdout);
  print_result(run.failed == 0, run.attempted, run.failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench: built without optimisation (%s); refusing to "
               "report timings\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
