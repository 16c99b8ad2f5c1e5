// rftc::dist — distributed campaign engine: protocol codecs, shard
// planning, accumulator snapshot round-trips, and the golden contract that
// a distributed campaign (any worker count, with or without mid-campaign
// worker kills and resume) is bit-identical to the single-process
// run_attack / run_tvla over the same stores.
#include "dist/coordinator.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/attacks.hpp"
#include "analysis/cpa.hpp"
#include "analysis/tvla.hpp"
#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "rftc/device.hpp"
#include "sched/fixed_clock.hpp"
#include "trace/acquisition.hpp"
#include "trace/trace_store.hpp"
#include "util/stats.hpp"
#include "util/wire.hpp"
#include "temp_dir.hpp"

#ifndef RFTC_TESTS_WORKER_BIN
#define RFTC_TESTS_WORKER_BIN "rftc-worker"
#endif
#ifndef RFTC_TESTS_CAMPAIGN_BIN
#define RFTC_TESTS_CAMPAIGN_BIN "rftc-campaign"
#endif

namespace rftc::dist {
namespace {

namespace fs = std::filesystem;

/// Scoped setenv/unsetenv so env-sensitive tests cannot leak state.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    if (value != nullptr)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~EnvGuard() {
    if (saved_)
      ::setenv(name_.c_str(), saved_->c_str(), 1);
    else
      ::unsetenv(name_.c_str());
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

std::string temp_dir(const char* tag) {
  return test::fresh_temp_dir(std::string("dist_") + tag);
}

aes::Key test_key() {
  aes::Key k{};
  for (int i = 0; i < 16; ++i)
    k[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0xA5 ^ (7 * i));
  return k;
}

trace::CaptureShardFactory test_factory() {
  const aes::Key key = test_key();
  return [key](std::size_t shard) {
    auto dev = std::make_shared<core::ScheduledAesDevice>(
        key, std::make_unique<sched::FixedClockScheduler>(48.0));
    trace::PowerModelParams pm;
    return trace::CaptureShard{
        [dev](const aes::Block& pt) { return dev->encrypt(pt); },
        trace::TraceSimulator(pm, 0x7777 + shard)};
  };
}

/// Capture corpus shared by the campaign tests, built once: an attack store
/// and a TVLA pair with deliberately unequal populations (the tail paths of
/// run_tvla_impl must survive sharding too).
struct Corpus {
  std::string dir;
  std::string attack_store;
  std::string tvla_fixed;
  std::string tvla_random;
  aes::Block rk10{};
  std::size_t n_attack = 600;
  std::size_t n_fixed = 384;
  std::size_t n_random = 320;
  std::size_t samples = 0;
};

const Corpus& corpus() {
  static const Corpus c = [] {
    Corpus c;
    c.dir = temp_dir("corpus");
    c.rk10 = aes::expand_key(test_key())[10];
    c.samples = test_factory()(0).sim.samples();
    c.attack_store = c.dir + "/attack.rtst";
    {
      trace::TraceStoreWriter w(c.attack_store, c.samples, 97);
      trace::acquire_random_store(test_factory(), c.n_attack, 0xD157D157, w,
                                  128);
      w.finalize();
    }
    aes::Block fixed_pt{};
    for (int i = 0; i < 16; ++i)
      fixed_pt[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(0xDA ^ (3 * i));
    const trace::TvlaCapture cap = trace::acquire_tvla_parallel(
        test_factory(), c.n_fixed, fixed_pt, 0x71A5, 128);
    c.tvla_fixed = c.dir + "/tvla_fixed.rtst";
    c.tvla_random = c.dir + "/tvla_random.rtst";
    {
      trace::TraceStoreWriter w(c.tvla_fixed, c.samples, 97);
      w.append(cap.fixed);
      w.finalize();
    }
    {
      // Truncated random population: n_random < n_fixed.
      trace::TraceStoreWriter w(c.tvla_random, c.samples, 97);
      trace::TraceSet sub(c.samples);
      for (std::size_t i = 0; i < c.n_random; ++i) {
        const auto tr = cap.random.trace(i);
        sub.add(std::vector<float>(tr.begin(), tr.end()),
                cap.random.plaintext(i), cap.random.ciphertext(i));
      }
      w.append(sub);
      w.finalize();
    }
    return c;
  }();
  return c;
}

CampaignSpec attack_spec(analysis::CpaMode mode) {
  const Corpus& c = corpus();
  CampaignSpec spec;
  spec.kind = CampaignKind::kAttack;
  spec.name = "golden-attack";
  spec.store = c.attack_store;
  spec.key_hex = key_to_hex(c.rk10);
  spec.engine_mode = mode;
  spec.byte_positions = {0, 7};
  spec.checkpoints = {150, 400, c.n_attack};
  return spec;
}

CampaignSpec tvla_spec() {
  const Corpus& c = corpus();
  CampaignSpec spec;
  spec.kind = CampaignKind::kTvla;
  spec.name = "golden-tvla";
  spec.fixed_store = c.tvla_fixed;
  spec.random_store = c.tvla_random;
  return spec;
}

CoordinatorOptions options_for(const std::string& dir, std::size_t workers,
                               std::size_t retries = 1) {
  CoordinatorOptions o;
  o.dir = dir;
  o.worker_binary = RFTC_TESTS_WORKER_BIN;
  o.workers = workers;
  o.retries = retries;
  return o;
}

void expect_attack_identical(const analysis::AttackOutcome& got,
                             const analysis::AttackOutcome& want) {
  ASSERT_EQ(got.checkpoints, want.checkpoints);
  EXPECT_EQ(got.success, want.success);
  ASSERT_EQ(got.mean_rank.size(), want.mean_rank.size());
  ASSERT_EQ(got.peak_corr.size(), want.peak_corr.size());
  for (std::size_t i = 0; i < want.mean_rank.size(); ++i) {
    EXPECT_EQ(got.mean_rank[i], want.mean_rank[i]) << "checkpoint " << i;
    EXPECT_EQ(got.peak_corr[i], want.peak_corr[i]) << "checkpoint " << i;
  }
}

void expect_tvla_identical(const analysis::TvlaResult& got,
                           const analysis::TvlaResult& want) {
  ASSERT_EQ(got.t_values.size(), want.t_values.size());
  for (std::size_t s = 0; s < want.t_values.size(); ++s)
    EXPECT_EQ(got.t_values[s], want.t_values[s]) << "sample " << s;
  EXPECT_EQ(got.max_abs_t, want.max_abs_t);
  EXPECT_EQ(got.worst_sample, want.worst_sample);
  EXPECT_EQ(got.leaking_samples, want.leaking_samples);
  ASSERT_EQ(got.convergence.size(), want.convergence.size());
  for (std::size_t i = 0; i < want.convergence.size(); ++i) {
    EXPECT_EQ(got.convergence[i].first, want.convergence[i].first);
    EXPECT_EQ(got.convergence[i].second, want.convergence[i].second);
  }
}

// --------------------------------------------------------------------------
// Protocol codecs

TEST(DistProtocol, CampaignSpecRoundTrips) {
  CampaignSpec spec;
  spec.kind = CampaignKind::kAttack;
  spec.name = "rt";
  spec.store = "/tmp/s.rtst";
  spec.key_hex = "000102030405060708090a0b0c0d0e0f";
  spec.leakage = aes::LeakageModel::kFirstRoundHw;
  spec.engine_mode = analysis::CpaMode::kStreaming;
  spec.downsample = 2;
  spec.byte_positions = {0, 5, 15};
  spec.checkpoints = {100, 250};
  const std::string json = campaign_to_json(spec);
  const CampaignSpec back = campaign_from_json(json);
  EXPECT_EQ(back.kind, spec.kind);
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.store, spec.store);
  EXPECT_EQ(back.key_hex, spec.key_hex);
  EXPECT_EQ(back.leakage, spec.leakage);
  EXPECT_EQ(back.engine_mode, spec.engine_mode);
  EXPECT_EQ(back.downsample, spec.downsample);
  EXPECT_EQ(back.byte_positions, spec.byte_positions);
  EXPECT_EQ(back.checkpoints, spec.checkpoints);
  // Deterministic bytes: re-serialization is the resume cross-check.
  EXPECT_EQ(campaign_to_json(back), json);

  CampaignSpec tvla;
  tvla.kind = CampaignKind::kTvla;
  tvla.fixed_store = "/tmp/f.rtst";
  tvla.random_store = "/tmp/r.rtst";
  const CampaignSpec tvla_back = campaign_from_json(campaign_to_json(tvla));
  EXPECT_EQ(tvla_back.kind, CampaignKind::kTvla);
  EXPECT_EQ(tvla_back.fixed_store, tvla.fixed_store);
  EXPECT_EQ(tvla_back.random_store, tvla.random_store);
}

TEST(DistProtocol, TaskAndDoneRoundTrip) {
  ShardTask task;
  task.spec = attack_spec(analysis::CpaMode::kBatched);
  task.shard = {3, 150, 300};
  task.acc_path = "/tmp/shard_0003.acc";
  task.done_path = "/tmp/shard_0003.done.json";
  const ShardTask t = task_from_json(task_to_json(task));
  EXPECT_EQ(t.shard.index, 3u);
  EXPECT_EQ(t.shard.t0, 150u);
  EXPECT_EQ(t.shard.t1, 300u);
  EXPECT_EQ(t.acc_path, task.acc_path);
  EXPECT_EQ(t.done_path, task.done_path);
  EXPECT_EQ(campaign_to_json(t.spec), campaign_to_json(task.spec));

  ShardDone done;
  done.shard = {3, 150, 300};
  done.acc_bytes = 12345;
  done.acc_crc = 0xDEADBEEF;
  const ShardDone d = done_from_json(done_to_json(done));
  EXPECT_EQ(d.shard.index, 3u);
  EXPECT_EQ(d.shard.t0, 150u);
  EXPECT_EQ(d.shard.t1, 300u);
  EXPECT_EQ(d.acc_bytes, 12345u);
  EXPECT_EQ(d.acc_crc, 0xDEADBEEFu);
}

TEST(DistProtocol, MalformedInputsThrow) {
  EXPECT_THROW(campaign_from_json("not json at all"), std::runtime_error);
  EXPECT_THROW(campaign_from_json("{}"), std::runtime_error);
  EXPECT_THROW(task_from_json("{\"dist_schema\":1}"), std::runtime_error);
  EXPECT_THROW(done_from_json(""), std::runtime_error);

  // Schema mismatch is fatal, not silently tolerated.
  ShardDone done;
  done.shard = {0, 0, 10};
  std::string json = done_to_json(done);
  const auto pos = json.find("\"dist_schema\":1");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 15, "\"dist_schema\":9");
  EXPECT_THROW(done_from_json(json), std::runtime_error);

  // An empty shard range is never a valid work order.
  ShardTask task;
  task.spec = attack_spec(analysis::CpaMode::kBatched);
  task.shard = {0, 5, 5};
  task.acc_path = "/tmp/a";
  task.done_path = "/tmp/d";
  EXPECT_THROW(task_from_json(task_to_json(task)), std::runtime_error);
}

TEST(DistProtocol, KeyHexCodec) {
  const aes::Block key = corpus().rk10;
  const std::string hex = key_to_hex(key);
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(parse_key_hex(hex), key);
  EXPECT_THROW(parse_key_hex("00112233"), std::invalid_argument);
  EXPECT_THROW(parse_key_hex("zz102030405060708090a0b0c0d0e0f0"),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// Shard planning

TEST(DistPlanShards, PartitionsRangeAndHitsRequiredCuts) {
  const struct {
    std::size_t total, shards;
    std::vector<std::size_t> cuts;
  } cases[] = {
      {600, 2, {150, 400}}, {600, 4, {150, 400}}, {601, 3, {1, 600}},
      {384, 1, {100, 250, 320}}, {7, 7, {}}, {1, 1, {}},
      // Out-of-range cuts (0, total, beyond) are ignored, not boundaries.
      {100, 2, {0, 100, 250}},
  };
  for (const auto& tc : cases) {
    const std::vector<ShardRange> plan =
        plan_shards(tc.total, tc.shards, tc.cuts);
    ASSERT_FALSE(plan.empty());
    EXPECT_EQ(plan.front().t0, 0u);
    EXPECT_EQ(plan.back().t1, tc.total);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      EXPECT_EQ(plan[i].index, i);
      EXPECT_LT(plan[i].t0, plan[i].t1) << "empty shard " << i;
      if (i > 0) {
        EXPECT_EQ(plan[i].t0, plan[i - 1].t1) << "gap at " << i;
      }
    }
    for (const std::size_t cut : tc.cuts) {
      if (cut == 0 || cut >= tc.total) continue;
      bool found = false;
      for (const ShardRange& s : plan) found = found || s.t1 == cut;
      EXPECT_TRUE(found) << "cut " << cut << " not a shard boundary";
    }
  }
}

TEST(DistPlanShards, MoreWorkersThanTracesStaysNonEmpty) {
  const std::vector<ShardRange> plan = plan_shards(3, 8, {});
  EXPECT_LE(plan.size(), 3u);
  EXPECT_EQ(plan.front().t0, 0u);
  EXPECT_EQ(plan.back().t1, 3u);
  for (const ShardRange& s : plan) EXPECT_LT(s.t0, s.t1);
}

TEST(DistPlanShards, RejectsDegenerateInputs) {
  EXPECT_THROW(plan_shards(0, 2, {}), std::invalid_argument);
  EXPECT_THROW(plan_shards(100, 0, {}), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Accumulator snapshots (wire format)

analysis::CpaEngine make_synthetic_engine(analysis::CpaMode mode,
                                          std::size_t samples,
                                          std::size_t traces) {
  analysis::CpaEngine engine(samples, {0, 3}, aes::LeakageModel::kLastRoundHd,
                             mode);
  std::mt19937 rng(0xC0FFEE);
  for (std::size_t i = 0; i < traces; ++i) {
    aes::Block ct{};
    for (auto& b : ct) b = static_cast<std::uint8_t>(rng() & 0xFF);
    std::vector<float> tr(samples);
    // ADC-style dyadic quanta: every partial sum is exact, so serialized
    // accumulators of split halves merge bit-identically (the contract the
    // campaign tests then prove end to end on real traces).
    for (auto& v : tr)
      v = static_cast<float>(static_cast<int>(rng() % 256) - 128) * 0.0078125f;
    engine.add(ct, tr);
  }
  return engine;
}

TEST(DistSerialize, CpaEngineRoundTripsBitExactly) {
  for (const auto mode :
       {analysis::CpaMode::kStreaming, analysis::CpaMode::kBatched}) {
    const analysis::CpaEngine engine = make_synthetic_engine(mode, 24, 40);
    const std::vector<unsigned char> blob = engine.serialize();
    const analysis::CpaEngine back = analysis::CpaEngine::deserialize(blob);
    EXPECT_EQ(back.count(), engine.count());
    EXPECT_EQ(back.samples(), engine.samples());
    EXPECT_EQ(back.byte_positions(), engine.byte_positions());
    EXPECT_EQ(back.mode(), engine.mode());
    EXPECT_EQ(back.serialize(), blob);
  }
}

TEST(DistSerialize, SplitSerializeMergeMatchesSequential) {
  const auto mode = analysis::CpaMode::kStreaming;
  analysis::CpaEngine whole = make_synthetic_engine(mode, 24, 40);

  // Same 40 traces split 0..20 / 20..40 across two engines.
  analysis::CpaEngine a(24, {0, 3}, aes::LeakageModel::kLastRoundHd, mode);
  analysis::CpaEngine b(24, {0, 3}, aes::LeakageModel::kLastRoundHd, mode);
  std::mt19937 rng(0xC0FFEE);
  for (std::size_t i = 0; i < 40; ++i) {
    aes::Block ct{};
    for (auto& bb : ct) bb = static_cast<std::uint8_t>(rng() & 0xFF);
    std::vector<float> tr(24);
    for (auto& v : tr)
      v = static_cast<float>(static_cast<int>(rng() % 256) - 128) * 0.0078125f;
    (i < 20 ? a : b).add(ct, tr);
  }
  analysis::CpaEngine ad = analysis::CpaEngine::deserialize(a.serialize());
  const analysis::CpaEngine bd =
      analysis::CpaEngine::deserialize(b.serialize());
  ad.merge(bd);
  EXPECT_EQ(ad.serialize(), whole.serialize());

  // Geometry mismatch still rejected after a deserialize round-trip.
  const analysis::CpaEngine other = make_synthetic_engine(mode, 16, 4);
  EXPECT_THROW(ad.merge(analysis::CpaEngine::deserialize(other.serialize())),
               std::invalid_argument);
}

TEST(DistSerialize, CpaEngineRejectsCorruptBlobs) {
  const analysis::CpaEngine engine =
      make_synthetic_engine(analysis::CpaMode::kBatched, 24, 40);
  const std::vector<unsigned char> blob = engine.serialize();

  EXPECT_THROW(analysis::CpaEngine::deserialize({}), std::runtime_error);

  std::vector<unsigned char> truncated(blob.begin(),
                                       blob.begin() + blob.size() / 2);
  EXPECT_THROW(analysis::CpaEngine::deserialize(truncated),
               std::runtime_error);

  std::vector<unsigned char> flipped = blob;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_THROW(analysis::CpaEngine::deserialize(flipped), std::runtime_error);

  std::vector<unsigned char> bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(analysis::CpaEngine::deserialize(bad_magic),
               std::runtime_error);
}

TEST(DistSerialize, WelchRoundTripAndCorruptionRejected) {
  WelchTTest test(16);
  std::mt19937 rng(0xBEEF);
  for (std::size_t i = 0; i < 30; ++i) {
    std::vector<double> tr(16);
    for (auto& v : tr)
      v = static_cast<double>(static_cast<int>(rng() % 512) - 256) * 0.015625;
    if (i % 2 == 0)
      test.add_fixed(tr);
    else
      test.add_random(tr);
  }
  const std::vector<unsigned char> blob = test.serialize();
  const WelchTTest back = WelchTTest::deserialize(blob);
  EXPECT_EQ(back.samples(), test.samples());
  const std::vector<double> want = test.t_values();
  const std::vector<double> got = back.t_values();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t s = 0; s < want.size(); ++s) EXPECT_EQ(got[s], want[s]);
  EXPECT_EQ(back.serialize(), blob);

  std::vector<unsigned char> flipped = blob;
  flipped[flipped.size() - 2] ^= 0x01;  // lands in the CRC trailer
  EXPECT_THROW(WelchTTest::deserialize(flipped), std::runtime_error);
  std::vector<unsigned char> truncated = blob;
  truncated.pop_back();
  EXPECT_THROW(WelchTTest::deserialize(truncated), std::runtime_error);

  // A Welch snapshot is not a CPA snapshot: magic dispatch, not size luck.
  EXPECT_THROW(analysis::CpaEngine::deserialize(blob), std::runtime_error);
}

// --------------------------------------------------------------------------
// Worker + shard manifests (in-process)

TEST(DistWorker, TaskProducesDurableShardAndIsIdempotent) {
  const std::string dir = temp_dir("worker_inproc");
  ShardTask task;
  task.spec = attack_spec(analysis::CpaMode::kBatched);
  task.shard = {0, 0, 50};
  task.acc_path = dir + "/shard_0000.acc";
  task.done_path = dir + "/shard_0000.done.json";
  const std::string task_path = dir + "/shard_0000.task.json";
  write_file_atomic(task_path, task_to_json(task));

  run_worker_task(task_path);
  EXPECT_TRUE(shard_complete(task.shard, task.acc_path, task.done_path));
  const std::string first = read_file(task.acc_path);

  // Re-running the same task (a retried worker) rewrites identical state.
  run_worker_task(task_path);
  EXPECT_TRUE(shard_complete(task.shard, task.acc_path, task.done_path));
  EXPECT_EQ(read_file(task.acc_path), first);

  // The snapshot really is the range's accumulator.
  const analysis::CpaEngine engine = analysis::CpaEngine::deserialize(
      {reinterpret_cast<const unsigned char*>(first.data()), first.size()});
  EXPECT_EQ(engine.count(), 50u);

  EXPECT_THROW(run_worker_task(dir + "/no_such_task.json"),
               std::runtime_error);
  fs::remove_all(dir);
}

TEST(DistWorker, ShardCompleteRejectsTamperedOrMismatchedManifests) {
  const std::string dir = temp_dir("worker_manifest");
  ShardTask task;
  task.spec = attack_spec(analysis::CpaMode::kBatched);
  task.shard = {2, 10, 40};
  task.acc_path = dir + "/shard_0002.acc";
  task.done_path = dir + "/shard_0002.done.json";
  const std::string task_path = dir + "/shard_0002.task.json";
  write_file_atomic(task_path, task_to_json(task));
  run_worker_task(task_path);
  ASSERT_TRUE(shard_complete(task.shard, task.acc_path, task.done_path));

  // Wrong range: a manifest for some other shard must not be reused.
  EXPECT_FALSE(
      shard_complete(ShardRange{2, 10, 41}, task.acc_path, task.done_path));
  // Missing files are "not complete", never an error.
  EXPECT_FALSE(shard_complete(task.shard, dir + "/absent.acc", task.done_path));
  EXPECT_FALSE(shard_complete(task.shard, task.acc_path, dir + "/absent.json"));

  // Size mismatch (appended garbage survives a CRC of the prefix? no —
  // recorded byte count must match exactly).
  const std::string acc = read_file(task.acc_path);
  write_file_atomic(task.acc_path, acc + "X");
  EXPECT_FALSE(shard_complete(task.shard, task.acc_path, task.done_path));

  // Same size, flipped payload byte: CRC mismatch.
  std::string flipped = acc;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x01);
  write_file_atomic(task.acc_path, flipped);
  EXPECT_FALSE(shard_complete(task.shard, task.acc_path, task.done_path));

  // The manifest records the snapshot's own trailing seal, not a CRC over
  // the sealed blob (which is the same CRC-32 residue for every snapshot).
  const ShardDone done = done_from_json(read_file(task.done_path));
  const std::span<const unsigned char> sealed(
      reinterpret_cast<const unsigned char*>(acc.data()), acc.size());
  EXPECT_EQ(done.acc_crc, wire::stored_seal(sealed));
  EXPECT_NE(done.acc_crc, 0x2144DF1Cu);

  // A validly sealed snapshot of the same size that is not the recorded
  // one (a differently accumulated range) is not complete either.
  ShardTask other = task;
  other.shard = {2, 0, 30};
  other.acc_path = dir + "/other.acc";
  other.done_path = dir + "/other.done.json";
  write_file_atomic(dir + "/other.task.json", task_to_json(other));
  run_worker_task(dir + "/other.task.json");
  const std::string foreign = read_file(other.acc_path);
  ASSERT_EQ(foreign.size(), acc.size());
  write_file_atomic(task.acc_path, foreign);
  EXPECT_FALSE(shard_complete(task.shard, task.acc_path, task.done_path));

  // Restore and also corrupt the manifest side.
  write_file_atomic(task.acc_path, acc);
  ASSERT_TRUE(shard_complete(task.shard, task.acc_path, task.done_path));
  write_file_atomic(task.done_path, "{\"not\":\"a manifest\"}\n");
  EXPECT_FALSE(shard_complete(task.shard, task.acc_path, task.done_path));
  fs::remove_all(dir);
}

// --------------------------------------------------------------------------
// Coordinator option validation

TEST(DistCoordinator, RejectsBadOptions) {
  const CampaignSpec spec = attack_spec(analysis::CpaMode::kBatched);
  CoordinatorOptions o = options_for(temp_dir("bad_options"), 2);
  o.workers = 0;
  EXPECT_THROW(run_campaign(spec, o), std::invalid_argument);
  o.workers = 2;
  o.dir.clear();
  EXPECT_THROW(run_campaign(spec, o), std::invalid_argument);
  o = options_for(temp_dir("bad_options"), 2);
  o.worker_binary = "/no/such/rftc-worker";
  EXPECT_THROW(run_campaign(spec, o), std::invalid_argument);
}

TEST(DistCoordinator, WorkerBinaryEnvOverride) {
  EnvGuard guard("RFTC_WORKER_BIN", "/tmp/custom-worker");
  EXPECT_EQ(default_worker_binary(), "/tmp/custom-worker");
}

// --------------------------------------------------------------------------
// Golden: distributed == single-process, across worker counts and engines

TEST(DistCampaign, AttackMatchesSingleProcessAcrossWorkersAndEngines) {
  const Corpus& c = corpus();
  for (const auto mode :
       {analysis::CpaMode::kBatched, analysis::CpaMode::kStreaming}) {
    const CampaignSpec spec = attack_spec(mode);
    const trace::TraceStore store(c.attack_store);
    const analysis::AttackOutcome baseline =
        analysis::run_attack(store, spec.key(), spec.attack_params());
    ASSERT_EQ(baseline.checkpoints,
              (std::vector<std::size_t>{150, 400, c.n_attack}));
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
      const std::string dir = temp_dir(
          (std::string("attack_w") + std::to_string(workers) +
           (mode == analysis::CpaMode::kBatched ? "_batched" : "_streaming"))
              .c_str());
      const CampaignResult result =
          run_campaign(spec, options_for(dir, workers));
      EXPECT_GE(result.shards_total, workers);
      EXPECT_EQ(result.shards_reused, 0u);
      EXPECT_EQ(result.worker_restarts, 0u);
      expect_attack_identical(result.attack, baseline);
      fs::remove_all(dir);
    }
  }
}

TEST(DistCampaign, TvlaMatchesSingleProcessWithUnequalPopulations) {
  const Corpus& c = corpus();
  // Pin the convergence schedule so the test is byte-stable regardless of
  // the ambient RFTC_OBS_CHECKPOINTS; both paths read the same env.
  EnvGuard cps("RFTC_OBS_CHECKPOINTS", "100,250");
  const CampaignSpec spec = tvla_spec();
  const trace::StoredTvlaCapture capture{trace::TraceStore(c.tvla_fixed),
                                         trace::TraceStore(c.tvla_random)};
  const analysis::TvlaResult baseline = analysis::run_tvla(capture);
  ASSERT_EQ(baseline.convergence.size(), 3u);  // 100, 250, final(384)
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    const std::string dir =
        temp_dir((std::string("tvla_w") + std::to_string(workers)).c_str());
    const CampaignResult result = run_campaign(spec, options_for(dir, workers));
    expect_tvla_identical(result.tvla, baseline);
    fs::remove_all(dir);
  }
}

TEST(DistCampaign, RerunReusesEveryCompletedShard) {
  const CampaignSpec spec = attack_spec(analysis::CpaMode::kBatched);
  const std::string dir = temp_dir("rerun_reuse");
  const CampaignResult first = run_campaign(spec, options_for(dir, 2));
  const CampaignResult second = run_campaign(spec, options_for(dir, 2));
  EXPECT_EQ(second.shards_reused, first.shards_total);
  EXPECT_EQ(second.worker_restarts, 0u);
  expect_attack_identical(second.attack, first.attack);
  fs::remove_all(dir);
}

/// Runs the real rftc-campaign CLI (attack_spec's campaign, two workers)
/// over `dir`; returns its exit status.
int run_campaign_cli(const std::string& dir) {
  const Corpus& c = corpus();
  const std::string cmd =
      std::string("'") + RFTC_TESTS_CAMPAIGN_BIN + "' attack --store '" +
      c.attack_store + "' --key " + key_to_hex(c.rk10) +
      " --bytes 0,7 --checkpoints 150,400," + std::to_string(c.n_attack) +
      " --engine batched --workers 2 --dir '" + dir + "' --worker '" +
      RFTC_TESTS_WORKER_BIN + "' >/dev/null 2>&1";
  return std::system(cmd.c_str());
}

TEST(DistCampaign, ForeignSnapshotIsRerunNotReused) {
  const std::string clean = temp_dir("foreign_snapshot_clean");
  const std::string dir = temp_dir("foreign_snapshot");
  ASSERT_EQ(run_campaign_cli(clean), 0);
  ASSERT_EQ(run_campaign_cli(dir), 0);

  // Plant shard 1's snapshot over shard 0's: same size, validly sealed,
  // but not the snapshot shard 0's manifest names.
  const std::string acc0 = shard_stem(dir, 0) + ".acc";
  const std::string acc1 = shard_stem(dir, 1) + ".acc";
  ASSERT_EQ(read_file(acc0).size(), read_file(acc1).size());
  fs::copy_file(acc1, acc0, fs::copy_options::overwrite_existing);
  const ShardDone done0 =
      done_from_json(read_file(shard_stem(dir, 0) + ".done.json"));
  EXPECT_FALSE(
      shard_complete(done0.shard, acc0, shard_stem(dir, 0) + ".done.json"));

  // Resume: shard 0 re-runs, and the report is byte-identical to the
  // untouched run's.
  ASSERT_EQ(run_campaign_cli(dir), 0);
  EXPECT_TRUE(read_file(acc0) == read_file(shard_stem(clean, 0) + ".acc"))
      << "shard 0's snapshot was not recomputed";
  EXPECT_EQ(read_file(dir + "/report.json"), read_file(clean + "/report.json"));
  fs::remove_all(dir);
  fs::remove_all(clean);
}

TEST(DistCampaign, RejectsDirectoryOfDifferentCampaign) {
  const CampaignSpec spec = attack_spec(analysis::CpaMode::kBatched);
  const std::string dir = temp_dir("foreign_dir");
  (void)run_campaign(spec, options_for(dir, 1));
  CampaignSpec other = spec;
  other.checkpoints = {200};
  EXPECT_THROW(run_campaign(other, options_for(dir, 1)),
               std::invalid_argument);
  fs::remove_all(dir);
}

// --------------------------------------------------------------------------
// Kill + resume

TEST(DistCampaign, KilledWorkerWithNoRetriesLeavesResumableDirectory) {
  const Corpus& c = corpus();
  const CampaignSpec spec = attack_spec(analysis::CpaMode::kBatched);
  const trace::TraceStore store(c.attack_store);
  const analysis::AttackOutcome baseline =
      analysis::run_attack(store, spec.key(), spec.attack_params());

  const std::string dir = temp_dir("kill_resume");
  const std::string mark = dir + "/kill.mark";
  EnvGuard kill_shard("RFTC_DIST_KILL_SHARD", "1");
  EnvGuard kill_mark("RFTC_DIST_KILL_MARK", mark.c_str());

  // First run: shard 1's worker SIGKILLs itself mid-shard; with retries=0
  // the campaign fails but every other shard's checkpoint is durable.
  EXPECT_THROW(run_campaign(spec, options_for(dir, 2, /*retries=*/0)),
               std::runtime_error);
  EXPECT_TRUE(fs::exists(mark));

  // Second run over the same directory: the kill latch is spent (marker
  // exists), completed shards are reused, and the merged result is still
  // bit-identical to the single-process baseline.
  const CampaignResult resumed =
      run_campaign(spec, options_for(dir, 2, /*retries=*/0));
  EXPECT_GE(resumed.shards_reused, 1u);
  EXPECT_LT(resumed.shards_reused, resumed.shards_total);
  EXPECT_EQ(resumed.worker_restarts, 0u);
  expect_attack_identical(resumed.attack, baseline);
  fs::remove_all(dir);
}

TEST(DistCampaign, KilledWorkerIsRetriedInPlace) {
  const Corpus& c = corpus();
  const CampaignSpec spec = attack_spec(analysis::CpaMode::kStreaming);
  const trace::TraceStore store(c.attack_store);
  const analysis::AttackOutcome baseline =
      analysis::run_attack(store, spec.key(), spec.attack_params());

  const std::string dir = temp_dir("kill_retry");
  const std::string mark = dir + "/kill.mark";
  EnvGuard kill_shard("RFTC_DIST_KILL_SHARD", "0");
  EnvGuard kill_mark("RFTC_DIST_KILL_MARK", mark.c_str());

  const CampaignResult result =
      run_campaign(spec, options_for(dir, 2, /*retries=*/1));
  EXPECT_TRUE(fs::exists(mark));
  EXPECT_EQ(result.worker_restarts, 1u);
  expect_attack_identical(result.attack, baseline);
  fs::remove_all(dir);
}

TEST(DistCampaign, KilledTvlaWorkerResumesBitIdentically) {
  const Corpus& c = corpus();
  EnvGuard cps("RFTC_OBS_CHECKPOINTS", "100,250");
  const CampaignSpec spec = tvla_spec();
  const trace::StoredTvlaCapture capture{trace::TraceStore(c.tvla_fixed),
                                         trace::TraceStore(c.tvla_random)};
  const analysis::TvlaResult baseline = analysis::run_tvla(capture);

  const std::string dir = temp_dir("tvla_kill");
  const std::string mark = dir + "/kill.mark";
  EnvGuard kill_shard("RFTC_DIST_KILL_SHARD", "0");
  EnvGuard kill_mark("RFTC_DIST_KILL_MARK", mark.c_str());

  EXPECT_THROW(run_campaign(spec, options_for(dir, 2, /*retries=*/0)),
               std::runtime_error);
  const CampaignResult resumed =
      run_campaign(spec, options_for(dir, 2, /*retries=*/0));
  EXPECT_GE(resumed.shards_reused, 1u);
  expect_tvla_identical(resumed.tvla, baseline);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rftc::dist
