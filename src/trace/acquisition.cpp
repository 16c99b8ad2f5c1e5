#include "trace/acquisition.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "obs/phase_timer.hpp"
#include "trace/trace_store.hpp"
#include "util/parallel.hpp"

namespace rftc::trace {

namespace {

/// Emit a campaign-progress instant every 2^12 captures — frequent enough
/// to see acquisition pace in a trace, rare enough to cost nothing.
constexpr std::size_t kProgressMask = (1u << 12) - 1;

obs::Counter& captured_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("trace.traces_captured");
  return c;
}

/// Captures whose ciphertext was corrupted by fault injection
/// (docs/ROBUSTNESS.md); stays at zero on a fault-free run.
obs::Counter& faulted_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("trace.faulted_encryptions");
  return c;
}

}  // namespace

aes::Block random_block(Xoshiro256StarStar& rng) {
  aes::Block b{};
  for (int half = 0; half < 2; ++half) {
    const std::uint64_t w = rng.next();
    for (int i = 0; i < 8; ++i)
      b[static_cast<std::size_t>(8 * half + i)] =
          static_cast<std::uint8_t>(w >> (8 * i));
  }
  return b;
}

TraceSet acquire_random(const Encryptor& encryptor, TraceSimulator& sim,
                        std::size_t n, Xoshiro256StarStar& rng) {
  obs::PhaseScope phase(obs::kPhaseCapture);
  RFTC_OBS_SPAN(span, "trace", "acquire_random");
  span.arg("n", static_cast<double>(n));
  obs::Counter& captured = captured_counter();
  obs::Counter& faulted = faulted_counter();
  TraceSet set(sim.samples());
  for (std::size_t i = 0; i < n; ++i) {
    const aes::Block pt = random_block(rng);
    const core::EncryptionRecord rec = encryptor(pt);
    set.add(sim.simulate(rec.schedule, rec.activity), pt, rec.ciphertext);
    captured.inc();
    if (rec.fault_flips > 0) faulted.inc();
    if ((i & kProgressMask) == kProgressMask)
      RFTC_OBS_INSTANT("trace", "acquire_random.progress",
                       {"captured", static_cast<double>(i + 1)},
                       {"of", static_cast<double>(n)});
  }
  return set;
}

TvlaCapture acquire_tvla(const Encryptor& encryptor, TraceSimulator& sim,
                         std::size_t n_per_population,
                         const aes::Block& fixed_plaintext,
                         Xoshiro256StarStar& rng) {
  obs::PhaseScope phase(obs::kPhaseCapture);
  RFTC_OBS_SPAN(span, "trace", "acquire_tvla");
  span.arg("n_per_population", static_cast<double>(n_per_population));
  obs::Counter& captured = captured_counter();
  obs::Counter& faulted = faulted_counter();
  std::size_t done = 0;
  TvlaCapture cap{TraceSet(sim.samples()), TraceSet(sim.samples())};
  std::size_t remaining_fixed = n_per_population;
  std::size_t remaining_random = n_per_population;
  while (remaining_fixed > 0 || remaining_random > 0) {
    // Random interleave so environmental drift cannot separate the sets.
    bool take_fixed;
    if (remaining_fixed == 0) {
      take_fixed = false;
    } else if (remaining_random == 0) {
      take_fixed = true;
    } else {
      take_fixed = (rng.next() & 1) != 0;
    }
    const aes::Block pt = take_fixed ? fixed_plaintext : random_block(rng);
    const core::EncryptionRecord rec = encryptor(pt);
    if (rec.fault_flips > 0) faulted.inc();
    auto tr = sim.simulate(rec.schedule, rec.activity);
    if (take_fixed) {
      cap.fixed.add(std::move(tr), pt, rec.ciphertext);
      --remaining_fixed;
    } else {
      cap.random.add(std::move(tr), pt, rec.ciphertext);
      --remaining_random;
    }
    captured.inc();
    if ((++done & kProgressMask) == kProgressMask)
      RFTC_OBS_INSTANT("trace", "acquire_tvla.progress",
                       {"captured", static_cast<double>(done)},
                       {"of", static_cast<double>(2 * n_per_population)});
  }
  return cap;
}

namespace {

/// The shard's plaintext substream: `seed` advanced by `shard_index`
/// jumps (each jump is 2^128 draws, so substreams cannot overlap).
Xoshiro256StarStar shard_stream(std::uint64_t seed, std::size_t shard_index) {
  Xoshiro256StarStar rng(seed);
  for (std::size_t j = 0; j < shard_index; ++j) rng.jump();
  return rng;
}

/// Shard body shared by the in-RAM and out-of-core random campaigns: the
/// store path MUST produce byte-identical traces to the merged TraceSet
/// path, which it gets for free by running the exact same code per shard.
TraceSet capture_random_shard(const CaptureShardFactory& factory,
                              std::uint64_t seed, std::size_t b, std::size_t e,
                              std::size_t shard_size) {
  CaptureShard shard = factory(b / shard_size);
  Xoshiro256StarStar rng = shard_stream(seed, b / shard_size);
  TraceSet set(shard.sim.samples());
  set.reserve(e - b);
  obs::Counter& captured = captured_counter();
  obs::Counter& faulted = faulted_counter();
  for (std::size_t i = b; i < e; ++i) {
    const aes::Block pt = random_block(rng);
    const core::EncryptionRecord rec = shard.encryptor(pt);
    set.add(shard.sim.simulate(rec.schedule, rec.activity), pt,
            rec.ciphertext);
    captured.inc();
    if (rec.fault_flips > 0) faulted.inc();
  }
  return set;
}

/// Shard body shared by the in-RAM and out-of-core TVLA campaigns (same
/// bit-identity contract as capture_random_shard).
TvlaCapture capture_tvla_shard(const CaptureShardFactory& factory,
                               const aes::Block& fixed_plaintext,
                               std::uint64_t seed, std::size_t b,
                               std::size_t e, std::size_t shard_size) {
  CaptureShard shard = factory(b / shard_size);
  Xoshiro256StarStar rng = shard_stream(seed, b / shard_size);
  TvlaCapture cap{TraceSet(shard.sim.samples()),
                  TraceSet(shard.sim.samples())};
  cap.fixed.reserve(e - b);
  cap.random.reserve(e - b);
  obs::Counter& captured = captured_counter();
  obs::Counter& faulted = faulted_counter();
  std::size_t remaining_fixed = e - b;
  std::size_t remaining_random = e - b;
  while (remaining_fixed > 0 || remaining_random > 0) {
    bool take_fixed;
    if (remaining_fixed == 0) {
      take_fixed = false;
    } else if (remaining_random == 0) {
      take_fixed = true;
    } else {
      take_fixed = (rng.next() & 1) != 0;
    }
    const aes::Block pt = take_fixed ? fixed_plaintext : random_block(rng);
    const core::EncryptionRecord rec = shard.encryptor(pt);
    if (rec.fault_flips > 0) faulted.inc();
    auto tr = shard.sim.simulate(rec.schedule, rec.activity);
    if (take_fixed) {
      cap.fixed.add(std::move(tr), pt, rec.ciphertext);
      --remaining_fixed;
    } else {
      cap.random.add(std::move(tr), pt, rec.ciphertext);
      --remaining_random;
    }
    captured.inc();
  }
  return cap;
}

/// Drives shards [0, total) in groups of `thread_count` through `make`
/// (parallel within a group) and hands each shard result to `sink` in
/// strict shard order — the bounded-memory replacement for
/// par::sharded_reduce, which must hold every partial at once.
template <typename Part, typename Make, typename Sink>
void grouped_shards(std::size_t total, std::size_t shard_size, Make&& make,
                    Sink&& sink) {
  const std::size_t group = par::thread_count() * shard_size;
  for (std::size_t g0 = 0; g0 < total; g0 += group) {
    const std::size_t g1 = std::min(total, g0 + group);
    std::vector<std::optional<Part>> parts(
        par::shard_count(g0, g1, shard_size));
    par::parallel_for(g0, g1, shard_size, [&](std::size_t b, std::size_t e) {
      parts[(b - g0) / shard_size].emplace(make(b, e));
    });
    for (auto& p : parts) sink(std::move(*p));
  }
}

}  // namespace

TraceSet acquire_random_parallel(const CaptureShardFactory& factory,
                                 std::size_t n, std::uint64_t seed,
                                 std::size_t shard_size) {
  if (shard_size == 0)
    throw std::invalid_argument("acquire_random_parallel: zero shard size");
  obs::PhaseScope phase(obs::kPhaseCapture);
  RFTC_OBS_SPAN(span, "trace", "acquire_random_parallel");
  span.arg("n", static_cast<double>(n));
  if (n == 0) return TraceSet(factory(0).sim.samples());

  auto merged = par::sharded_reduce(
      0, n, shard_size, std::optional<TraceSet>{},
      [&](std::size_t b, std::size_t e) {
        TraceSet set = capture_random_shard(factory, seed, b, e, shard_size);
        RFTC_OBS_INSTANT("trace", "acquire_random_parallel.shard",
                         {"first", static_cast<double>(b)},
                         {"count", static_cast<double>(e - b)});
        return set;
      },
      [n](std::optional<TraceSet>& acc, std::optional<TraceSet>&& part) {
        // Sized once for the whole campaign.  Growing from shard 0's buffer
        // copies it twice and frees a chain of doubling blocks; whether a
        // later allocation of the same total size fits into that chain
        // then hangs on a few bytes of unrelated heap traffic, and with it
        // the process's peak RSS.
        if (!acc) {
          acc.emplace(part->samples());
          acc->reserve(n);
        }
        acc->append(*part);
      });
  return std::move(*merged);
}

void acquire_random_store(const CaptureShardFactory& factory, std::size_t n,
                          std::uint64_t seed, TraceStoreWriter& out,
                          std::size_t shard_size) {
  if (shard_size == 0)
    throw std::invalid_argument("acquire_random_store: zero shard size");
  obs::PhaseScope phase(obs::kPhaseCapture);
  RFTC_OBS_SPAN(span, "trace", "acquire_random_store");
  span.arg("n", static_cast<double>(n));
  grouped_shards<TraceSet>(
      n, shard_size,
      [&](std::size_t b, std::size_t e) {
        return capture_random_shard(factory, seed, b, e, shard_size);
      },
      [&](TraceSet&& part) {
        obs::PhaseScope io(obs::kPhaseStoreIo);
        out.append(part);
      });
}

TvlaCapture acquire_tvla_parallel(const CaptureShardFactory& factory,
                                  std::size_t n_per_population,
                                  const aes::Block& fixed_plaintext,
                                  std::uint64_t seed,
                                  std::size_t shard_size) {
  if (shard_size == 0)
    throw std::invalid_argument("acquire_tvla_parallel: zero shard size");
  obs::PhaseScope phase(obs::kPhaseCapture);
  RFTC_OBS_SPAN(span, "trace", "acquire_tvla_parallel");
  span.arg("n_per_population", static_cast<double>(n_per_population));
  if (n_per_population == 0) {
    const std::size_t samples = factory(0).sim.samples();
    return TvlaCapture{TraceSet(samples), TraceSet(samples)};
  }

  auto merged = par::sharded_reduce(
      0, n_per_population, shard_size, std::optional<TvlaCapture>{},
      [&](std::size_t b, std::size_t e) {
        TvlaCapture cap =
            capture_tvla_shard(factory, fixed_plaintext, seed, b, e,
                               shard_size);
        RFTC_OBS_INSTANT("trace", "acquire_tvla_parallel.shard",
                         {"first_pair", static_cast<double>(b)},
                         {"pairs", static_cast<double>(e - b)});
        return cap;
      },
      [n_per_population](std::optional<TvlaCapture>& acc,
                         std::optional<TvlaCapture>&& part) {
        // Sized once, as in acquire_random_parallel.
        if (!acc) {
          acc.emplace(TvlaCapture{TraceSet(part->fixed.samples()),
                                  TraceSet(part->random.samples())});
          acc->fixed.reserve(n_per_population);
          acc->random.reserve(n_per_population);
        }
        acc->fixed.append(part->fixed);
        acc->random.append(part->random);
      });
  return std::move(*merged);
}

void acquire_tvla_store(const CaptureShardFactory& factory,
                        std::size_t n_per_population,
                        const aes::Block& fixed_plaintext, std::uint64_t seed,
                        TraceStoreWriter& fixed_out,
                        TraceStoreWriter& random_out, std::size_t shard_size) {
  if (shard_size == 0)
    throw std::invalid_argument("acquire_tvla_store: zero shard size");
  obs::PhaseScope phase(obs::kPhaseCapture);
  RFTC_OBS_SPAN(span, "trace", "acquire_tvla_store");
  span.arg("n_per_population", static_cast<double>(n_per_population));
  grouped_shards<TvlaCapture>(
      n_per_population, shard_size,
      [&](std::size_t b, std::size_t e) {
        return capture_tvla_shard(factory, fixed_plaintext, seed, b, e,
                                  shard_size);
      },
      [&](TvlaCapture&& part) {
        obs::PhaseScope io(obs::kPhaseStoreIo);
        fixed_out.append(part.fixed);
        random_out.append(part.random);
      });
}

}  // namespace rftc::trace
