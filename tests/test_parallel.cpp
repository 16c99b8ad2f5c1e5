#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

namespace rftc::par {
namespace {

/// Restores the configured worker count when a test returns.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(thread_count()) {}
  ~ThreadCountGuard() { set_thread_count(saved_); }

 private:
  std::size_t saved_;
};

TEST(Parallel, ThreadCountIsAtLeastOne) {
  EXPECT_GE(thread_count(), 1u);
  ThreadCountGuard guard;
  set_thread_count(3);
  EXPECT_EQ(thread_count(), 3u);
  set_thread_count(0);  // back to env/hardware default
  EXPECT_GE(thread_count(), 1u);
}

TEST(Parallel, ShardCount) {
  EXPECT_EQ(shard_count(0, 0, 4), 0u);
  EXPECT_EQ(shard_count(5, 5, 4), 0u);
  EXPECT_EQ(shard_count(0, 1, 4), 1u);
  EXPECT_EQ(shard_count(0, 8, 4), 2u);
  EXPECT_EQ(shard_count(0, 9, 4), 3u);
  EXPECT_EQ(shard_count(3, 9, 4), 2u);
  EXPECT_EQ(shard_count(0, 9, 0), 9u);  // zero grain behaves as 1
}

TEST(Parallel, CoversRangeExactlyOnce) {
  ThreadCountGuard guard;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    set_thread_count(threads);
    std::vector<std::atomic<int>> hits(103);
    parallel_for(3, 103, 7, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), i >= 3 && i < 103 ? 1 : 0) << "i=" << i;
  }
}

TEST(Parallel, ShardBoundariesIndependentOfThreadCount) {
  ThreadCountGuard guard;
  std::set<std::pair<std::size_t, std::size_t>> reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    set_thread_count(threads);
    std::mutex mu;
    std::set<std::pair<std::size_t, std::size_t>> shards;
    parallel_for(10, 250, 16, [&](std::size_t b, std::size_t e) {
      const std::lock_guard<std::mutex> lock(mu);
      shards.emplace(b, e);
    });
    if (reference.empty()) reference = shards;
    EXPECT_EQ(shards, reference) << "threads=" << threads;
  }
  // Pure function of (begin, end, grain): first shard starts at begin,
  // consecutive shards abut, last one ends at end.
  std::size_t expect_begin = 10;
  for (const auto& [b, e] : reference) {
    EXPECT_EQ(b, expect_begin);
    expect_begin = e;
  }
  EXPECT_EQ(expect_begin, 250u);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool ran = false;
  parallel_for(5, 5, 4, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Parallel, PropagatesBodyException) {
  ThreadCountGuard guard;
  for (const std::size_t threads : {1u, 4u}) {
    set_thread_count(threads);
    EXPECT_THROW(
        parallel_for(0, 64, 4,
                     [&](std::size_t b, std::size_t) {
                       if (b == 32) throw std::runtime_error("boom");
                     }),
        std::runtime_error);
    // The pool survives an exception and keeps working.
    std::atomic<std::size_t> n{0};
    parallel_for(0, 64, 4, [&](std::size_t b, std::size_t e) {
      n.fetch_add(e - b);
    });
    EXPECT_EQ(n.load(), 64u);
  }
}

TEST(Parallel, NestedCallsRunInline) {
  ThreadCountGuard guard;
  set_thread_count(4);
  std::vector<std::atomic<int>> hits(64);
  parallel_for(0, 8, 1, [&](std::size_t ob, std::size_t) {
    parallel_for(0, 8, 2, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) hits[ob * 8 + i].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ShardedReduceMergesInShardOrder) {
  ThreadCountGuard guard;
  std::vector<std::size_t> reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    set_thread_count(threads);
    // Concatenation is non-commutative: any out-of-order merge scrambles it.
    auto out = sharded_reduce(
        0, 100, 9, std::vector<std::size_t>{},
        [](std::size_t b, std::size_t e) {
          std::vector<std::size_t> part;
          for (std::size_t i = b; i < e; ++i) part.push_back(i);
          return part;
        },
        [](std::vector<std::size_t>& acc, std::vector<std::size_t>&& part) {
          acc.insert(acc.end(), part.begin(), part.end());
        });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i);
    if (reference.empty()) reference = out;
    EXPECT_EQ(out, reference);
  }
}

/// A per-thread serial number: unlike std::thread::id (a pthread_t, which
/// a new thread may inherit from a joined one), a fresh thread always gets
/// a fresh serial.
std::uint64_t thread_serial() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t serial = next.fetch_add(1);
  return serial;
}

/// Serials of every pool thread: `threads` shards that each wait until all
/// `threads` have started, so each thread of the pool runs exactly one.
std::set<std::uint64_t> pool_thread_serials(std::size_t threads) {
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::uint64_t> serials;
  std::size_t arrived = 0;
  parallel_for(0, threads, 1, [&](std::size_t, std::size_t) {
    std::unique_lock<std::mutex> lock(mu);
    serials.insert(thread_serial());
    ++arrived;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(30),
                [&] { return arrived == threads; });
  });
  return serials;
}

TEST(Parallel, UnchangedThreadCountKeepsThePoolAcrossSweeps) {
  // A 4 -> 1 -> 4 sweep must land on the same worker threads (no join and
  // respawn) and produce the same bits.
  ThreadCountGuard guard;
  const auto reduce = [] {
    return sharded_reduce(
        0, 1000, 7, 0.0,
        [](std::size_t b, std::size_t e) {
          double acc = 0.0;
          for (std::size_t i = b; i < e; ++i)
            acc += 1.0 / static_cast<double>(i + 1);
          return acc;
        },
        [](double& acc, double&& part) { acc += part; });
  };
  set_thread_count(4);
  const std::set<std::uint64_t> first = pool_thread_serials(4);
  ASSERT_EQ(first.size(), 4u);
  const double r4 = reduce();
  set_thread_count(1);
  const double r1 = reduce();
  set_thread_count(4);
  const std::set<std::uint64_t> second = pool_thread_serials(4);
  const double r4_again = reduce();
  EXPECT_EQ(first, second);
  EXPECT_EQ(std::memcmp(&r4, &r1, sizeof r4), 0);
  EXPECT_EQ(std::memcmp(&r4, &r4_again, sizeof r4), 0);
  // A different count does rebuild the pool.
  set_thread_count(3);
  const std::set<std::uint64_t> third = pool_thread_serials(3);
  ASSERT_EQ(third.size(), 3u);
  EXPECT_EQ(third.count(thread_serial()), 1u) << "caller participates";
  std::size_t shared = 0;
  for (const std::uint64_t s : third)
    shared += s != thread_serial() && second.count(s) != 0;
  EXPECT_EQ(shared, 0u);
}

TEST(Parallel, ShardedReduceEmptyRangeReturnsInit) {
  const int out = sharded_reduce(
      4, 4, 2, 41, [](std::size_t, std::size_t) { return 1; },
      [](int& acc, int&& part) { acc += part; });
  EXPECT_EQ(out, 41);
}

}  // namespace
}  // namespace rftc::par
