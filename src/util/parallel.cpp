#include "util/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/obs.hpp"
#include "util/env.hpp"

namespace rftc::par {

namespace {

std::size_t env_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return env::read_count("RFTC_THREADS",
                         hw == 0 ? 1 : static_cast<std::size_t>(hw));
}

/// Set while a thread is executing shards, so nested parallel_for calls run
/// inline instead of re-entering the pool (which would deadlock the single
/// dispatch slot).
thread_local bool t_in_parallel_region = false;

obs::Counter& calls_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("par.parallel_for_calls");
  return c;
}

obs::Counter& shards_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("par.shards_executed");
  return c;
}

/// One outstanding batch of shards.  Workers claim shard indices from an
/// atomic cursor; outputs are partitioned by shard, so the claim order does
/// not affect results.  The Job lives on the caller's stack: `refs` keeps
/// the caller from returning (and destroying it) while a worker still holds
/// the pointer.
struct Job {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t grain = 1;
  std::size_t shards = 0;
  std::atomic<std::size_t> next{0};
  std::size_t done = 0;      // guarded by Pool::mu_
  std::size_t refs = 0;      // guarded by Pool::mu_
  std::exception_ptr error;  // guarded by Pool::mu_, first thrown wins
};

struct ShardRun {
  std::size_t executed = 0;
  std::exception_ptr error;
};

/// Claims and runs shards until the cursor is exhausted.  Lock-free; the
/// caller folds the result into the job under Pool::mu_.
ShardRun execute_shards(Job& job) {
  t_in_parallel_region = true;
  ShardRun run;
  for (;;) {
    const std::size_t shard = job.next.fetch_add(1, std::memory_order_relaxed);
    if (shard >= job.shards) break;
    const std::size_t b = job.begin + shard * job.grain;
    const std::size_t e = std::min(job.end, b + job.grain);
    try {
      (*job.body)(b, e);
    } catch (...) {
      if (!run.error) run.error = std::current_exception();
    }
    ++run.executed;
  }
  t_in_parallel_region = false;
  shards_counter().inc(run.executed);
  return run;
}

class Pool {
 public:
  explicit Pool(std::size_t workers) {
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
      threads_.emplace_back([this] { worker_loop(); });
    static obs::Gauge& g = obs::Registry::global().gauge("par.threads");
    g.set(static_cast<double>(workers + 1));  // workers + the calling thread
  }

  std::size_t workers() const { return threads_.size(); }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void run(Job& job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
    }
    wake_.notify_all();
    const ShardRun mine = execute_shards(job);  // caller participates
    std::unique_lock<std::mutex> lock(mu_);
    fold(job, mine);
    idle_.wait(lock, [&] { return job.done == job.shards && job.refs == 0; });
    job_ = nullptr;
  }

 private:
  void worker_loop() {
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [&] {
          return stop_ ||
                 (job_ != nullptr &&
                  job_->next.load(std::memory_order_relaxed) < job_->shards);
        });
        if (stop_) return;
        job = job_;
        ++job->refs;
      }
      const ShardRun mine = execute_shards(*job);
      std::lock_guard<std::mutex> lock(mu_);
      --job->refs;
      fold(*job, mine);
    }
  }

  // Requires mu_ held.
  void fold(Job& job, const ShardRun& run) {
    job.done += run.executed;
    if (run.error && !job.error) job.error = run.error;
    if (job.done == job.shards && job.refs == 0) idle_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::vector<std::thread> threads_;
  Job* job_ = nullptr;  // guarded by mu_
  bool stop_ = false;   // guarded by mu_
};

std::mutex g_pool_mu;    // guards pool lifetime + dispatch slot
Pool* g_pool = nullptr;  // lazily created
// Resolved worker count; 0 = unresolved.  Atomic rather than guarded by
// g_pool_mu so thread_count() stays callable from inside parallel bodies
// (the top-level caller holds g_pool_mu for the whole job — taking it here
// would deadlock).
std::atomic<std::size_t> g_threads{0};

std::size_t resolved_thread_count() {
  const std::size_t v = g_threads.load(std::memory_order_acquire);
  if (v != 0) return v;
  const std::size_t fresh = env_thread_count();
  std::size_t expected = 0;
  if (g_threads.compare_exchange_strong(expected, fresh,
                                        std::memory_order_acq_rel))
    return fresh;
  return expected;
}

}  // namespace

std::size_t thread_count() { return resolved_thread_count(); }

void set_thread_count(std::size_t n) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_threads.store(n == 0 ? env_thread_count() : n, std::memory_order_release);
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (end <= begin) return;
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t shards = shard_count(begin, end, g);
  calls_counter().inc();

  // Nested calls (and trivial ones) run inline BEFORE touching any pool
  // state: the top-level caller holds the dispatch mutex for the whole job,
  // so a nested call must not reach for it.  Shard boundaries stay
  // identical to the pooled path.
  if (shards == 1 || t_in_parallel_region || thread_count() == 1) {
    for (std::size_t b = begin; b < end; b += g)
      body(b, std::min(end, b + g));
    shards_counter().inc(shards);
    return;
  }

  RFTC_OBS_SPAN(span, "par", "parallel_for");
  span.arg("n", static_cast<double>(end - begin));
  span.arg("shards", static_cast<double>(shards));

  Job job;
  job.body = &body;
  job.begin = begin;
  job.end = end;
  job.grain = g;
  job.shards = shards;

  // One job at a time: concurrent top-level callers queue here.  The pool
  // is created on first parallel use and rebuilt only when the resolved
  // worker count differs from the live pool's, so a 4 -> 1 -> 4 sweep
  // keeps its threads (and their malloc arenas).
  std::lock_guard<std::mutex> dispatch(g_pool_mu);
  const std::size_t workers = g_threads.load(std::memory_order_relaxed) - 1;
  if (g_pool == nullptr || g_pool->workers() != workers) {
    delete g_pool;
    g_pool = new Pool(workers);
  }
  g_pool->run(job);
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace rftc::par
