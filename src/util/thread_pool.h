// Fixed-size worker pool with a blocking parallel-for. Workers are spawned
// once and reused across calls — engine::ScorePool, its one owner, shards
// every ScoreBatch of a server's engines onto it, so per-batch (or
// per-engine) thread spawning would dominate.
#ifndef CSPM_UTIL_THREAD_POOL_H_
#define CSPM_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cspm::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for every i in [0, n), distributing indices across the
  /// workers (atomic index stealing; the caller blocks until all indices
  /// are done but does not execute fn itself). fn must be safe to call
  /// concurrently from multiple threads.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Threads to use when the caller asked for "auto" (0): the hardware
  /// concurrency, at least 1.
  static size_t AutoThreads();

 private:
  /// One ParallelFor dispatch. Each job owns its index counter, so a
  /// worker that raced past the end of an old job can never claim indices
  /// of (or run) a newer one — it only ever touches its own snapshot.
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t size = 0;
    std::atomic<size_t> next{0};
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;  // guarded by mu_; null when idle
  uint64_t generation_ = 0;
  size_t pending_ = 0;  // indices not yet completed in the current job
  bool shutdown_ = false;
};

}  // namespace cspm::util

#endif  // CSPM_UTIL_THREAD_POOL_H_
