// Reusable fixed-size worker pool for fork/join parallelism.
//
// parallel_for(n, fn) runs fn(i) for every i in [0, n) across the pool's
// worker threads *and* the calling thread, then blocks until all n calls
// have returned — the call itself is the barrier.  Indices are claimed one
// at a time under the pool mutex (work items are expected to be heavy — a
// full per-rack epoch step — so claim overhead is noise), and any thread
// may run any index; callers needing deterministic results must make fn(i)
// a pure function of i (the fleet's per-rack epoch step is: every rack owns
// its simulator, telemetry and RNG).
//
// Exceptions thrown by fn are captured per index and, after the barrier,
// the one with the *lowest index* is rethrown on the calling thread — which
// worker hit an error first does not change what the caller sees, keeping
// error reporting deterministic too.
//
// A pool constructed with threads == 1 spawns no workers at all:
// parallel_for degenerates to an inline sequential loop on the calling
// thread, byte-identical to never having had a pool (the --threads 1 path).
//
// One job at a time: parallel_for must not be called concurrently from two
// threads, nor recursively from inside fn (the nested call would deadlock
// waiting for workers that are busy running its parent).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace greenhetero::util {

/// A fan-out over [0, n): runs fn(i) for every i, possibly on several
/// threads, and returns after every call finished (ThreadPool::parallel_for,
/// or the fleet's two-level shard fan-out).  fn(i) must touch only state of
/// its own index.  An empty ForEach means "run inline".
using ForEach = std::function<void(
    std::size_t n, const std::function<void(std::size_t)>& fn)>;

class ThreadPool {
 public:
  /// `threads` counts the calling thread: a pool of N runs work on N-1
  /// workers plus the caller.  0 picks hardware_threads().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const { return threads_; }

  /// Run fn(i) for every i in [0, n); returns after all complete.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// std::thread::hardware_concurrency(), never zero.
  [[nodiscard]] static std::size_t hardware_threads();

 private:
  void worker_loop();
  /// Claim and run items of the current job until none are left.  `lock`
  /// must hold mutex_ on entry; it holds it again on return (released
  /// around each fn call).
  void drain_current_job(std::unique_lock<std::mutex>& lock);

  std::size_t threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: a new job (or stop) arrived
  std::condition_variable done_cv_;  ///< caller: all items of the job finished
  // Current job; all fields guarded by mutex_ except errors_, whose slots
  // are each written by exactly one thread (mutex_ release/acquire orders
  // the writes before the caller's final read).
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t job_size_ = 0;
  std::size_t next_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;
};

}  // namespace greenhetero::util
