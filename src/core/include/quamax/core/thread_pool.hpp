// Minimal persistent thread pool for the batch-anneal runtime.
//
// The pool owns `size() - 1` worker threads; the caller of parallel_for is
// the remaining lane, so a pool of size 1 spawns no threads and runs inline
// (the serial baseline).  Work is distributed by an atomic index counter:
// each lane pulls the next unclaimed index until the range is drained.
// Determinism is the CALLER's contract — bodies must write only to
// per-index slots and draw randomness only from per-index sources (see
// core::run_blocks), so the claim order never affects results.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace quamax::core {

class ThreadPool {
 public:
  /// `num_threads` total lanes including the caller; 0 means one lane per
  /// hardware thread.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (worker threads + the calling thread).
  std::size_t size() const noexcept { return workers_.size() + 1; }

  /// Runs body(i) for every i in [0, count), blocking until all complete.
  /// The calling thread participates.  If any body throws, the remaining
  /// indices are abandoned and the first exception is rethrown here.
  /// One job at a time: concurrent calls from different threads serialize.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Lane-aware variant: runs body(lane, i) where `lane` identifies the
  /// executing lane (0 = the calling thread, 1..size()-1 = workers).  At any
  /// moment each lane value is held by exactly one thread, so bodies may use
  /// lane-indexed scratch (e.g. sim::sample_problems' lane-local annealers)
  /// without synchronization.  Lane-to-index assignment is a runtime race —
  /// determinism remains the caller's contract: results must not depend on
  /// WHICH lane ran an index.
  void parallel_for_lanes(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t)>& body);

  /// Maps a user-facing thread-count knob to a concrete lane count:
  /// 0 -> hardware concurrency (at least 1), anything else -> itself.
  static std::size_t resolve(std::size_t requested) noexcept;

 private:
  void worker_loop(std::size_t lane);
  void drain(const std::function<void(std::size_t, std::size_t)>& body,
             std::size_t lane, std::size_t count);

  std::vector<std::thread> workers_;

  std::mutex submit_mu_;  ///< serializes parallel_for callers

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  std::size_t active_ = 0;
  bool stop_ = false;
  const std::function<void(std::size_t, std::size_t)>* body_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  std::exception_ptr error_;
};

}  // namespace quamax::core
