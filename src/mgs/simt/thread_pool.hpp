#pragma once
/// \file thread_pool.hpp
/// Fixed-size worker pool used to execute thread blocks functionally.
///
/// Blocks are claimed in ascending linear index: a thread takes the next
/// run of consecutive indices (a chunk) from a shared counter and runs
/// them in ascending order before it claims again. So when block i starts,
/// every lower-indexed block has been claimed by a thread that is running,
/// and that thread runs its claimed blocks in ascending order. Kernels that
/// spin-wait on lower-indexed blocks (decoupled look-back, chained scan)
/// therefore cannot deadlock at any pool size -- the awaited block is
/// finished, running, or next in line on a running thread; they may only
/// spin longer than under one-block claims.

#include <cstdint>
#include <functional>

namespace mgs::simt {

class ThreadPool {
 public:
  /// The caller plus hardware_concurrency() - 1 workers, so a launch keeps
  /// every core busy without oversubscribing them: zero workers on a
  /// 1-core machine, where the caller drains every job alone.
  ThreadPool();
  /// Exactly `workers` (>= 0) workers besides the caller.
  explicit ThreadPool(int workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return workers_; }

  /// Per-worker state (e.g. launch stats slots) is indexed by slot:
  /// 1..workers() for this pool's workers and 0 for any other thread --
  /// the thread that calls run_ordered drains its own job. So slots()
  /// entries cover every thread that can run one job's fn.
  int slots() const { return workers_ + 1; }
  int current_slot() const;

  /// Run fn(i) for i in [0, n), claiming chunks of ascending indices (see
  /// the file comment). A job of c chunks wakes at most c - 1 workers; a
  /// one-chunk job runs on the caller alone. Blocks until all calls
  /// complete. fn must be thread-safe across distinct i. Exceptions in fn
  /// abort the process (kernels use MGS_CHECK, which already aborts with a
  /// diagnostic).
  void run_ordered(std::int64_t n, const std::function<void(std::int64_t)>& fn);

  /// Process-wide pool shared by all launches.
  static ThreadPool& instance();

 private:
  struct Impl;
  Impl* impl_;
  int workers_;
};

}  // namespace mgs::simt
