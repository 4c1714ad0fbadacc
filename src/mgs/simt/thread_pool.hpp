#pragma once
/// \file thread_pool.hpp
/// Fixed-size worker pool used to execute thread blocks functionally.
///
/// Blocks are dispatched strictly in ascending linear index: a worker
/// claims the next index from a shared counter, so block i never starts
/// before block i-1 has started. Kernels that spin-wait on lower-indexed
/// blocks (decoupled look-back, chained scan) therefore cannot deadlock at
/// any pool size -- the awaited block is either finished or running.

#include <cstdint>
#include <functional>

namespace mgs::simt {

class ThreadPool {
 public:
  /// Workers default to std::thread::hardware_concurrency().
  explicit ThreadPool(int workers = 0);
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

  /// Run fn(i) for i in [0, n), claiming indices in ascending order.
  /// Blocks until all calls complete. fn must be thread-safe across
  /// distinct i. Exceptions in fn abort the process (kernels use
  /// MGS_CHECK, which already aborts with a diagnostic).
  void run_ordered(std::int64_t n, const std::function<void(std::int64_t)>& fn);

  /// Process-wide pool shared by all launches.
  static ThreadPool& instance();

 private:
  struct Impl;
  Impl* impl_;
  int workers_;
};

}  // namespace mgs::simt
