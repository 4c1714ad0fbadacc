#include "mgs/simt/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mgs/util/check.hpp"

namespace mgs::simt {

namespace {
// The pool the current thread works for (nullptr outside every pool) and
// its slot there.
thread_local const ThreadPool* t_pool = nullptr;
thread_local int t_slot = 0;
}  // namespace

int ThreadPool::current_slot() const { return t_pool == this ? t_slot : 0; }

struct ThreadPool::Impl {
  // Every run_ordered call installs a fresh Job object. Workers take a
  // shared_ptr to the job they saw, so a worker waking late (or stalled
  // between claiming and checking) can only ever touch *its* job's
  // counters: a stale worker draws an exhausted index from the old job
  // and exits, instead of racing the next job's freshly reset counter
  // (which could double-execute a block, break the ascending-claim
  // invariant look-back kernels rely on, or call a dangling callback).
  struct Job {
    const std::function<void(std::int64_t)>* fn = nullptr;
    std::int64_t total = 0;
    std::atomic<std::int64_t> next{0};
    std::atomic<std::int64_t> completed{0};
  };

  std::vector<std::thread> threads;
  std::mutex mutex;
  std::condition_variable cv_work;
  std::condition_variable cv_done;

  std::shared_ptr<Job> job;  // guarded by mutex
  std::uint64_t generation = 0;
  bool shutting_down = false;

  void worker_loop() {
    std::uint64_t seen_generation = 0;
    for (;;) {
      std::shared_ptr<Job> my_job;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv_work.wait(lock, [&] {
          return shutting_down || generation != seen_generation;
        });
        if (shutting_down) return;
        seen_generation = generation;
        my_job = job;
      }
      if (my_job) drain(*my_job);
    }
  }

  void drain(Job& j) {
    for (;;) {
      const std::int64_t i = j.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= j.total) break;
      (*j.fn)(i);
      if (j.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          j.total) {
        std::lock_guard<std::mutex> lock(mutex);
        cv_done.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(int workers) : impl_(new Impl) {
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 2;
  }
  workers_ = workers;
  impl_->threads.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    impl_->threads.emplace_back([this, i] {
      t_pool = this;
      t_slot = i + 1;
      impl_->worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutting_down = true;
  }
  impl_->cv_work.notify_all();
  for (auto& t : impl_->threads) t.join();
  delete impl_;
}

void ThreadPool::run_ordered(std::int64_t n,
                             const std::function<void(std::int64_t)>& fn) {
  MGS_CHECK(n >= 0, "run_ordered: negative count");
  if (n == 0) return;
  auto job = std::make_shared<Impl::Job>();
  job->fn = &fn;  // valid until this call returns (we block on completion)
  job->total = n;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->job = job;
    ++impl_->generation;
  }
  impl_->cv_work.notify_all();
  // The calling thread participates too, so single-threaded environments
  // still make progress and small launches avoid a context switch.
  impl_->drain(*job);
  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->cv_done.wait(lock, [&] {
    return job->completed.load(std::memory_order_acquire) >= job->total;
  });
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

}  // namespace mgs::simt
