#include "mgs/simt/thread_pool.hpp"

#include <algorithm>
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
  // Every run_ordered call that wakes workers installs a fresh Job object
  // (a job that wakes none stays private to the caller). Workers take a
  // shared_ptr to the job they saw, so a worker waking late (or stalled
  // between claiming and checking) can only ever touch *its* job's
  // counters: a stale worker draws an exhausted index from the old job
  // and exits, instead of racing the next job's freshly reset counter
  // (which could double-execute a block, break the ascending-claim
  // invariant look-back kernels rely on, or call a dangling callback).
  struct Job {
    const std::function<void(std::int64_t)>* fn = nullptr;
    std::int64_t total = 0;
    std::int64_t chunk = 1;  // indices per claim
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

  // Claim chunks until the job is exhausted, running each chunk's indices
  // in ascending order; the blocks this thread ran count towards
  // completion once, after its last claim.
  void drain(Job& j) {
    std::int64_t done = 0;
    for (;;) {
      const std::int64_t first =
          j.next.fetch_add(j.chunk, std::memory_order_relaxed);
      if (first >= j.total) break;
      const std::int64_t last = std::min(first + j.chunk, j.total);
      for (std::int64_t i = first; i < last; ++i) (*j.fn)(i);
      done += last - first;
    }
    if (done > 0 &&
        j.completed.fetch_add(done, std::memory_order_acq_rel) + done ==
            j.total) {
      std::lock_guard<std::mutex> lock(mutex);
      cv_done.notify_all();
    }
  }
};

ThreadPool::ThreadPool()
    : ThreadPool([] {
        // hardware_concurrency() is 0 when unknown: assume two cores.
        const int cores = static_cast<int>(std::thread::hardware_concurrency());
        return cores > 0 ? cores - 1 : 1;
      }()) {}

ThreadPool::ThreadPool(int workers) : impl_(new Impl), workers_(workers) {
  MGS_CHECK(workers >= 0, "ThreadPool: negative worker count");
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
  // About eight claims per thread: few enough that claims stay off the
  // profile, enough that a thread finishing early finds more to take.
  job->chunk = std::max<std::int64_t>(1, n / (8 * std::int64_t{slots()}));
  const std::int64_t chunks = (n + job->chunk - 1) / job->chunk;
  // The caller takes one chunk itself, so wake a worker per other chunk.
  const int wake =
      static_cast<int>(std::min<std::int64_t>(workers_, chunks - 1));
  if (wake > 0) {
    {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      impl_->job = job;
      ++impl_->generation;
    }
    for (int i = 0; i < wake; ++i) impl_->cv_work.notify_one();
  }
  // The calling thread participates too, so a pool without workers still
  // makes progress and small launches avoid a context switch.
  impl_->drain(*job);
  if (job->completed.load(std::memory_order_acquire) < n) {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->cv_done.wait(lock, [&] {
      return job->completed.load(std::memory_order_acquire) >= n;
    });
  }
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

}  // namespace mgs::simt
