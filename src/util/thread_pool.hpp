// Fixed-size worker pool: the functional pass's per-seed stages, multicore
// LASTZ and the benchmark's reference replay all run on it.
//
// parallel_for has one schedule. Its workers claim indices one at a time from
// a shared cursor, so a worker that drew a long item does not hold back items
// another worker could run. Callers write results by index, so no output
// depends on which worker ran which index.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fastz {

// Resolves a thread-count request shared by every `--threads` knob:
// nonzero requests pass through unchanged; 0 ("auto") consults the
// FASTZ_THREADS environment variable and falls back to
// hardware_concurrency (at least 1). FASTZ_THREADS must be a positive
// decimal integer; anything else (non-numeric, negative, zero, trailing
// garbage, overflow) throws std::invalid_argument naming the bad value —
// a typo in a CI matrix or service unit file must fail loudly, not
// silently run at a different parallelism. An empty/unset variable means
// "no preference".
std::size_t resolve_thread_count(std::size_t requested);

class ThreadPool {
 public:
  // `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  // Enqueue a task; the returned future rethrows any task exception.
  template <typename F>
  std::future<std::invoke_result_t<F>> submit(F&& f) {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  // Run fn(i) for i in [0, n) across the pool and wait for completion.
  // min(n, size()) workers each claim the next unclaimed index from a shared
  // atomic cursor until none is left; indices are claimed in ascending order.
  //
  // A worker stops at its first exception. The barrier still joins every
  // worker, so it never abandons tasks that still reference `fn`, and then
  // rethrows the exception of the lowest failing index. Which index that is
  // does not depend on which worker claimed what: every index below the
  // lowest one that throws runs without throwing, so no worker has stopped
  // by the time that index is claimed.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Stops accepting work, drains the queue, and joins the workers. Safe to
  // call more than once; subsequent submit() calls throw. The destructor
  // calls this implicitly.
  void shutdown();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace fastz
