#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>

#include "telemetry/trace.hpp"

namespace fastz {

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested != 0) return requested;
  if (const char* env = std::getenv("FASTZ_THREADS"); env != nullptr && *env != '\0') {
    // Strict parse: the whole string must be a positive decimal integer.
    // strtoull accepts leading whitespace/signs and clamps overflow, so
    // check those explicitly.
    errno = 0;
    char* end = nullptr;
    const bool leading_ok = env[0] >= '0' && env[0] <= '9';
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (!leading_ok || end == env || *end != '\0' || errno == ERANGE || parsed == 0 ||
        parsed > std::numeric_limits<std::size_t>::max()) {
      throw std::invalid_argument(
          "FASTZ_THREADS must be a positive integer, got '" + std::string(env) +
          "' (unset it or pass --threads to override)");
    }
    return static_cast<std::size_t>(parsed);
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard lock(mutex_);
    if (stopping_ && workers_.empty()) return;  // already shut down
    stopping_ = true;
  }
  // Every worker must observe stopping_: notify_one could wake a single
  // worker and leave the rest parked forever.
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers = std::min(n, size());
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::size_t error_index = n;
  std::exception_ptr error;
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    futures.push_back(submit([&] {
      // One span per worker: the per-tid lanes of the trace make multicore
      // load imbalance directly visible.
      telemetry::TraceSpan span("pool.chunk", "pool");
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard lock(error_mutex);
          if (i < error_index) {
            error_index = i;
            error = std::current_exception();
          }
          return;
        }
      }
    }));
  }
  // Join every worker before rethrowing: returning early would destroy the
  // cursor and `fn` (and any state it captures) while workers still run.
  for (auto& f : futures) f.get();
  if (error) std::rethrow_exception(error);
}

}  // namespace fastz
