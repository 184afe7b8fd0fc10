#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

namespace fastz {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10, [](std::size_t i) {
        if (i == 5) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
  // shutdown() is idempotent; a second call (and the destructor after it)
  // must be harmless.
  pool.shutdown();
}

TEST(ThreadPool, ShutdownDrainsQueuedWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done.fetch_add(1);
      });
    }
    pool.shutdown();  // must wait for every queued task, not just running ones
    EXPECT_EQ(done.load(), 16);
  }
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, ExceptionInOneChunkDoesNotDeadlockTheBarrier) {
  ThreadPool pool(4);
  // Every item throws: the barrier must still join every worker and rethrow
  // exactly one exception instead of deadlocking or tearing down `fn` while
  // workers still run.
  std::atomic<int> entered{0};
  EXPECT_THROW(pool.parallel_for(1000,
                                 [&](std::size_t) {
                                   entered.fetch_add(1);
                                   throw std::runtime_error("chunk failure");
                                 }),
               std::runtime_error);
  // A worker stops at its first failure, so between 1 and pool-size
  // entries ran.
  EXPECT_GE(entered.load(), 1);
  EXPECT_LE(entered.load(), 4);

  // The pool remains fully usable after the failed barrier.
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ExceptionRethrownIsFromLowestFailingIndex) {
  // Several indices throw, and which worker claims which index changes from
  // run to run (item cost varies with the index). The rethrown exception is
  // still always the lowest failing index's.
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    try {
      pool.parallel_for(500, [round](std::size_t i) {
        if ((i + static_cast<std::size_t>(round)) % 7 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        if (i >= 37 && i % 13 == 11) throw std::runtime_error("index " + std::to_string(i));
      });
      FAIL() << "parallel_for must rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "index 37") << "round " << round;
    }
  }
}

TEST(ThreadPool, ClaimsWorkDynamically) {
  // Item 0 blocks until items 1..63 have all run. With claimed indices the
  // other worker runs all of them; a static split that parks items 1..31
  // behind item 0 on the same worker cannot finish, and the bounded wait
  // fails the test instead of hanging it.
  ThreadPool pool(2);
  constexpr std::size_t kItems = 64;
  std::atomic<std::size_t> others_done{0};
  std::size_t seen_by_item0 = 0;
  pool.parallel_for(kItems, [&](std::size_t i) {
    if (i != 0) {
      others_done.fetch_add(1);
      return;
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((seen_by_item0 = others_done.load()) < kItems - 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  EXPECT_EQ(seen_by_item0, kItems - 1) << "other items that ran while item 0 waited";
  EXPECT_EQ(others_done.load(), kItems - 1);
}

TEST(ThreadPool, SumIsDeterministic) {
  ThreadPool pool(4);
  std::vector<std::uint64_t> out(100);
  pool.parallel_for(100, [&](std::size_t i) { out[i] = i * i; });
  const std::uint64_t sum = std::accumulate(out.begin(), out.end(), std::uint64_t{0});
  EXPECT_EQ(sum, 328350u);
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

class ResolveThreadCount : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* prev = std::getenv("FASTZ_THREADS");
    if (prev != nullptr) saved_ = prev;
    unsetenv("FASTZ_THREADS");
  }
  void TearDown() override {
    if (saved_.empty()) {
      unsetenv("FASTZ_THREADS");
    } else {
      setenv("FASTZ_THREADS", saved_.c_str(), 1);
    }
  }
  std::string saved_;
};

TEST_F(ResolveThreadCount, ExplicitRequestPassesThrough) {
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(7), 7u);
  // An explicit request wins even when the env var disagrees.
  setenv("FASTZ_THREADS", "3", 1);
  EXPECT_EQ(resolve_thread_count(7), 7u);
}

TEST_F(ResolveThreadCount, AutoConsultsEnvironment) {
  setenv("FASTZ_THREADS", "6", 1);
  EXPECT_EQ(resolve_thread_count(0), 6u);
}

TEST_F(ResolveThreadCount, AutoFallsBackToHardwareConcurrency) {
  EXPECT_GE(resolve_thread_count(0), 1u);
}

TEST_F(ResolveThreadCount, MalformedEnvironmentIsRejected) {
  // A typo'd FASTZ_THREADS must fail loudly, not silently fall back to a
  // different parallelism (the error names the bad value).
  for (const char* bad : {"0", "abc", "4x", "-2", "+3", " 5", "0x4",
                          "99999999999999999999999"}) {
    setenv("FASTZ_THREADS", bad, 1);
    try {
      resolve_thread_count(0);
      FAIL() << "FASTZ_THREADS=" << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << "error message does not name the bad value: " << e.what();
    }
  }
}

TEST_F(ResolveThreadCount, EmptyEnvironmentMeansUnset) {
  setenv("FASTZ_THREADS", "", 1);
  EXPECT_GE(resolve_thread_count(0), 1u);
}

TEST_F(ResolveThreadCount, ExplicitRequestIgnoresMalformedEnvironment) {
  // A nonzero request never consults the environment, malformed or not.
  setenv("FASTZ_THREADS", "garbage", 1);
  EXPECT_EQ(resolve_thread_count(5), 5u);
}

}  // namespace
}  // namespace fastz
