#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace fastz::telemetry {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, CounterIdentityByName) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  Counter& other = reg.counter("y");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.counter_count(), 2u);
}

TEST(MetricsRegistry, ConcurrentRegistrationAndIncrement) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Every thread resolves the same names; creation must race safely.
      Counter& c = reg.counter("shared.counter");
      QuantileSketch& q = reg.sketch("shared.sketch");
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        q.record(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("shared.counter").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(reg.sketch("shared.sketch").count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, SnapshotsAreSortedAndComplete) {
  MetricsRegistry reg;
  reg.counter("b").add(2);
  reg.counter("a").add(1);
  reg.sketch("s").record(10);
  const auto counters = reg.counter_snapshot();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "a");
  EXPECT_EQ(counters[0].second, 1u);
  EXPECT_EQ(counters[1].first, "b");
  const auto sketches = reg.sketch_snapshot();
  ASSERT_EQ(sketches.size(), 1u);
  EXPECT_EQ(sketches[0].first, "s");
  EXPECT_EQ(sketches[0].second.count, 1u);
  EXPECT_EQ(sketches[0].second.max, 10u);
}

TEST(MetricsRegistry, ResetValuesKeepsRegistrations) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  c.add(5);
  QuantileSketch& q = reg.sketch("s");
  q.record(9);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);  // cached pointers survive
  EXPECT_EQ(q.count(), 0u);
  EXPECT_EQ(&reg.sketch("s"), &q);
  EXPECT_EQ(reg.counter_count(), 1u);
  EXPECT_EQ(reg.sketch_snapshot().size(), 1u);
}

}  // namespace
}  // namespace fastz::telemetry
