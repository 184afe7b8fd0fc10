// Zero-allocation steady state of the strip kernel.
//
// The per-seed hot path — strip_rectangle_dp on the score-only
// inspector shape with a caller-owned StripKernelScratch — must perform
// ZERO heap allocations once the scratch arena has warmed up to the
// rectangle size. This binary replaces the global allocation functions
// with counting versions (which is why it lives in its own test
// executable) and asserts the steady-state delta is exactly zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "fastz/strip_kernel.hpp"
#include "sequence/sequence.hpp"
#include "testing/corpus.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Counting global allocator. All forms funnel through malloc/free so the
// aligned overloads (the alignas(64) DP planes) are counted too.
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace fastz {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// One warm call grows the scratch to the rectangle's size; every further
// call on same-or-smaller rectangles must be allocation-free.
TEST(StripKernelAlloc, ScoreOnlySteadyStateAllocatesNothing) {
  const testing::FuzzCase c =
      testing::make_case_of_kind(/*seed=*/11, testing::CaseKind::kOneSidedRelated);
  ASSERT_GT(c.a.size(), 0u);
  ASSERT_GT(c.b.size(), 0u);
  const SeqView av(c.a.codes().data(), 1, c.a.size());
  const SeqView bv(c.b.codes().data(), 1, c.b.size());

  StripKernelOptions opts;
  opts.want_traceback = false;   // the inspector's score-only shape
  opts.divergence_census = false;

  StripKernelScratch scratch;
  const StripKernelResult warm = strip_rectangle_dp(av, bv, c.params, opts, scratch);

  const std::uint64_t before = allocations();
  StripKernelResult hot;
  for (int iter = 0; iter < 5; ++iter) {
    hot = strip_rectangle_dp(av, bv, c.params, opts, scratch);
  }
  const std::uint64_t delta = allocations() - before;
  EXPECT_EQ(delta, 0u) << "steady-state strip_rectangle_dp allocated " << delta
                       << " time(s)";
  EXPECT_EQ(hot.best.score, warm.best.score);
  EXPECT_EQ(hot.cells, warm.cells);
}

// The thread-local fallback overload must also be allocation-free once
// warm (same arena, shared per thread).
TEST(StripKernelAlloc, ThreadLocalScratchSteadyState) {
  const testing::FuzzCase c =
      testing::make_case_of_kind(/*seed=*/12, testing::CaseKind::kOneSidedRandom);
  const SeqView av(c.a.codes().data(), 1, c.a.size());
  const SeqView bv(c.b.codes().data(), 1, c.b.size());

  StripKernelOptions opts;
  opts.want_traceback = false;
  opts.divergence_census = false;

  (void)strip_rectangle_dp(av, bv, c.params, opts);  // warm
  const std::uint64_t before = allocations();
  (void)strip_rectangle_dp(av, bv, c.params, opts);
  (void)strip_rectangle_dp(av, bv, c.params, opts);
  EXPECT_EQ(allocations() - before, 0u);
}

}  // namespace
}  // namespace fastz
