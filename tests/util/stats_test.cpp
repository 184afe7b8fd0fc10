#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace fastz {
namespace {

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(GeometricMean, KnownValues) {
  const double vals[] = {1.0, 4.0, 16.0};
  EXPECT_NEAR(geometric_mean(vals), 4.0, 1e-12);
}

TEST(GeometricMean, RejectsNonpositive) {
  const double vals[] = {1.0, 0.0};
  EXPECT_THROW(geometric_mean(vals), std::invalid_argument);
}

TEST(GeometricMean, EmptyIsZero) { EXPECT_EQ(geometric_mean({}), 0.0); }

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> v = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> v = {0, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.5);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101), std::invalid_argument);
}

}  // namespace
}  // namespace fastz
