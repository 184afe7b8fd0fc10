#include "fastz/multi_gpu.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "sequence/genome_synth.hpp"

namespace fastz {
namespace {

const FastzStudy& study() {
  static const SyntheticPair pair = [] {
    PairModel model;
    model.length_a = 90000;
    model.segments = {{15.0, 200, 500, 0.9}, {5.0, 600, 1500, 0.7}};
    return generate_pair(model, 5);
  }();
  static const FastzStudy s(pair.a, pair.b, [] {
    ScoreParams p = lastz_default_params();
    p.ydrop = 2000;
    return p;
  }());
  return s;
}

TEST(MultiGpu, OneDeviceEqualsSingleRun) {
  const auto device = gpusim::rtx3080_ampere();
  const gpusim::MultiGpuRun one =
      gpusim::model_multi_gpu(study(), FastzConfig::full(), device, 1);
  EXPECT_EQ(one.devices, 1u);
  EXPECT_NEAR(one.speedup_vs_single, 1.0, 1e-9);
  EXPECT_NEAR(one.efficiency, 1.0, 1e-9);
}

TEST(MultiGpu, ShardsPartitionSeedsExactly) {
  const auto device = gpusim::rtx3080_ampere();
  const FastzConfig config = FastzConfig::full();
  const FastzRun whole = study().derive(config, device);
  std::uint64_t sharded_seeds = 0;
  std::uint64_t sharded_cells = 0;
  for (std::uint32_t shard = 0; shard < 4; ++shard) {
    const FastzRun run = study().derive(config, device, 4, shard);
    sharded_seeds += run.seeds;
    sharded_cells += run.inspector_cells;
  }
  EXPECT_EQ(sharded_seeds, whole.seeds);
  EXPECT_EQ(sharded_cells, whole.inspector_cells);
}

TEST(MultiGpu, ScalingIsMonotoneWithDiminishingReturns) {
  const auto device = gpusim::rtx3080_ampere();
  const auto runs = gpusim::multi_gpu_scaling(study(), FastzConfig::full(), device,
                                              {1, 2, 4, 8});
  ASSERT_EQ(runs.size(), 4u);
  for (std::size_t k = 1; k < runs.size(); ++k) {
    EXPECT_LE(runs[k].time_s, runs[k - 1].time_s + 1e-12);
    EXPECT_GE(runs[k].speedup_vs_single, runs[k - 1].speedup_vs_single - 1e-9);
  }
  // Efficiency degrades: fixed host costs and long-alignment tails do not
  // shard (the same reason the paper defers but expects easy scaling).
  EXPECT_LT(runs.back().efficiency, 1.0);
  EXPECT_GT(runs.back().speedup_vs_single, 1.2);
}

TEST(ShardSet, RejectsEmptySet) {
  EXPECT_THROW(gpusim::ShardSet(0, gpusim::titan_x_pascal()), std::invalid_argument);
}

TEST(ShardSet, ImbalanceIsMaxOverMean) {
  gpusim::ShardSet shards(2, gpusim::titan_x_pascal());
  EXPECT_DOUBLE_EQ(shards.imbalance(), 0.0);  // idle fleet
  shards.charge(0, 1.0);
  shards.charge(1, 3.0);
  EXPECT_DOUBLE_EQ(shards.busy_s(1), 3.0);
  EXPECT_DOUBLE_EQ(shards.imbalance(), 1.5);  // max 3 / mean 2
}

TEST(ShardSet, ChargeOutOfRangeThrows) {
  gpusim::ShardSet shards(2, gpusim::titan_x_pascal());
  EXPECT_THROW(shards.charge(2, 1.0), std::out_of_range);
  EXPECT_THROW(shards.busy_s(5), std::out_of_range);
}

TEST(ShardSet, ConcurrentChargesAllLand) {
  gpusim::ShardSet shards(4, gpusim::titan_x_pascal());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&shards, t] {
      for (int i = 0; i < 1000; ++i) shards.charge(t, 0.001);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_NEAR(shards.total_busy_s(), 4.0, 1e-9);
  EXPECT_NEAR(shards.imbalance(), 1.0, 1e-9);
}

TEST(MultiGpu, PerDeviceTimesAreBalanced) {
  // Round-robin sharding interleaves long and short seeds, so shard times
  // should be within a small factor of each other.
  const auto device = gpusim::rtx3080_ampere();
  const gpusim::MultiGpuRun run =
      gpusim::model_multi_gpu(study(), FastzConfig::full(), device, 4);
  const double lo = *std::min_element(run.per_device_s.begin(), run.per_device_s.end());
  const double hi = *std::max_element(run.per_device_s.begin(), run.per_device_s.end());
  EXPECT_LT(hi / lo, 3.0);
}

}  // namespace
}  // namespace fastz
