#include "fastz/inspector.hpp"

#include <gtest/gtest.h>

#include "align/extension.hpp"
#include "testing/test_sequences.hpp"

namespace fastz {
namespace {

using testing::random_dna;
using testing::related_pair;

struct Fixture {
  Sequence a;
  Sequence b;
  SeedHit hit;
};

Fixture homologous_fixture(std::uint64_t seed, std::size_t len = 800,
                           double identity = 0.9) {
  auto [a, b] = related_pair(len, identity, seed);
  const auto mid = static_cast<std::uint32_t>(std::min(a.size(), b.size()) / 2);
  return {std::move(a), std::move(b), SeedHit{mid, mid}};
}

Fixture unrelated_fixture(std::uint64_t seed) {
  Sequence a = random_dna(2000, seed);
  Sequence b = random_dna(2000, seed ^ 0xffffu);
  return {std::move(a), std::move(b), SeedHit{1000, 1000}};
}

TEST(Inspector, FindsSameOptimumAsConservativeOracle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Fixture f = homologous_fixture(seed);
    const ScoreParams p = lastz_default_params();

    const SeedInspection ins = inspect_seed(f.a, f.b, f.hit, 19, p, FastzConfig::full());

    // Oracle: conservative-mode two-sided extension.
    OneSidedOptions opts;
    opts.prune = PruneMode::kConservative;
    const GappedExtension oracle = extend_seed(f.a, f.b, f.hit, 19, p, opts);

    EXPECT_EQ(ins.left.best.score, oracle.left.best.score) << "seed " << seed;
    EXPECT_EQ(ins.left.best.i, oracle.left.best.i) << "seed " << seed;
    EXPECT_EQ(ins.left.best.j, oracle.left.best.j) << "seed " << seed;
    EXPECT_EQ(ins.right.best.score, oracle.right.best.score) << "seed " << seed;
    EXPECT_EQ(ins.right.best.i, oracle.right.best.i) << "seed " << seed;
    EXPECT_EQ(ins.right.best.j, oracle.right.best.j) << "seed " << seed;
    EXPECT_EQ(ins.score, oracle.alignment.score) << "seed " << seed;
  }
}

TEST(Inspector, UnrelatedSeedsAreEager) {
  int eager_count = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Fixture f = unrelated_fixture(seed);
    const SeedInspection ins =
        inspect_seed(f.a, f.b, f.hit, 19, lastz_default_params(), FastzConfig::full());
    eager_count += ins.eager ? 1 : 0;
  }
  // Chance 19-mers in unrelated DNA essentially always die inside the tile.
  EXPECT_GE(eager_count, 17);
}

TEST(Inspector, HomologousSeedIsNotEager) {
  const Fixture f = homologous_fixture(3);
  const SeedInspection ins =
      inspect_seed(f.a, f.b, f.hit, 19, lastz_default_params(), FastzConfig::full());
  EXPECT_FALSE(ins.eager);
  EXPECT_GT(ins.box(), 16u);
}

TEST(Inspector, EagerAlignmentRescoresCorrectly) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Fixture f = unrelated_fixture(seed * 31);
    const ScoreParams p = lastz_default_params();
    const SeedInspection ins = inspect_seed(f.a, f.b, f.hit, 19, p, FastzConfig::full());
    if (!ins.eager) continue;
    EXPECT_EQ(rescore_alignment(ins.alignment, f.a, f.b, p), ins.alignment.score)
        << "seed " << seed;
    EXPECT_EQ(ins.alignment.score, ins.score);
    EXPECT_LE(ins.alignment.a_end - ins.alignment.a_begin, 32u);
  }
}

TEST(Inspector, EagerDisabledNeverSetsFlag) {
  FastzConfig config = FastzConfig::full();
  config.eager_traceback = false;
  const Fixture f = unrelated_fixture(77);
  const SeedInspection ins =
      inspect_seed(f.a, f.b, f.hit, 19, lastz_default_params(), config);
  EXPECT_FALSE(ins.eager);
  EXPECT_TRUE(ins.alignment.ops.empty());
}

TEST(Inspector, GeometryCoversSearchSpace) {
  const Fixture f = homologous_fixture(5);
  const SeedInspection ins =
      inspect_seed(f.a, f.b, f.hit, 19, lastz_default_params(), FastzConfig::full());
  // Warp steps must be at least cells/32 (perfect packing bound) and carry
  // fill overhead beyond it.
  EXPECT_GE(ins.warp_steps() * kWarpWidth, ins.search_cells());
  EXPECT_GT(ins.left.geom.strips + ins.right.geom.strips, 0u);
}

TEST(StripGeometryFromBounds, HandBuiltRegion) {
  // 3 rows spanning columns [0,40): strips 0 and 1; strip 0 has 3 rows,
  // strip 1 has 3 rows (all rows reach column 39).
  std::vector<RowBounds> bounds = {{0, 40}, {0, 40}, {0, 40}};
  const StripGeometry g = strip_geometry_from_bounds(bounds);
  EXPECT_EQ(g.strips, 2u);
  EXPECT_EQ(g.warp_steps, (3u + 32u) * 2);
  EXPECT_EQ(g.spill_cells, 3u);  // strip 0 is interior
}

TEST(StripGeometryFromBounds, NarrowRegionSingleStrip) {
  std::vector<RowBounds> bounds = {{0, 10}, {2, 12}, {4, 14}};
  const StripGeometry g = strip_geometry_from_bounds(bounds);
  EXPECT_EQ(g.strips, 1u);
  EXPECT_EQ(g.spill_cells, 0u);
}

TEST(StripGeometryFromBounds, EmptyRegion) {
  const StripGeometry g = strip_geometry_from_bounds({});
  EXPECT_EQ(g.warp_steps, 0u);
  EXPECT_EQ(g.strips, 0u);
}

TEST(StripGeometryFromBounds, DriftingBandTouchesManyStrips) {
  // A band drifting right by 8 columns per row over 128 rows crosses
  // several strips; every interior strip must spill once per touching row.
  std::vector<RowBounds> bounds;
  for (std::uint32_t r = 0; r < 128; ++r) bounds.push_back({r * 8, r * 8 + 64});
  const StripGeometry g = strip_geometry_from_bounds(bounds);
  EXPECT_GT(g.strips, 30u);
  EXPECT_GT(g.spill_cells, 0u);
  std::uint64_t row_strip_touches = 0;
  for (const RowBounds& rb : bounds) {
    row_strip_touches += (rb.hi - 1) / 32 - rb.lo / 32 + 1;
  }
  EXPECT_EQ(g.warp_steps, row_strip_touches + g.strips * 32);
}

}  // namespace
}  // namespace fastz
