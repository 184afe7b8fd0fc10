#include "multicore/multicore_lastz.hpp"

#include <gtest/gtest.h>

#include "sequence/genome_synth.hpp"

namespace fastz {
namespace {

SyntheticPair make_pair(std::uint64_t seed = 31) {
  PairModel model;
  model.length_a = 30000;
  model.segments = {{120.0, 200, 600, 0.9}};
  return generate_pair(model, seed);
}

ScoreParams params() {
  ScoreParams p = lastz_default_params();
  p.ydrop = 2000;
  return p;
}

void expect_same_alignments(const std::vector<Alignment>& x,
                            const std::vector<Alignment>& y) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_EQ(x[k].a_begin, y[k].a_begin);
    EXPECT_EQ(x[k].a_end, y[k].a_end);
    EXPECT_EQ(x[k].b_begin, y[k].b_begin);
    EXPECT_EQ(x[k].b_end, y[k].b_end);
    EXPECT_EQ(x[k].score, y[k].score);
    EXPECT_EQ(x[k].ops, y[k].ops);
  }
}

TEST(Multicore, MatchesSequentialOutput) {
  const SyntheticPair pair = make_pair();
  const ScoreParams p = params();

  const PipelineResult seq = run_lastz(pair.a, pair.b, p);
  for (std::size_t threads : {1u, 2u, 4u}) {
    MulticoreOptions mc;
    mc.threads = threads;
    const MulticoreResult result = run_multicore_lastz(pair.a, pair.b, p, {}, mc);
    expect_same_alignments(result.alignments, seq.alignments);
    EXPECT_EQ(result.counters.dp_cells, seq.counters.dp_cells) << threads;
  }
}

TEST(Multicore, ModeledTimeIsFasterThanSequentialModel) {
  const SyntheticPair pair = make_pair(33);
  MulticoreOptions mc;
  mc.threads = 1;
  const MulticoreResult result = run_multicore_lastz(pair.a, pair.b, params(), {}, mc);
  const double seq_model =
      gpusim::sequential_lastz_time_s(result.counters.dp_cells, gpusim::ryzen_3950x());
  EXPECT_LT(result.modeled_time_s, seq_model);
  EXPECT_NEAR(seq_model / result.modeled_time_s, 20.0, 4.0);  // the paper's 20x
}

TEST(Multicore, RespectsSeedCap) {
  const SyntheticPair pair = make_pair(35);
  PipelineOptions options;
  options.max_seeds = 50;
  MulticoreOptions mc;
  mc.threads = 2;
  const MulticoreResult result =
      run_multicore_lastz(pair.a, pair.b, params(), options, mc);
  EXPECT_LE(result.counters.seed_hits, 50u);
}

}  // namespace
}  // namespace fastz
