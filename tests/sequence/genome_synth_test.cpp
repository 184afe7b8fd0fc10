#include "sequence/genome_synth.hpp"

#include <gtest/gtest.h>

namespace fastz {
namespace {

TEST(GenomeSynth, RandomSequenceHasUniformComposition) {
  Xoshiro256 rng(1);
  const Sequence s = random_sequence("r", 40000, rng);
  std::array<int, 4> counts{};
  for (std::size_t i = 0; i < s.size(); ++i) ++counts[s[i]];
  for (int c : counts) EXPECT_NEAR(c / 40000.0, 0.25, 0.02);
}

TEST(GenomeSynth, MutateSegmentIdentityMatchesTarget) {
  Xoshiro256 rng(2);
  const Sequence src = random_sequence("s", 20000, rng);
  MutationChannel channel;
  channel.indel_rate = 0.0;  // isolate substitutions
  const auto out = mutate_segment(src.codes(), 0.8, channel, rng);
  ASSERT_EQ(out.size(), src.size());
  int matches = 0;
  for (std::size_t i = 0; i < out.size(); ++i) matches += (out[i] == src[i]) ? 1 : 0;
  EXPECT_NEAR(matches / 20000.0, 0.8, 0.02);
}

TEST(GenomeSynth, MutateSegmentTransitionBias) {
  Xoshiro256 rng(3);
  const Sequence src = random_sequence("s", 50000, rng);
  MutationChannel channel;
  channel.indel_rate = 0.0;
  channel.transition_bias = 0.67;
  const auto out = mutate_segment(src.codes(), 0.7, channel, rng);
  int transitions = 0, transversions = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] == src[i]) continue;
    if (is_transition(src[i], out[i])) {
      ++transitions;
    } else {
      ++transversions;
    }
  }
  const double frac =
      static_cast<double>(transitions) / static_cast<double>(transitions + transversions);
  EXPECT_NEAR(frac, 0.67, 0.03);
}

TEST(GenomeSynth, IndelsChangeLength) {
  Xoshiro256 rng(4);
  const Sequence src = random_sequence("s", 10000, rng);
  MutationChannel channel;
  channel.indel_rate = 0.01;
  const auto out = mutate_segment(src.codes(), 0.9, channel, rng);
  EXPECT_NE(out.size(), src.size());
  // Net drift is balanced in expectation; stay within 5%.
  EXPECT_NEAR(static_cast<double>(out.size()) / src.size(), 1.0, 0.05);
}

TEST(GenomeSynth, GeneratePairIsDeterministic) {
  PairModel model;
  model.length_a = 20000;
  model.segments = {{100.0, 100, 300, 0.9}};
  const SyntheticPair p1 = generate_pair(model, 99);
  const SyntheticPair p2 = generate_pair(model, 99);
  EXPECT_EQ(p1.a.to_string(), p2.a.to_string());
  EXPECT_EQ(p1.b.to_string(), p2.b.to_string());
  EXPECT_EQ(p1.segments.size(), p2.segments.size());
}

TEST(GenomeSynth, DifferentSeedsDiffer) {
  PairModel model;
  model.length_a = 5000;
  const SyntheticPair p1 = generate_pair(model, 1);
  const SyntheticPair p2 = generate_pair(model, 2);
  EXPECT_NE(p1.a.to_string(), p2.a.to_string());
}

TEST(GenomeSynth, SegmentsAreSyntenicAndInBounds) {
  PairModel model;
  model.length_a = 50000;
  model.segments = {{120.0, 200, 800, 0.88}};
  const SyntheticPair p = generate_pair(model, 17);
  ASSERT_FALSE(p.segments.empty());
  std::uint64_t prev_a = 0, prev_b = 0;
  for (const SegmentRecord& seg : p.segments) {
    EXPECT_GE(seg.a_begin, prev_a);       // syntenic order
    EXPECT_GE(seg.b_begin, prev_b);
    EXPECT_LE(seg.a_begin + seg.a_len, p.a.size());
    EXPECT_LE(seg.b_begin + seg.b_len, p.b.size());
    prev_a = seg.a_begin + seg.a_len;
    prev_b = seg.b_begin + seg.b_len;
  }
}

TEST(GenomeSynth, SegmentContentActuallyHomologous) {
  PairModel model;
  model.length_a = 30000;
  model.segments = {{80.0, 400, 800, 0.9}};
  const SyntheticPair p = generate_pair(model, 23);
  ASSERT_FALSE(p.segments.empty());
  const SegmentRecord& seg = p.segments.front();
  // Sample the first min-length prefix; with indels the sequences shift,
  // so compare coarse identity over a short window which indels rarely hit.
  const std::size_t window = 50;
  int matches = 0;
  for (std::size_t k = 0; k < window; ++k) {
    matches += (p.a[seg.a_begin + k] == p.b[seg.b_begin + k]) ? 1 : 0;
  }
  EXPECT_GT(matches, 30);  // ~90% identity vs 25% for unrelated
}

TEST(GenomeSynth, BackgroundIsUnrelated) {
  PairModel model;
  model.length_a = 20000;  // no segments at all
  const SyntheticPair p = generate_pair(model, 29);
  EXPECT_TRUE(p.segments.empty());
  // Same-coordinate identity should be ~25%.
  const std::size_t n = std::min(p.a.size(), p.b.size());
  int matches = 0;
  for (std::size_t k = 0; k < n; ++k) matches += (p.a[k] == p.b[k]) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(matches) / n, 0.25, 0.03);
}

TEST(GenomeSynth, LongtailPresetsScaleFromTheBinEdge) {
  const auto full = longtail_presets();
  ASSERT_EQ(full.size(), 3u);
  EXPECT_EQ(full[0].label, "10x");
  EXPECT_EQ(full[1].label, "32x");
  EXPECT_EQ(full[2].label, "100x");
  for (const LongTailPreset& p : full) {
    EXPECT_EQ(p.segment_len, p.multiple * kLongTailUnit);
    EXPECT_GT(p.flank, 0u);
    // The band-narrowing knobs the sweep depends on: high identity, sparse
    // indels.
    EXPECT_GE(p.identity, 0.95);
    EXPECT_LE(p.channel.indel_rate, 0.001);
  }
  // Scaling shrinks proportionally but never below the 1024 bp floor.
  const auto small = longtail_presets(0.01);
  EXPECT_EQ(small[2].segment_len,
            static_cast<std::uint64_t>(100 * kLongTailUnit * 0.01));
  EXPECT_GE(small[0].segment_len, 1024u);
  EXPECT_THROW(longtail_presets(0.0), std::invalid_argument);
}

TEST(GenomeSynth, LongtailPairHasExactlyOneSegment) {
  auto presets = longtail_presets(0.02);  // 10x -> ~6.5 kbp, fast
  const SyntheticPair p = longtail_pair(presets[0], 11);
  ASSERT_EQ(p.segments.size(), 1u);
  const SegmentRecord& seg = p.segments[0];
  EXPECT_EQ(seg.a_begin, presets[0].flank);
  EXPECT_EQ(seg.a_len, presets[0].segment_len);
  EXPECT_EQ(seg.b_begin, presets[0].flank);
  // Net indel drift at rate 5e-4 stays within a few percent.
  EXPECT_NEAR(static_cast<double>(seg.b_len), static_cast<double>(seg.a_len),
              0.05 * static_cast<double>(seg.a_len));
  EXPECT_EQ(p.a.size(), presets[0].segment_len + 2 * presets[0].flank);
  EXPECT_EQ(p.b.size(), seg.b_len + 2 * presets[0].flank);

  // Deterministic in the seed.
  const SyntheticPair q = longtail_pair(presets[0], 11);
  EXPECT_EQ(p.a.to_string(), q.a.to_string());
  EXPECT_EQ(p.b.to_string(), q.b.to_string());
  const SyntheticPair r = longtail_pair(presets[0], 12);
  EXPECT_NE(p.b.to_string(), r.b.to_string());
}

TEST(GenomeSynth, ZeroLengthThrows) {
  PairModel model;
  EXPECT_THROW(generate_pair(model, 1), std::invalid_argument);
}

TEST(GenomeSynth, BadIdentityThrows) {
  Xoshiro256 rng(5);
  const Sequence src = random_sequence("s", 100, rng);
  MutationChannel channel;
  EXPECT_THROW(mutate_segment(src.codes(), 1.5, channel, rng), std::invalid_argument);
}

}  // namespace
}  // namespace fastz
