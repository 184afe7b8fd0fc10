#include "sequence/genome_synth.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fastz {

Sequence random_sequence(std::string name, std::uint64_t length, Xoshiro256& rng) {
  std::vector<BaseCode> bases(length);
  for (auto& b : bases) b = static_cast<BaseCode>(rng.below(4));
  return Sequence(std::move(name), std::move(bases));
}

std::vector<BaseCode> mutate_segment(std::span<const BaseCode> source, double identity,
                                     const MutationChannel& channel, Xoshiro256& rng) {
  if (identity < 0.0 || identity > 1.0) {
    throw std::invalid_argument("mutate_segment: identity out of [0,1]");
  }
  std::vector<BaseCode> out;
  out.reserve(source.size() + source.size() / 16);
  const double sub_rate = 1.0 - identity;
  for (std::size_t i = 0; i < source.size(); ++i) {
    // Indel events: insertion adds random bases, deletion skips source bases.
    if (rng.chance(channel.indel_rate)) {
      const std::uint64_t len = rng.geometric(1.0 - channel.indel_extend, 64);
      if (rng.chance(0.5)) {
        for (std::uint64_t k = 0; k < len; ++k) {
          out.push_back(static_cast<BaseCode>(rng.below(4)));
        }
      } else {
        i += len - 1;  // deletion: consume `len` source bases (incl. this one)
        continue;
      }
    }
    BaseCode base = source[i];
    if (rng.chance(sub_rate)) {
      if (rng.chance(channel.transition_bias)) {
        base = transition_of(base);
      } else {
        // Transversion: pick one of the two bases in the other purine /
        // pyrimidine class.
        const BaseCode options[2] = {complement(base),
                                     transition_of(complement(base))};
        base = options[rng.below(2)];
      }
    }
    out.push_back(base);
  }
  return out;
}

namespace {

// Segment count for an expected value: deterministic floor plus a Bernoulli
// remainder. Low-variance on purpose — the benchmark suite's per-pair
// ordering (Table 2's bin-4 column) should reflect the configured densities,
// not Poisson luck on a single draw.
std::uint64_t sample_count(double mean, Xoshiro256& rng) {
  if (mean <= 0.0) return 0;
  const double base = std::floor(mean);
  return static_cast<std::uint64_t>(base) + (rng.chance(mean - base) ? 1 : 0);
}

struct PlannedSegment {
  std::uint64_t a_begin = 0;
  std::uint64_t a_len = 0;
  double identity = 0.0;
  double indel_rate = -1.0;  // negative = model channel default
};

// Samples non-overlapping segment placements on chromosome A, sorted by
// position. Densities are low (a few percent occupancy) so rejection
// sampling terminates quickly; a deterministic bailout guards degenerate
// configurations.
std::vector<PlannedSegment> plan_segments(const PairModel& model, Xoshiro256& rng) {
  std::vector<PlannedSegment> planned;
  const double mbp = static_cast<double>(model.length_a) / 1e6;
  for (const auto& cls : model.segments) {
    if (cls.min_len > cls.max_len) {
      throw std::invalid_argument("SegmentClass: min_len > max_len");
    }
    const std::uint64_t count = sample_count(cls.per_mbp * mbp, rng);
    for (std::uint64_t k = 0; k < count; ++k) {
      const std::uint64_t len =
          cls.min_len + rng.below(cls.max_len - cls.min_len + 1);
      if (len == 0 || len >= model.length_a) continue;
      bool placed = false;
      for (int attempt = 0; attempt < 64 && !placed; ++attempt) {
        const std::uint64_t begin = rng.below(model.length_a - len);
        const bool overlaps = std::any_of(
            planned.begin(), planned.end(), [&](const PlannedSegment& s) {
              return begin < s.a_begin + s.a_len && s.a_begin < begin + len;
            });
        if (!overlaps) {
          planned.push_back({begin, len, cls.identity, cls.indel_rate});
          placed = true;
        }
      }
      // If placement failed 64 times the chromosome is saturated; dropping
      // the segment is the right degradation (occupancy cap).
    }
  }
  std::sort(planned.begin(), planned.end(),
            [](const PlannedSegment& x, const PlannedSegment& y) {
              return x.a_begin < y.a_begin;
            });
  return planned;
}

}  // namespace

std::vector<LongTailPreset> longtail_presets(double scale) {
  if (scale <= 0.0) {
    throw std::invalid_argument("longtail_presets: scale must be positive");
  }
  std::vector<LongTailPreset> presets;
  for (const std::uint64_t multiple : {std::uint64_t{10}, std::uint64_t{32},
                                       std::uint64_t{100}}) {
    LongTailPreset p;
    p.label = std::to_string(multiple) + "x";
    p.multiple = multiple;
    p.segment_len = std::max<std::uint64_t>(
        1024, static_cast<std::uint64_t>(
                  std::llround(static_cast<double>(multiple * kLongTailUnit) * scale)));
    p.flank = std::clamp<std::uint64_t>(p.segment_len / 32, 256, 8192);
    p.channel.indel_rate = 0.0005;
    p.channel.indel_extend = 0.3;
    presets.push_back(std::move(p));
  }
  return presets;
}

SyntheticPair longtail_pair(const LongTailPreset& preset, std::uint64_t seed) {
  if (preset.segment_len == 0) {
    throw std::invalid_argument("longtail_pair: zero segment length");
  }
  Xoshiro256 rng(seed);
  SyntheticPair pair;
  pair.a = random_sequence("longtailA",
                           preset.segment_len + 2 * preset.flank, rng);

  std::vector<BaseCode> b;
  b.reserve(pair.a.size() + pair.a.size() / 64);
  for (std::uint64_t k = 0; k < preset.flank; ++k) {
    b.push_back(static_cast<BaseCode>(rng.below(4)));
  }
  const std::uint64_t b_begin = b.size();
  const auto core = pair.a.codes(preset.flank, preset.segment_len);
  auto mutated = mutate_segment(core, preset.identity, preset.channel, rng);
  b.insert(b.end(), mutated.begin(), mutated.end());
  pair.segments.push_back({preset.flank, preset.segment_len, b_begin,
                           b.size() - b_begin, preset.identity});
  for (std::uint64_t k = 0; k < preset.flank; ++k) {
    b.push_back(static_cast<BaseCode>(rng.below(4)));
  }
  pair.b = Sequence("longtailB", std::move(b));
  return pair;
}

SyntheticPair generate_pair(const PairModel& model, std::uint64_t seed,
                            std::string name_a, std::string name_b) {
  if (model.length_a == 0) throw std::invalid_argument("generate_pair: zero length");
  Xoshiro256 rng(seed);
  SyntheticPair pair;
  pair.a = random_sequence(std::move(name_a), model.length_a, rng);

  const auto planned = plan_segments(model, rng);

  std::vector<BaseCode> b;
  b.reserve(model.length_a + model.length_a / 16);
  std::uint64_t cursor = 0;  // position in A

  auto emit_background = [&](std::uint64_t a_span) {
    // Unrelated DNA, length-matched to the corresponding stretch of A with a
    // small jitter so coordinates drift like real assemblies do.
    const double jitter =
        1.0 + model.background_jitter * (2.0 * rng.uniform() - 1.0);
    const auto len = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(a_span) * jitter));
    for (std::uint64_t k = 0; k < len; ++k) {
      b.push_back(static_cast<BaseCode>(rng.below(4)));
    }
  };

  for (const auto& seg : planned) {
    if (seg.a_begin > cursor) emit_background(seg.a_begin - cursor);
    const std::uint64_t b_begin = b.size();
    MutationChannel channel = model.channel;
    if (seg.indel_rate >= 0.0) channel.indel_rate = seg.indel_rate;
    auto mutated =
        mutate_segment(pair.a.codes(seg.a_begin, seg.a_len), seg.identity, channel, rng);
    b.insert(b.end(), mutated.begin(), mutated.end());
    pair.segments.push_back({seg.a_begin, seg.a_len, b_begin,
                             b.size() - b_begin, seg.identity});
    cursor = seg.a_begin + seg.a_len;
  }
  if (cursor < model.length_a) emit_background(model.length_a - cursor);

  pair.b = Sequence(std::move(name_b), std::move(b));
  return pair;
}

}  // namespace fastz
