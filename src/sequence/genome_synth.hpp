// Synthetic chromosome-pair generator.
//
// Real genome assemblies are not available offline, so benchmark inputs are
// synthesized with the homology structure that drives every FastZ result:
// the per-seed distribution of optimal alignment lengths (Table 2 of the
// paper). A pair is built as:
//
//   * Chromosome A: i.i.d. random DNA of the requested length.
//   * Chromosome B: a syntenic walk over A. Most of B is *unrelated* random
//     DNA (diverged beyond recognizability, like the bulk of two genomes from
//     different species); embedded in it, in syntenic order, are *homology
//     segments* copied from A through a mutation channel (substitutions with
//     transition bias, geometric-length indels).
//
// Seed hits between A and B then fall into two natural populations, exactly
// as the paper describes (Section 1: ">97% of alignments are shorter than
// 128 bp"):
//   * chance 12-of-19 matches in unrelated background -> extensions die
//     immediately (eager-traceback class, <=16 bp);
//   * seeds inside homology segments -> extensions run to the segment
//     boundary, so segment-length classes populate load-balancing bins 1-4.
//
// Segment classes are specified per species pair (per-Mbp density, length
// range, identity), which is how the per-benchmark census differences of
// Table 2 (nematodes with a long tail, fruit flies with none, cross-genus
// pairs with empty bins 3-4) are reproduced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sequence/sequence.hpp"
#include "util/prng.hpp"

namespace fastz {

// One class of conserved homology segments.
struct SegmentClass {
  double per_mbp = 0.0;        // expected segments per Mbp of chromosome A
  std::uint64_t min_len = 0;   // segment length drawn uniformly in [min, max]
  std::uint64_t max_len = 0;
  double identity = 0.9;       // per-base match probability through the channel
  // Per-class indel density; negative = use the model channel's rate.
  // Marginal homology classes use a denser rate so ungapped x-drop runs
  // terminate before reaching the HSP threshold (the Figure 2 mechanism).
  double indel_rate = -1.0;
};

// Mutation channel applied when copying a homology segment from A into B.
// The indel density matters beyond coordinate drift: it is what separates
// gapped from ungapped sensitivity (Figure 2 of the paper) — an ungapped
// x-drop extension dies at every indel, so with one indel per ~50 bp most
// diverged segments never accumulate an HSP score above the filter
// threshold, while gapped extension bridges them.
struct MutationChannel {
  double transition_bias = 0.67;  // fraction of substitutions that are transitions
  double indel_rate = 0.02;       // per-base probability of starting an indel
  double indel_extend = 0.35;     // geometric continuation probability
};

struct PairModel {
  std::uint64_t length_a = 0;  // chromosome A length in bp
  MutationChannel channel;
  std::vector<SegmentClass> segments;
  // Background (non-homologous) stretches of B are length-matched to A's
  // within +/- this jitter fraction.
  double background_jitter = 0.02;
};

// Where each homology segment landed; used by calibration tests and by the
// Figure 2 sensitivity experiment to compute recall.
struct SegmentRecord {
  std::uint64_t a_begin = 0;
  std::uint64_t a_len = 0;
  std::uint64_t b_begin = 0;
  std::uint64_t b_len = 0;
  double identity = 0.0;
};

struct SyntheticPair {
  Sequence a;
  Sequence b;
  std::vector<SegmentRecord> segments;
};

// ---- Long-tail presets (the Hirschberg linear-space path). ----------------
//
// The paper's load-balancing bins stop at 32768 bp; alignments beyond that
// edge are the "long tail" where the dense per-cell traceback rectangle
// stops fitting and the executor switches to checkpoint-bisection
// (O(n + m) resident state). These presets synthesize single-homology pairs
// whose optimal alignment is a fixed multiple of that edge — 10x, 32x and
// 100x — for the memory-ledger sweep and bench_longtail.
inline constexpr std::uint64_t kLongTailUnit = 32768;  // last bin edge

struct LongTailPreset {
  std::string label;              // "10x" | "32x" | "100x" (of kLongTailUnit)
  std::uint64_t multiple = 0;
  std::uint64_t segment_len = 0;  // multiple * kLongTailUnit, after scaling
  std::uint64_t flank = 0;        // unrelated DNA on each side of the segment
  double identity = 0.97;         // high identity keeps the y-drop band narrow
  MutationChannel channel;        // low indel rate, same reason
};

// The three presets, scaled by `scale` (1.0 = full size, smaller values for
// smoke runs; segment lengths never drop below 1024 bp).
std::vector<LongTailPreset> longtail_presets(double scale = 1.0);

// Builds A = flank | core | flank, B = flank' | mutate(core) | flank' with
// exactly one SegmentRecord (deterministic placement — the density-sampled
// generate_pair cannot guarantee a single megabase segment survives
// rejection sampling). Deterministic in `seed`.
SyntheticPair longtail_pair(const LongTailPreset& preset, std::uint64_t seed);

// Generates random DNA with uniform base composition.
Sequence random_sequence(std::string name, std::uint64_t length, Xoshiro256& rng);

// Copies `source` through the mutation channel with the given identity.
// Output length differs from input by the net indel drift.
std::vector<BaseCode> mutate_segment(std::span<const BaseCode> source, double identity,
                                     const MutationChannel& channel, Xoshiro256& rng);

// Builds a full chromosome pair from the model. Deterministic in `seed`.
SyntheticPair generate_pair(const PairModel& model, std::uint64_t seed,
                            std::string name_a = "chrA", std::string name_b = "chrB");

}  // namespace fastz
