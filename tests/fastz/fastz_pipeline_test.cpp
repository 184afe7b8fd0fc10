#include "fastz/fastz_pipeline.hpp"

#include <gtest/gtest.h>

#include "gpusim/profiler.hpp"
#include "sequence/genome_synth.hpp"

namespace fastz {
namespace {

SyntheticPair test_pair(std::uint64_t seed = 7) {
  // Background-dominated census, like the paper's workloads: chance seed
  // hits scale with length^2 (~600 here), homology-island hits with length
  // (~100 here), so eager-tile seeds form the majority.
  PairModel model;
  model.length_a = 100000;
  model.segments = {
      {10.0, 200, 500, 0.9},  // bin-1-ish homology islands
      {3.0, 600, 1200, 0.8},  // occasional bin-2 segment
  };
  return generate_pair(model, seed);
}

const gpusim::DeviceSpec kAmpere = gpusim::rtx3080_ampere();

// Scaled-down y-drop matching the synthetic chromosome scale (the bench
// harness default; LASTZ's 9400 explores ~1M cells per seed).
ScoreParams test_ydrop_params() {
  ScoreParams p = lastz_default_params();
  p.ydrop = 2000;
  return p;
}

// The functional pass is the expensive part; share one per workload across
// the whole file.
struct SharedWorkload {
  SyntheticPair pair = test_pair();
  FastzStudy study{pair.a, pair.b, test_ydrop_params()};
};

const SharedWorkload& shared() {
  static const SharedWorkload w;
  return w;
}

TEST(FastzPipeline, AlignmentsMatchDerivedRunsRegardlessOfConfig) {
  const FastzStudy& study = shared().study;
  // Functional alignments are config-independent; derive() only models cost.
  const FastzRun full = study.derive(FastzConfig::full(), kAmpere);
  const FastzRun base = study.derive(FastzConfig::load_balance_only(), kAmpere);
  EXPECT_EQ(full.seeds, base.seeds);
  EXPECT_EQ(full.census.total, base.census.total);
}

TEST(FastzPipeline, CensusHasEagerMajority) {
  const BinCensus census = shared().study.census();
  EXPECT_GT(census.total, 500u);
  // Most seed hits are chance matches in unrelated background.
  EXPECT_GT(census.eager_fraction(), 0.5);
  // Census accounting is exact.
  std::uint64_t sum = census.eager + census.overflow;
  for (auto b : census.bins) sum += b;
  EXPECT_EQ(sum, census.total);
}

TEST(FastzPipeline, EagerEliminatesExecutorTasks) {
  const FastzStudy& study = shared().study;

  FastzConfig with_eager = FastzConfig::full();
  FastzConfig no_eager = FastzConfig::full();
  no_eager.eager_traceback = false;

  const FastzRun e = study.derive(with_eager, kAmpere);
  const FastzRun n = study.derive(no_eager, kAmpere);

  EXPECT_EQ(e.eager_handled + e.executor_tasks, e.seeds);
  EXPECT_EQ(n.eager_handled, 0u);
  EXPECT_EQ(n.executor_tasks, n.seeds);
  EXPECT_LT(e.executor_tasks, n.executor_tasks);
}

TEST(FastzPipeline, CyclicBuffersEliminateScoreTraffic) {
  const FastzStudy& study = shared().study;

  FastzConfig cyclic = FastzConfig::full();
  FastzConfig spilled = FastzConfig::full();
  spilled.cyclic_buffers = false;

  const FastzRun c = study.derive(cyclic, kAmpere);
  const FastzRun s = study.derive(spilled, kAmpere);

  EXPECT_EQ(c.ledger.score_read_bytes, 0u);
  EXPECT_EQ(c.ledger.score_write_bytes, 0u);
  EXPECT_GT(s.ledger.score_read_bytes, 0u);
  // Section 3.2: cyclic buffering eliminates >90% of the score traffic.
  const double c_score_bytes = static_cast<double>(c.ledger.boundary_spill_bytes);
  const double s_score_bytes =
      static_cast<double>(s.ledger.score_read_bytes + s.ledger.score_write_bytes);
  EXPECT_LT(c_score_bytes, 0.1 * s_score_bytes);
}

TEST(FastzPipeline, TrimmingReducesExecutorCells) {
  const FastzStudy& study = shared().study;

  FastzConfig trimmed = FastzConfig::full();
  FastzConfig untrimmed = FastzConfig::full();
  untrimmed.executor_trimming = false;

  const FastzRun t = study.derive(trimmed, kAmpere);
  const FastzRun u = study.derive(untrimmed, kAmpere);
  EXPECT_LT(t.executor_cells, u.executor_cells);
}

TEST(FastzPipeline, ProgressiveOptimizationsImproveModeledTime) {
  // The Figure 9 ladder must be monotone: each added optimization reduces
  // the modeled time.
  const FastzStudy& study = shared().study;

  FastzConfig base = FastzConfig::load_balance_only();
  FastzConfig cyc = base;
  cyc.with_cyclic_buffers();
  FastzConfig eag = cyc;
  eag.with_eager_traceback();
  FastzConfig trim = eag;
  trim.with_executor_trimming();  // == full FastZ

  const double t_base = study.derive(base, kAmpere).modeled.total_s();
  const double t_cyc = study.derive(cyc, kAmpere).modeled.total_s();
  const double t_eag = study.derive(eag, kAmpere).modeled.total_s();
  const double t_trim = study.derive(trim, kAmpere).modeled.total_s();

  EXPECT_LT(t_cyc, t_base);
  EXPECT_LT(t_eag, t_cyc);
  EXPECT_LT(t_trim, t_eag);

  // Single stream is never faster than 32 streams (the penalty itself needs
  // long-alignment tails in multiple chunks — exercised by the kernel-sim
  // stream test and the Figure 9 bench; this workload is too small/uniform
  // to produce one).
  FastzConfig single = trim;
  single.streams = 1;
  const double t_single = study.derive(single, kAmpere).modeled.total_s();
  EXPECT_GE(t_single, t_trim);
}

TEST(FastzPipeline, ReportedAlignmentsClearThresholdAndValidate) {
  const SharedWorkload& w = shared();
  const ScoreParams p = test_ydrop_params();
  EXPECT_FALSE(w.study.alignments().empty());
  for (const Alignment& aln : w.study.alignments()) {
    EXPECT_GE(aln.score, p.gapped_threshold);
    EXPECT_EQ(rescore_alignment(aln, w.pair.a, w.pair.b, p), aln.score);
  }
}

TEST(FastzPipeline, InspectorDominatesModeledBreakdown) {
  // Figure 8: the inspector is the largest component of the full config.
  const FastzRun run = shared().study.derive(FastzConfig::full(), kAmpere);
  EXPECT_GT(run.modeled.inspector_s, run.modeled.executor_s);
}

TEST(FastzPipeline, MemoryBudgetSplitsExecutorKernels) {
  // A device with tiny memory cannot hold a bin's traceback allocations at
  // once: the executor splits into more kernels and, since the batches
  // contend for the allocation, runs no faster than the roomy device.
  const FastzStudy& study = shared().study;
  const FastzConfig config = FastzConfig::full();

  const FastzRun roomy = study.derive(config, kAmpere);

  gpusim::DeviceSpec tiny = kAmpere;
  tiny.memory_bytes = 64 * 1024;  // 64 KB: a few small problems at a time
  const FastzRun cramped = study.derive(config, tiny);

  EXPECT_GT(cramped.executor_kernels, roomy.executor_kernels);
  EXPECT_GE(cramped.modeled.executor_s, roomy.modeled.executor_s);
}

TEST(FastzPipeline, TrimmingShrinksAllocationsAndKernelCount) {
  // Untrimmed executors allocate the whole search space, so under a
  // bounded memory budget they need at least as many kernel batches as the
  // exact-size trimmed allocation (Section 3.1.3's packing argument).
  const FastzStudy& study = shared().study;
  gpusim::DeviceSpec small = kAmpere;
  small.memory_bytes = 4 * 1024 * 1024;  // 4 MB budget

  FastzConfig trimmed = FastzConfig::full();
  FastzConfig untrimmed = FastzConfig::full();
  untrimmed.executor_trimming = false;

  const FastzRun t = study.derive(trimmed, small);
  const FastzRun u = study.derive(untrimmed, small);
  EXPECT_GE(u.executor_kernels, t.executor_kernels);
}

// ---- Hirschberg long tail through the study and derive(). ----------------

// Same workload as shared(), but with the linear-space area threshold low
// enough (50x50) that every real homology seed escapes the dense rectangle.
// Chance background hits stay eager, so the functional pass is still cheap.
PipelineOptions longtail_options(std::size_t threads = 1) {
  PipelineOptions base;
  base.threads = threads;
  base.one_sided.hirschberg_area = 2500;
  return base;
}

struct LongtailWorkload {
  SyntheticPair pair = test_pair();
  FastzStudy study{pair.a, pair.b, test_ydrop_params(), longtail_options()};
};

const LongtailWorkload& longtail() {
  static const LongtailWorkload w;
  return w;
}

std::uint64_t hirschberg_seed_count(const FastzStudy& study) {
  std::uint64_t n = 0;
  for (const SeedWork& work : study.seed_work()) n += work.hirschberg ? 1 : 0;
  return n;
}

TEST(FastzPipeline, HirschbergStudyIsBitIdenticalToDense) {
  // The linear path is a memory optimization, never an approximation: the
  // low-threshold study must report byte-for-byte the alignments of the
  // dense default study over the same pair.
  const FastzStudy& dense = shared().study;
  const FastzStudy& linear = longtail().study;
  ASSERT_GT(hirschberg_seed_count(linear), 0u)
      << "threshold 2500 routed no seed through the linear path";
  EXPECT_EQ(hirschberg_seed_count(dense), 0u);  // default 2^30 is far away

  ASSERT_EQ(linear.alignments().size(), dense.alignments().size());
  for (std::size_t k = 0; k < dense.alignments().size(); ++k) {
    const Alignment& d = dense.alignments()[k];
    const Alignment& l = linear.alignments()[k];
    EXPECT_EQ(l.score, d.score) << "alignment " << k;
    EXPECT_EQ(l.a_begin, d.a_begin) << "alignment " << k;
    EXPECT_EQ(l.a_end, d.a_end) << "alignment " << k;
    EXPECT_EQ(l.b_begin, d.b_begin) << "alignment " << k;
    EXPECT_EQ(l.b_end, d.b_end) << "alignment " << k;
    EXPECT_EQ(l.ops, d.ops) << "alignment " << k;
  }
}

TEST(FastzPipeline, HirschbergStudyIsThreadCountInvariant) {
  // The executor's linear path runs inside the worker pool; the divide-and-
  // conquer recursion must not introduce any order dependence.
  const FastzStudy& serial = longtail().study;
  const FastzStudy pooled(longtail().pair.a, longtail().pair.b, test_ydrop_params(),
                          longtail_options(4));
  ASSERT_EQ(pooled.alignments().size(), serial.alignments().size());
  for (std::size_t k = 0; k < serial.alignments().size(); ++k) {
    EXPECT_EQ(pooled.alignments()[k].score, serial.alignments()[k].score);
    EXPECT_EQ(pooled.alignments()[k].ops, serial.alignments()[k].ops);
  }
  // The per-seed traceback accounting is part of the deterministic surface:
  // derive() turns it into kernel work, so it must not wobble either.
  ASSERT_EQ(pooled.seed_work().size(), serial.seed_work().size());
  for (std::size_t k = 0; k < serial.seed_work().size(); ++k) {
    const SeedWork& p = pooled.seed_work()[k];
    const SeedWork& s = serial.seed_work()[k];
    EXPECT_EQ(p.hirschberg, s.hirschberg) << "seed " << k;
    EXPECT_EQ(p.trimmed_tb_peak_bytes, s.trimmed_tb_peak_bytes) << "seed " << k;
    EXPECT_EQ(p.trimmed_replay_cells, s.trimmed_replay_cells) << "seed " << k;
  }
}

TEST(FastzPipeline, DeriveCountsHirschbergTasksAndShrinksResidentBytes) {
  const FastzRun lin = longtail().study.derive(FastzConfig::full(), kAmpere);
  const FastzRun den = shared().study.derive(FastzConfig::full(), kAmpere);

  EXPECT_EQ(lin.hirschberg_tasks, hirschberg_seed_count(longtail().study));
  EXPECT_GT(lin.hirschberg_tasks, 0u);
  EXPECT_EQ(den.hirschberg_tasks, 0u);

  // The whole point of the linear path: device-resident traceback
  // allocation drops from whole rectangles to one block plus checkpoints.
  EXPECT_GT(lin.ledger.traceback_resident_bytes, 0u);
  EXPECT_LT(lin.ledger.traceback_resident_bytes, den.ledger.traceback_resident_bytes);
  // The footprint is an allocation, not traffic — it must not leak into the
  // modeled byte streams.
  EXPECT_EQ(lin.ledger.device_bytes(),
            lin.ledger.score_read_bytes + lin.ledger.score_write_bytes +
                lin.ledger.boundary_spill_bytes + lin.ledger.traceback_wire_bytes +
                lin.ledger.sequence_bytes);
}

TEST(FastzPipeline, ProfilerSeesTheHirschbergKernelSlot) {
  // Under the profiler the linear tasks land in their own trailing kernel
  // slot tagged `executor.hirschberg`, with sane counters — the tag
  // fastz_prof keys its long-tail table row on.
  gpusim::ProfilerSession session;
  {
    const gpusim::ScopedProfiler scoped(session);
    (void)longtail().study.derive(FastzConfig::full(), kAmpere);
  }
  bool saw_hirschberg = false;
  for (const gpusim::KernelProfile& k : session.kernels()) {
    if (k.tag.name.rfind("executor.hirschberg", 0) != 0) continue;
    saw_hirschberg = true;
    EXPECT_EQ(k.tag.phase, "executor");
    EXPECT_GT(k.counters.tasks, 0u);
    EXPECT_GT(k.counters.warp_instructions, 0u);
    EXPECT_GT(k.cost.time_s, 0.0);
    EXPECT_GE(k.end_s, k.start_s);
    // The slot's traffic attribution carries the resident-footprint number.
    EXPECT_GT(k.tag.traffic.traceback_resident_bytes, 0u);
  }
  EXPECT_TRUE(saw_hirschberg);
}

}  // namespace
}  // namespace fastz
