// Invariants of derive()'s dispatch path. derive() has one launch path —
// packed inspector launches, executor launches chasing their own inspector
// chunk on the pipeline scheduler — but its schedule loop has two arms:
// unprofiled (a heap of bare finish times) and profiled (per-SM counters
// under an installed ProfilerSession). Functional totals must be
// consistent across the fuzz corpus's case kinds, the two arms must model
// identical costs, and neither may depend on the functional pass's thread
// count. DispatchAtScale pins the modeled output and the alignments of the
// harness pair.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fastz/fastz_pipeline.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/profiler.hpp"
#include "report/experiment.hpp"
#include "testing/corpus.hpp"
#include "util/digest.hpp"

namespace fastz {
namespace {

using testing::CaseKind;
using testing::kCaseKindCount;
using testing::make_case_of_kind;

// Single-path invariants of one derive(): every seed is either finished by
// the eager tile or becomes one executor task, and the phases' launches
// hold exactly those tasks.
void expect_consistent_run(const FastzRun& run, const std::string& label) {
  EXPECT_EQ(run.census.total, run.seeds) << label;
  EXPECT_EQ(run.census.total, run.eager_handled + run.executor_tasks) << label;
  EXPECT_EQ(run.inspector_cost.tasks, run.seeds) << label;
  EXPECT_EQ(run.executor_cost.tasks, run.executor_tasks) << label;
  EXPECT_LE(run.hirschberg_tasks, run.executor_tasks) << label;
}

FastzRun derive_profiled(const FastzStudy& study, const gpusim::DeviceSpec& device) {
  gpusim::ProfilerSession session;
  const gpusim::ScopedProfiler scoped(session);
  return study.derive(FastzConfig::full(), device);
}

void expect_same_model(const FastzRun& x, const FastzRun& y, const std::string& label) {
  EXPECT_EQ(x.modeled.inspector_s, y.modeled.inspector_s) << label;
  EXPECT_EQ(x.modeled.executor_s, y.modeled.executor_s) << label;
  EXPECT_EQ(x.modeled.other_s, y.modeled.other_s) << label;
  EXPECT_EQ(x.inspector_launches, y.inspector_launches) << label;
  EXPECT_EQ(x.executor_kernels, y.executor_kernels) << label;
  EXPECT_EQ(x.inspector_cost.warp_instructions + x.executor_cost.warp_instructions,
            y.inspector_cost.warp_instructions + y.executor_cost.warp_instructions)
      << label;
}

TEST(Dispatch, ArmsAgreeFunctionallyAcrossTheCorpus) {
  const gpusim::DeviceSpec device = gpusim::rtx3080_ampere();
  for (std::size_t k = 0; k < kCaseKindCount; ++k) {
    const auto kind = static_cast<CaseKind>(k);
    auto c = make_case_of_kind(31, kind);
    if (c.a.size() == 0 || c.b.size() == 0) continue;  // degenerate empties
    const std::string label = std::string("kind=") + testing::case_kind_name(kind);
    const FastzStudy study(c.a, c.b, c.params, c.pipeline);
    const FastzRun plain = study.derive(FastzConfig::full(), device);
    expect_consistent_run(plain, label);
    expect_same_model(plain, derive_profiled(study, device), label + " profiled");
  }
}

TEST(Dispatch, ThreadCountChangesNeitherArm) {
  auto c = make_case_of_kind(57, CaseKind::kPipeline);
  const gpusim::DeviceSpec device = gpusim::rtx3080_ampere();
  c.pipeline.threads = 1;
  const FastzStudy serial(c.a, c.b, c.params, c.pipeline);
  const FastzRun plain1 = serial.derive(FastzConfig::full(), device);
  const FastzRun profiled1 = derive_profiled(serial, device);
  for (const std::size_t threads : {2, 5}) {
    c.pipeline.threads = threads;
    const FastzStudy parallel(c.a, c.b, c.params, c.pipeline);
    const std::string label = "threads=" + std::to_string(threads);
    // Bit-equal modeled times: the derive consumes seed-index-ordered
    // metrics, so the worker count of the functional pass cannot leak into
    // the schedule.
    expect_same_model(plain1, parallel.derive(FastzConfig::full(), device), label);
    expect_same_model(profiled1, derive_profiled(parallel, device), label + " profiled");
  }
}

// Chromosome-scale assertions share one prepared harness pair (C1_5,5, the
// fig7/fig9 workload at smoke scale, ~4k seeds).
class DispatchAtScale : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    HarnessOptions options;
    options.scale = 0.012;
    options.max_seeds = 4000;
    options.verbose = false;
    auto pairs = same_genus_pairs(options.scale);
    pairs.resize(1);
    prepared_ = new std::vector<PreparedPair>(
        prepare_pairs(pairs, harness_score_params(options), options));
    ASSERT_GT((*prepared_)[0].study->seeds(), 1000u);
  }
  static void TearDownTestSuite() {
    delete prepared_;
    prepared_ = nullptr;
  }
  static const FastzStudy& study() { return *(*prepared_)[0].study; }

  static std::vector<PreparedPair>* prepared_;
};

std::vector<PreparedPair>* DispatchAtScale::prepared_ = nullptr;

// Every modeled number derive() reports, pinned bit for bit on the harness
// pair: FastzConfig::full(), the other four Fig 9 rungs built as
// bench_fig9_ablation builds them, and shard 0 of 2, on the three GPUs. A
// refactor of derive(), the batch scheduler or the pipeline scheduler must
// leave the digest unchanged; a deliberate model change updates it.
TEST_F(DispatchAtScale, ModeledOutputIsPinned) {
  struct Rung {
    const char* name;
    FastzConfig config;
    std::uint32_t shards;
  };
  std::vector<Rung> rungs;
  FastzConfig ladder = FastzConfig::load_balance_only();
  rungs.push_back({"load_balance", ladder, 1});
  ladder.with_cyclic_buffers();
  rungs.push_back({"cyclic_buffers", ladder, 1});
  ladder.with_eager_traceback();
  rungs.push_back({"eager_traceback", ladder, 1});
  ladder.with_executor_trimming();
  ladder.streams = 1;
  rungs.push_back({"single_stream", ladder, 1});
  rungs.push_back({"full", FastzConfig::full(), 1});
  rungs.push_back({"full shard 0/2", FastzConfig::full(), 2});

  const DeviceSet devices = default_devices();
  const std::pair<const char*, gpusim::DeviceSpec> gpus[] = {
      {"pascal", devices.pascal}, {"volta", devices.volta}, {"ampere", devices.ampere}};
  DigestBuilder digest;
  std::ostringstream table;
  table.precision(17);
  for (const Rung& rung : rungs) {
    for (const auto& [gpu, spec] : gpus) {
      const FastzRun run = study().derive(rung.config, spec, rung.shards, 0);
      for (const double t : {run.modeled.inspector_s, run.modeled.executor_s,
                             run.modeled.other_s}) {
        digest.update_u64(std::bit_cast<std::uint64_t>(t));
      }
      digest.update_u64(run.inspector_launches);
      digest.update_u64(run.executor_kernels);
      table << rung.name << " / " << gpu << ": inspector_s " << run.modeled.inspector_s
            << ", executor_s " << run.modeled.executor_s << ", other_s "
            << run.modeled.other_s << ", launches " << run.inspector_launches << " + "
            << run.executor_kernels << "\n";
    }
  }
  EXPECT_EQ(digest.finish().hex(), "519746742d637be7681dcddea4f33b0a") << table.str();
}

// Every alignment the pass produces, pinned bit for bit on the harness pair:
// the reported list, then each eager seed's tile alignment in seed order.
// No eager tile clears the gapped threshold here, so the reported list alone
// would never see the eager path. One digest covers score, coordinates and
// ops of all of them; `kCheckpoints` holds the running digest's first 8 hex
// digits after each reported alignment and after every 256th eager tile, so
// a mismatch names the first differing reported alignment, or the first
// 256-tile window that differs. A change to the inspector, the executor or
// the DP engines must leave both unchanged.
TEST_F(DispatchAtScale, AlignmentsArePinned) {
  std::vector<const Alignment*> entries;
  for (const Alignment& aln : study().alignments()) entries.push_back(&aln);
  const std::size_t reported = entries.size();
  for (const SeedWork& work : study().seed_work()) {
    if (work.inspection.eager) entries.push_back(&work.inspection.alignment);
  }
  constexpr std::size_t kEagerWindow = 256;

  DigestBuilder digest;
  std::vector<std::size_t> window_end;  // entries covered by each checkpoint
  std::vector<std::string> checkpoints;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const Alignment& aln = *entries[k];
    digest.update_i64(aln.score);
    for (const std::uint64_t v : {aln.a_begin, aln.a_end, aln.b_begin, aln.b_end}) {
      digest.update_u64(v);
    }
    digest.update_sized(aln.ops.data(), aln.ops.size());
    const std::size_t done = k + 1;
    if (done <= reported || (done - reported) % kEagerWindow == 0 || done == entries.size()) {
      window_end.push_back(done);
      checkpoints.push_back(digest.finish().hex().substr(0, 8));
    }
  }

  const std::vector<std::string> kCheckpoints = {
      "e0a8dc67", "4254d4fc", "e23b4831", "bc0547e3", "c046f5a3", "f3e45871", "82a5a241",
      "b5eff05d", "c44beb4e", "d9ddbeda", "c189de39", "db5cc82e", "0fb501aa", "b2d66a59",
      "af976d93", "e51dbdcc", "b2a4aaa1", "de769d27", "8ecba02d", "7e503c94", "b82f79fd",
      "04b0a85c", "e3c5bad6", "5f5b698c", "3d3d9538"};
  const std::string kDigest = "3d3d9538160484b53cc17771a13dc069";
  std::ostringstream first_difference;
  for (std::size_t c = 0; c < checkpoints.size(); ++c) {
    if (c < kCheckpoints.size() && checkpoints[c] == kCheckpoints[c]) continue;
    const std::size_t begin = c == 0 ? 0 : window_end[c - 1];
    const Alignment& aln = *entries[begin];
    const std::string cigar = aln.cigar();
    if (begin < reported) {
      first_difference << "reported alignment " << begin << " of " << entries.size();
    } else {
      first_difference << "eager tiles [" << begin << ", " << window_end[c] << ") of "
                       << entries.size() << ", first";
    }
    first_difference << ": score " << aln.score << ", A ["
                     << aln.a_begin << ", " << aln.a_end << "), B [" << aln.b_begin << ", "
                     << aln.b_end << "), " << aln.ops.size() << " ops, "
                     << cigar.substr(0, 120) << (cigar.size() > 120 ? "..." : "") << "\n";
    break;
  }
  std::ostringstream measured;
  for (const std::string& cp : checkpoints) measured << '"' << cp << "\", ";
  EXPECT_EQ(entries.size(), 2645u);
  EXPECT_EQ(digest.finish().hex(), kDigest)
      << "first difference at " << first_difference.str() << "checkpoints: " << measured.str();
}

TEST_F(DispatchAtScale, BatchedCollapsesLaunchCount) {
  // Two inspector launches and, with nothing split on a 10 GB budget and
  // no Hirschberg task, one packed executor launch per inspector chunk —
  // independent of the ~4k seeds.
  const FastzRun run = study().derive(FastzConfig::full(), default_devices().ampere);
  expect_consistent_run(run, "harness pair");
  EXPECT_EQ(run.hirschberg_tasks, 0u);
  EXPECT_EQ(run.inspector_launches, 2u);
  EXPECT_EQ(run.executor_kernels, 2u);
}

TEST_F(DispatchAtScale, ProfiledBatchedRunModelsIdenticalCosts) {
  const gpusim::DeviceSpec device = default_devices().ampere;
  const FastzRun plain = study().derive(FastzConfig::full(), device);
  gpusim::ProfilerSession session;
  FastzRun profiled;
  {
    const gpusim::ScopedProfiler scoped(session);
    profiled = study().derive(FastzConfig::full(), device);
  }
  EXPECT_GT(session.kernel_count(), 0u);
  EXPECT_DOUBLE_EQ(profiled.modeled.inspector_s, plain.modeled.inspector_s);
  EXPECT_DOUBLE_EQ(profiled.modeled.executor_s, plain.modeled.executor_s);
  EXPECT_DOUBLE_EQ(profiled.modeled.total_s(), plain.modeled.total_s());
}

}  // namespace
}  // namespace fastz
