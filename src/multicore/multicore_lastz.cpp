#include "multicore/multicore_lastz.hpp"

#include "align/extension.hpp"
#include "telemetry/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fastz {

namespace {

struct SeedOutcome {
  Alignment alignment;
  std::uint64_t cells = 0;
  bool reported = false;
};

}  // namespace

MulticoreResult run_multicore_lastz(const Sequence& a, const Sequence& b,
                                    const ScoreParams& params,
                                    const PipelineOptions& options,
                                    const MulticoreOptions& mc) {
  params.validate();
  telemetry::TraceSpan pipeline_span("multicore.pipeline", "pool");
  MulticoreResult result;
  Timer total;

  Timer stage;
  const SpacedSeed seed = SpacedSeed::lastz_default();
  const std::vector<SeedHit> hits = enumerate_seeds(a, b, options);
  result.counters.seed_hits = hits.size();
  result.counters.seeds_extended = hits.size();
  result.counters.seed_time_s = stage.elapsed_s();

  stage.reset();
  ThreadPool pool(mc.threads);
  result.threads_used = pool.size();

  // Per-seed outcome slots keep the output in seed order regardless of the
  // partitioning, so every thread count (and the sequential pipeline)
  // produces an identical alignment list.
  std::vector<SeedOutcome> outcomes(hits.size());

  auto process = [&](std::size_t k) {
    GappedExtension ext =
        extend_seed(a, b, hits[k], seed.span(), params, options.one_sided);
    outcomes[k].cells = ext.total_cells();
    if (ext.alignment.score >= params.gapped_threshold) {
      outcomes[k].alignment = std::move(ext.alignment);
      outcomes[k].reported = true;
    }
  };

  // Static contiguous partitions — the paper's multi-process scheme.
  pool.parallel_for(outcomes.size(), process);

  for (SeedOutcome& outcome : outcomes) {
    result.counters.dp_cells += outcome.cells;
    if (outcome.reported) {
      result.counters.traceback_columns += outcome.alignment.ops.size();
      result.alignments.push_back(std::move(outcome.alignment));
    }
  }
  if (options.deduplicate) deduplicate_alignments(result.alignments);
  result.counters.extend_time_s = stage.elapsed_s();
  result.counters.total_time_s = total.elapsed_s();

  result.modeled_time_s = gpusim::multicore_lastz_time_s(
      result.counters.dp_cells, gpusim::ryzen_3950x(), mc.model_processes);
  return result;
}

}  // namespace fastz
