#include "fastz/executor.hpp"

#include <algorithm>

namespace fastz {

namespace {

struct SideExecution {
  std::vector<AlignOp> ops;
  std::uint64_t cells = 0;
  StripGeometry geom;
  std::uint64_t traceback_bytes = 0;
  std::uint64_t traceback_peak_bytes = 0;
  std::uint64_t replay_cells = 0;
  std::uint64_t checkpoint_bytes = 0;
  bool hirschberg = false;
  bool truncated = false;
};

// `geometry` records the row bounds that strip_geometry_from_bounds turns
// into the side's warp-strip geometry. The executor's modeled cost needs
// it; the eager tile uses only the ops, so it skips both.
SideExecution execute_side(SeqView a, SeqView b, const BestCell& target,
                           const ScoreParams& params, bool trimming, bool geometry,
                           const OneSidedOptions& limits) {
  SideExecution side;
  if (target.i == 0 && target.j == 0) return side;  // nothing to trace

  OneSidedOptions opts = limits;
  opts.prune = PruneMode::kConservative;
  opts.want_traceback = true;
  opts.record_row_bounds = geometry;
  // Trimming: confine the DP to the optimal rectangle. Untrimmed (the
  // Figure 9 ablation point), the executor re-runs the full search space
  // with traceback, exactly like a one-pass implementation would.
  if (trimming) {
    opts.max_rows = target.i;
    opts.max_cols = target.j;
  }
  opts.trace_from_fixed = true;
  opts.trace_i = target.i;
  opts.trace_j = target.j;

  // The dense rectangle costs one traceback byte per cell of the trimmed
  // tile; above the area threshold that dominates the task's footprint and
  // the linear-space path wins despite its replay overhead.
  const std::uint64_t area = std::uint64_t{target.i} * target.j;
  if (opts.hirschberg_area != 0 && area >= opts.hirschberg_area) {
    LinearTracebackStats stats;
    OneSidedResult r = ydrop_linear_traceback(a, b, params, opts, &stats);
    side.ops = std::move(r.ops);
    side.cells = r.cells;
    side.geom = strip_geometry_from_bounds(r.row_bounds);
    side.truncated = r.truncated;
    side.traceback_bytes = stats.trace_cells;
    side.traceback_peak_bytes = stats.peak_trace_bytes;
    side.replay_cells = stats.replay_cells;
    side.checkpoint_bytes = stats.peak_checkpoint_bytes;
    side.hirschberg = true;
    return side;
  }

  OneSidedResult r = ydrop_one_sided_align(a, b, params, opts);
  side.ops = std::move(r.ops);
  side.cells = r.cells;
  side.geom = strip_geometry_from_bounds(r.row_bounds);
  side.truncated = r.truncated;
  side.traceback_bytes = r.cells;  // one packed byte per computed cell
  side.traceback_peak_bytes = r.cells;
  return side;
}

ExecutorOutcome execute(const Sequence& a, const Sequence& b,
                        const SeedInspection& inspection, const ScoreParams& params,
                        bool trimming, bool geometry, const OneSidedOptions& limits) {
  ExecutorOutcome out;

  const auto a_codes = a.codes();
  const auto b_codes = b.codes();
  SideExecution left = execute_side(reverse_view(a_codes, inspection.anchor_a),
                                    reverse_view(b_codes, inspection.anchor_b),
                                    inspection.left.best, params, trimming, geometry,
                                    limits);
  SideExecution right = execute_side(
      forward_view(a_codes, inspection.anchor_a, a.size()),
      forward_view(b_codes, inspection.anchor_b, b.size()),
      inspection.right.best, params, trimming, geometry, limits);

  Alignment& aln = out.alignment;
  aln.score = inspection.score;
  aln.a_begin = inspection.anchor_a - inspection.left.best.i;
  aln.b_begin = inspection.anchor_b - inspection.left.best.j;
  aln.a_end = inspection.anchor_a + inspection.right.best.i;
  aln.b_end = inspection.anchor_b + inspection.right.best.j;
  aln.ops.reserve(left.ops.size() + right.ops.size());
  aln.ops.assign(left.ops.rbegin(), left.ops.rend());
  aln.ops.insert(aln.ops.end(), right.ops.begin(), right.ops.end());

  out.cells = left.cells + right.cells;
  out.geom.warp_steps = left.geom.warp_steps + right.geom.warp_steps;
  out.geom.strips = left.geom.strips + right.geom.strips;
  out.geom.spill_cells = left.geom.spill_cells + right.geom.spill_cells;
  out.traceback_bytes = left.traceback_bytes + right.traceback_bytes;
  out.traceback_peak_bytes = left.traceback_peak_bytes + right.traceback_peak_bytes;
  out.replay_cells = left.replay_cells + right.replay_cells;
  out.checkpoint_bytes = left.checkpoint_bytes + right.checkpoint_bytes;
  out.hirschberg = left.hirschberg || right.hirschberg;
  out.truncated = left.truncated || right.truncated;
  return out;
}

}  // namespace

ExecutorOutcome execute_seed(const Sequence& a, const Sequence& b,
                             const SeedInspection& inspection, const ScoreParams& params,
                             const FastzConfig& config, const OneSidedOptions& limits) {
  return execute(a, b, inspection, params, config.executor_trimming, /*geometry=*/true,
                 limits);
}

Alignment trace_eager_tile(const Sequence& a, const Sequence& b,
                           const SeedInspection& inspection, const ScoreParams& params,
                           const OneSidedOptions& limits) {
  return execute(a, b, inspection, params, /*trimming=*/true, /*geometry=*/false, limits)
      .alignment;
}

}  // namespace fastz
