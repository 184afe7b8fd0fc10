#include "fastz/inspector.hpp"

#include <algorithm>
#include <vector>

#include "fastz/executor.hpp"

namespace fastz {

StripGeometry strip_geometry_from_bounds(std::span<const RowBounds> bounds) {
  StripGeometry geom;
  if (bounds.empty()) return geom;

  // Count rows touching each strip. Regions are narrow relative to their
  // height, so the touched-strip range per row is small; accumulate into a
  // dense per-strip vector sized to the widest column seen.
  std::uint32_t max_col = 0;
  for (const RowBounds& rb : bounds) max_col = std::max(max_col, rb.hi);
  const std::uint32_t strip_count = max_col / kWarpWidth + 1;
  std::vector<std::uint32_t> rows_in_strip(strip_count, 0);

  std::uint32_t last_strip_used = 0;
  for (const RowBounds& rb : bounds) {
    if (rb.hi <= rb.lo) continue;
    const std::uint32_t s0 = rb.lo / kWarpWidth;
    const std::uint32_t s1 = (rb.hi - 1) / kWarpWidth;
    for (std::uint32_t s = s0; s <= s1; ++s) ++rows_in_strip[s];
    last_strip_used = std::max(last_strip_used, s1);
  }

  for (std::uint32_t s = 0; s < strip_count; ++s) {
    if (rows_in_strip[s] == 0) continue;
    ++geom.strips;
    // Pipeline fill/drain: a warp sweeping R rows of a strip takes
    // R + warp_width anti-diagonal steps.
    geom.warp_steps += rows_in_strip[s] + kWarpWidth;
    // Interior strip boundaries spill one cell per touching row.
    if (s < last_strip_used) geom.spill_cells += rows_in_strip[s];
  }
  return geom;
}

namespace {

SideInspection inspect_side(SeqView a, SeqView b, const ScoreParams& params,
                            const OneSidedOptions& limits) {
  OneSidedOptions opts = limits;
  opts.prune = PruneMode::kConservative;
  opts.want_traceback = false;  // the lightweight inspector elides traceback
  opts.record_row_bounds = true;
  opts.trace_from_fixed = false;

  const OneSidedResult r = ydrop_one_sided_align(a, b, params, opts);
  SideInspection side;
  side.best = r.best;
  side.cells = r.cells;
  side.rows = r.rows_explored;
  side.max_width = r.max_row_width;
  side.geom = strip_geometry_from_bounds(r.row_bounds);
  side.truncated = r.truncated;
  return side;
}

}  // namespace

SeedInspection inspect_seed(const Sequence& a, const Sequence& b, const SeedHit& hit,
                            std::size_t seed_span, const ScoreParams& params,
                            const FastzConfig& config, const OneSidedOptions& limits) {
  SeedInspection out;
  out.anchor_a = hit.a_pos + seed_span / 2;
  out.anchor_b = hit.b_pos + seed_span / 2;

  const auto a_codes = a.codes();
  const auto b_codes = b.codes();
  const SeqView left_a = reverse_view(a_codes, out.anchor_a);
  const SeqView left_b = reverse_view(b_codes, out.anchor_b);
  const SeqView right_a = forward_view(a_codes, out.anchor_a, a.size());
  const SeqView right_b = forward_view(b_codes, out.anchor_b, b.size());

  out.left = inspect_side(left_a, left_b, params, limits);
  out.right = inspect_side(right_a, right_b, params, limits);
  out.score = out.left.best.score + out.right.best.score;

  const std::uint32_t tile = config.eager_tile;
  out.eager = config.eager_traceback && out.left.best.i <= tile &&
              out.left.best.j <= tile && out.right.best.i <= tile &&
              out.right.best.j <= tile;

  if (out.eager) {
    // The eager tile is the optimal rectangle by definition, so its
    // traceback is the trimmed executor's: the same row core confined to
    // [0..i*] x [0..j*], walked from the inspector's optimal cell (in the
    // real kernel these codes were recorded in shared memory during the
    // search; recomputing the rectangle yields the identical codes).
    out.alignment = trace_eager_tile(a, b, out, params, limits);
  }
  return out;
}

}  // namespace fastz
