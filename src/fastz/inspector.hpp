// FastZ inspector stage.
//
// One warp per seed extension explores the full y-drop search space to find
// the optimal cell, *without* tracking traceback state (the paper's first
// contribution — Section 3.1.1). Because a parallel kernel cannot observe
// scores produced concurrently, pruning uses only completed rows
// (conservative y-drop, Section 3.4), so the inspector explores the same
// search space or a strict superset of sequential LASTZ's.
//
// The exception is the 16x16 eager-traceback tile (second contribution,
// Section 3.1.2): alignments whose optimal cell lies inside the tile are
// traced immediately from shared-memory state, eliminating the executor for
// the ~80% of seeds with extremely short alignments. On the host the tile
// is the optimal rectangle by definition, so inspect_seed traces it with
// the executor's trimmed side traceback (executor.hpp): one DP engine, the
// y-drop row core, serves the search, the tile and the executor.
//
// Alongside the functional result, the inspector derives the warp-strip
// execution geometry (anti-diagonal steps per 32-column strip, boundary
// spills) of the region it explored; the GPU cost model consumes these.
#pragma once

#include <cstdint>
#include <span>

#include "align/extension.hpp"
#include "align/ydrop_align.hpp"
#include "fastz/config.hpp"
#include "seed/seed_index.hpp"
#include "sequence/sequence.hpp"

namespace fastz {

// Columns per strip: one per warp lane.
inline constexpr std::uint32_t kWarpWidth = 32;

// Warp-strip execution geometry of an explored DP region.
struct StripGeometry {
  std::uint64_t warp_steps = 0;      // anti-diagonal steps summed over strips
  std::uint64_t strips = 0;          // strip-row segments processed
  std::uint64_t spill_cells = 0;     // boundary cells spilled (12 B each)
};

// Derives strip geometry from the per-row viable intervals of an explored
// region. For each 32-column strip, the warp runs (rows touching the strip
// + pipeline fill) anti-diagonal steps; every interior strip boundary spills
// one cell per touching row.
StripGeometry strip_geometry_from_bounds(std::span<const RowBounds> bounds);

struct SideInspection {
  BestCell best;
  std::uint64_t cells = 0;       // search-space cells
  std::uint32_t rows = 0;        // search-space extent
  std::uint32_t max_width = 0;
  StripGeometry geom;
  bool truncated = false;
};

struct SeedInspection {
  SideInspection left;
  SideInspection right;
  std::uint64_t anchor_a = 0;
  std::uint64_t anchor_b = 0;
  Score score = 0;  // left.best.score + right.best.score
  bool eager = false;
  Alignment alignment;  // populated only when eager

  std::uint64_t a_extent() const noexcept {
    return std::uint64_t{left.best.i} + right.best.i;
  }
  std::uint64_t b_extent() const noexcept {
    return std::uint64_t{left.best.j} + right.best.j;
  }
  // Side of the square box containing the optimal alignment — the binning
  // key (Section 3.3).
  std::uint64_t box() const noexcept { return std::max(a_extent(), b_extent()); }
  std::uint64_t search_cells() const noexcept { return left.cells + right.cells; }
  std::uint64_t warp_steps() const noexcept {
    return left.geom.warp_steps + right.geom.warp_steps;
  }
};

// Inspects one seed: conservative y-drop search on both sides plus the
// eager-traceback tile. `limits` carries the search caps (prune mode and
// traceback flags are overridden internally); the tile's traceback runs
// under the same limits.
SeedInspection inspect_seed(const Sequence& a, const Sequence& b, const SeedHit& hit,
                            std::size_t seed_span, const ScoreParams& params,
                            const FastzConfig& config, const OneSidedOptions& limits = {});

}  // namespace fastz
