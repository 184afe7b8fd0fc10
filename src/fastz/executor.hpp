// FastZ executor stage.
//
// Seeds that escape the eager tile are re-evaluated with full traceback.
// With *executor trimming* (the paper's third contribution, Section 3.1.3)
// the DP is confined to the optimal rectangle [0..i*] x [0..j*] known from
// the inspector — not the far larger search space — and the traceback walk
// starts from the inspector's optimal cell, so the executor's alignment is
// consistent with the inspector by construction. Exact-size allocation from
// the inspector's lengths is what lets the real kernel pack many problems
// per launch; here it additionally bounds the traceback state the run
// materializes.
//
// Traceback state is packed one byte per cell (2 bits for S's 3-way choice,
// 1 bit each for I and D — Section 3.1.3) and, in the modeled memory
// system, staged through shared memory into full cache-line writes.
//
// Long tail: when a side's trimmed rectangle reaches
// `OneSidedOptions::hirschberg_area`, the executor switches that side to
// `ydrop_linear_traceback` — same DP, same op list (bit-identical), but
// traceback state bounded to O(n + m) via checkpoint bisection instead of
// one byte per cell of the whole rectangle. The rectangle recompute is kept
// for small bins, where a dense block is cheaper than replaying.
#pragma once

#include <cstdint>

#include "align/extension.hpp"
#include "fastz/config.hpp"
#include "fastz/inspector.hpp"

namespace fastz {

struct ExecutorOutcome {
  Alignment alignment;            // global coordinates, ops populated
  std::uint64_t cells = 0;        // DP cells recomputed by the executor
  StripGeometry geom;             // warp-strip geometry of the executed region
  // Traceback bytes written over the task's lifetime: one packed byte per
  // computed cell on the dense path, only the materialized base-block cells
  // on the linear path.
  std::uint64_t traceback_bytes = 0;
  // High-water mark of traceback bytes resident at once. Dense: the whole
  // rectangle (== traceback_bytes). Linear: one base block, O(n + m).
  std::uint64_t traceback_peak_bytes = 0;
  // Linear path only: DP cells recomputed by checkpoint replay, and the
  // peak bytes of live score-row checkpoints.
  std::uint64_t replay_cells = 0;
  std::uint64_t checkpoint_bytes = 0;
  bool hirschberg = false;        // at least one side took the linear path
  bool truncated = false;
};

// Executes one surviving seed using the inspector's findings.
ExecutorOutcome execute_seed(const Sequence& a, const Sequence& b,
                             const SeedInspection& inspection, const ScoreParams& params,
                             const FastzConfig& config,
                             const OneSidedOptions& limits = {});

// The eager tile's traceback: the trimmed executor's alignment for
// `inspection`, without the row bounds and strip geometry that only the
// executor's modeled cost reads. Same ops as execute_seed with trimming on.
Alignment trace_eager_tile(const Sequence& a, const Sequence& b,
                           const SeedInspection& inspection, const ScoreParams& params,
                           const OneSidedOptions& limits = {});

}  // namespace fastz
