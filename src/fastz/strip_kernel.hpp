// Warp-strip DP kernel with cyclic use-and-discard register buffering.
//
// This is a functional port of FastZ's GPU kernel geometry (Sections 3.1.1,
// 3.2, Figures 4-5 of the paper):
//
//   * the DP matrix is processed in vertical strips of 32 columns — one
//     column per warp lane;
//   * within a strip, lanes sweep anti-diagonals in lockstep: at step t,
//     lane l computes cell (i = t - l, j = strip_base + 1 + l);
//   * each lane keeps the S/I/D values of its column for the two previous
//     anti-diagonals in "registers" (the three-diagonal cyclic buffer —
//     36 bytes per thread); neighbor cells are obtained from the adjacent
//     lane's registers (the CUDA `__shfl_up_sync` exchange);
//   * only the strip's last lane spills its column (12 B per row) to
//     memory, where the next strip's lane 0 picks it up — the >96% traffic
//     reduction of Section 3.2;
//   * packed traceback codes (one byte per cell) are emitted when requested.
//
// The emulation executes lane-by-lane in plain C++, but the data flow is
// exactly the warp program's: every value a "lane" reads comes either from
// its own two register diagonals, its neighbor's, or the spilled boundary
// column.
//
// The host pass does not run this kernel: the inspector searches and the
// executor (eager tile included) traces on the y-drop row core. The kernel
// is the lane-accurate model the divergence census (bench_divergence,
// examples/perf_analysis), BM_StripKernel and the differ's exact case kinds
// measure and check.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "align/alignment.hpp"
#include "align/gotoh_reference.hpp"
#include "align/seq_view.hpp"
#include "align/traceback.hpp"
#include "fastz/inspector.hpp"
#include "score/score_params.hpp"

namespace fastz {

struct StripKernelResult {
  BestCell best;                        // canonical tie-break (gotoh_reference.hpp)
  std::uint64_t cells = 0;              // valid DP cells computed
  std::uint64_t warp_steps = 0;         // anti-diagonal steps summed over strips
  std::uint64_t strips = 0;
  std::uint64_t boundary_spill_bytes = 0;
  std::vector<TraceCode> trace;         // (m+1) x (n+1) row-major, if requested
  std::vector<AlignOp> ops;             // path (0,0) -> best, if requested

  // Control-divergence census (Section 3.4 of the paper: "the control
  // divergence is limited to only a few paths each with only a few
  // instructions"). Indexed by the number of distinct max-operator outcome
  // combinations — (S source, I opened, D opened) — the active lanes of a
  // step take; a SIMT warp serializes one pass per distinct path.
  // divergence_histogram[k] counts steps whose lanes took exactly k+1
  // distinct paths (only steps with >= 2 active lanes are counted).
  std::array<std::uint64_t, 12> divergence_histogram{};

  // Mean distinct paths per counted step — the empirical analogue of the
  // paper's 23/9 = 2.56 instruction-expansion derate.
  double mean_divergent_paths() const noexcept;
};

// Computes the full (m+1) x (n+1) rectangle for A[0..m) x B[0..n), always
// with the divergence census. `want_traceback` allocates the dense trace
// buffer, emits packed codes and walks `ops`, so m and n are capped (throws
// std::invalid_argument beyond `kStripKernelMaxDim` with traceback).
StripKernelResult strip_rectangle_dp(SeqView a, SeqView b, const ScoreParams& params,
                                     bool want_traceback);

inline constexpr std::uint32_t kStripKernelMaxDim = 4096;

}  // namespace fastz
