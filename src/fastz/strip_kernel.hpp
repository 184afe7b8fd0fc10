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
//   * packed traceback codes (one byte per cell) are emitted when requested
//     (the executor path; the inspector's 16x16 eager tile is this same
//     kernel at tile size).
//
// The emulation executes lane-by-lane in plain C++, but the data flow is
// exactly the warp program's: every value a "lane" reads comes either from
// its own two register diagonals, its neighbor's, or the spilled boundary
// column.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "align/alignment.hpp"
#include "align/gotoh_reference.hpp"
#include "align/seq_view.hpp"
#include "align/traceback.hpp"
#include "score/score_params.hpp"

namespace fastz {

inline constexpr std::uint32_t kWarpWidth = 32;

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

// Kernel variant switches. The score/geometry outputs (best, cells,
// warp_steps, strips, boundary_spill_bytes) are identical across variants;
// the switches only control which instrumentation the hot loop carries:
//
//   want_traceback    — allocate the dense trace buffer, emit packed codes,
//                       and walk `ops` (the inspector's eager tile).
//   divergence_census — populate divergence_histogram. Pure profiling
//                       output; the functional pipeline never consumes it,
//                       so hot callers (the inspector's eager tile) turn it
//                       off and the per-cell path-mask bookkeeping compiles
//                       out of the lane loop entirely.
struct StripKernelOptions {
  bool want_traceback = false;
  bool divergence_census = true;
};

// Reusable per-thread working memory of strip_rectangle_dp: the boundary
// column spilled between strips (double-buffered). Grows to the largest
// rectangle seen and is then reused allocation-free — the per-seed steady
// state performs zero heap allocations on the score-only path (asserted by
// a counting allocator in tests/fastz/strip_alloc_test.cpp). Callers that
// don't pass one share a thread-local instance.
struct StripKernelScratch {
  std::vector<Score> bound_s;
  std::vector<Score> bound_gi;
  std::vector<Score> next_bound_s;
  std::vector<Score> next_bound_gi;
};

// Computes the full (m+1) x (n+1) rectangle for A[0..m) x B[0..n).
// `want_traceback` allocates the dense trace buffer, so m and n are capped
// (throws std::invalid_argument beyond `kStripKernelMaxDim` with traceback).
StripKernelResult strip_rectangle_dp(SeqView a, SeqView b, const ScoreParams& params,
                                     const StripKernelOptions& opts);

// Same, with a caller-owned scratch arena (zero-allocation steady state for
// per-seed callers that keep one arena per worker).
StripKernelResult strip_rectangle_dp(SeqView a, SeqView b, const ScoreParams& params,
                                     const StripKernelOptions& opts,
                                     StripKernelScratch& scratch);

// Back-compat overload: census on, matching the original instrumented loop.
StripKernelResult strip_rectangle_dp(SeqView a, SeqView b, const ScoreParams& params,
                                     bool want_traceback);

// Original AoS formulation (struct-of-32-lanes registers, full-array
// rotation copies, unconditional instrumentation). Differential oracle for
// the SoA kernel and the baseline side of bench_functional_pass; not for
// production callers.
StripKernelResult strip_rectangle_dp_reference(SeqView a, SeqView b,
                                               const ScoreParams& params,
                                               bool want_traceback);

inline constexpr std::uint32_t kStripKernelMaxDim = 4096;

}  // namespace fastz
