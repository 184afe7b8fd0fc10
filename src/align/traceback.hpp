// Packed traceback codes and the shared traceback walk.
//
// The FastZ executor compresses the per-cell traceback state of all three
// scoring matrices into a single byte (Section 3.1.3: the S recurrence picks
// among 3 choices — 2 bits; I and D each pick among 2 — 1 bit each). The
// same packing is used by the sequential oracle, the executor (which also
// traces the inspector's 16x16 eager tile), and the warp-strip kernel, so
// that one traceback walker serves all of them (and tests can compare
// their outputs structurally).
//
// Layout of a code byte:
//   bits 0-1  source of S:   0 = diagonal (match/substitution)
//                            1 = I matrix (gap in A)
//                            2 = D matrix (gap in B)
//                            3 = origin cell (0,0) / unreachable
//   bit 2     I was opened from S (1) rather than extended from I (0)
//   bit 3     D was opened from S (1) rather than extended from D (0)
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "align/alignment.hpp"

namespace fastz {

using TraceCode = std::uint8_t;

inline constexpr TraceCode kTraceSrcDiag = 0;
inline constexpr TraceCode kTraceSrcI = 1;
inline constexpr TraceCode kTraceSrcD = 2;
inline constexpr TraceCode kTraceSrcOrigin = 3;

constexpr TraceCode make_trace(TraceCode s_src, bool i_open, bool d_open) noexcept {
  return static_cast<TraceCode>((s_src & 3u) | (i_open ? 4u : 0u) | (d_open ? 8u : 0u));
}

constexpr TraceCode trace_s_src(TraceCode code) noexcept { return code & 3u; }
constexpr bool trace_i_open(TraceCode code) noexcept { return (code & 4u) != 0; }
constexpr bool trace_d_open(TraceCode code) noexcept { return (code & 8u) != 0; }

// Walks traceback codes from cell (i, j) back to the origin (0, 0) and
// returns the edit operations in forward order. `code_at(i, j)` must return
// the packed code for any visited cell. Throws std::runtime_error if the
// walk escapes the matrix (corrupt traceback state).
template <typename CodeAt>
std::vector<AlignOp> walk_traceback(std::uint32_t i, std::uint32_t j, CodeAt&& code_at) {
  std::vector<AlignOp> ops;
  ops.reserve(static_cast<std::size_t>(i) + j);
  enum class State { S, I, D };
  State state = State::S;
  // Every second iteration consumes a base of A or B (S->I/D transitions
  // consume nothing), so the walk takes at most 2(i + j) + 1 steps; anything
  // longer means a cycle in the codes.
  const std::uint64_t step_limit = 2 * (static_cast<std::uint64_t>(i) + j) + 1;
  std::uint64_t steps = 0;
  while (!(i == 0 && j == 0 && state == State::S)) {
    if (++steps > step_limit) {
      throw std::runtime_error("walk_traceback: cycle in traceback codes");
    }
    const TraceCode code = code_at(i, j);
    switch (state) {
      case State::S:
        switch (trace_s_src(code)) {
          case kTraceSrcDiag:
            if (i == 0 || j == 0) throw std::runtime_error("walk_traceback: diag at border");
            ops.push_back(AlignOp::Match);
            --i, --j;
            break;
          case kTraceSrcI:
            state = State::I;
            break;
          case kTraceSrcD:
            state = State::D;
            break;
          default:
            throw std::runtime_error("walk_traceback: origin code before (0,0)");
        }
        break;
      case State::I:
        if (j == 0) throw std::runtime_error("walk_traceback: I at column 0");
        ops.push_back(AlignOp::Insert);
        state = trace_i_open(code) ? State::S : State::I;
        --j;
        break;
      case State::D:
        if (i == 0) throw std::runtime_error("walk_traceback: D at row 0");
        ops.push_back(AlignOp::Delete);
        state = trace_d_open(code) ? State::S : State::D;
        --i;
        break;
    }
  }
  std::reverse(ops.begin(), ops.end());
  return ops;
}

}  // namespace fastz
