// Portable-SIMD ISA selection for the y-drop row core.
//
// The repository's one vectorized DP path is the row core's phase-A
// precompute (align/row_precompute.hpp), which the inspector, the executor
// and Hirschberg all run. It is compiled once per instruction set into its
// own translation unit (SSE2 / AVX2 / NEON, see src/align/CMakeLists.txt)
// and picked at runtime: the widest ISA both compiled in and supported by
// the host CPU wins, unless `FASTZ_SIMD` or a `ScopedIsa` override narrows
// the choice. Every variant is bit-identical to the scalar loop — selection
// is purely a throughput knob, which is why it is safe to decide per
// process instead of per call site.
//
//   FASTZ_SIMD=auto     widest available ISA (the default)
//   FASTZ_SIMD=scalar   force the scalar reference loops
//   FASTZ_SIMD=sse2     force the 128-bit x86 path
//   FASTZ_SIMD=avx2     force the 256-bit x86 path
//   FASTZ_SIMD=neon     force the 128-bit ARM path
//
// Requesting an ISA the build or the CPU lacks, through FASTZ_SIMD or
// ScopedIsa, silently degrades to scalar (deterministic and honest:
// active_isa() and the reports always record what actually ran); an
// unparseable FASTZ_SIMD value throws, mirroring FASTZ_THREADS.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fastz::simd {

enum class Isa : std::uint8_t { kScalar = 0, kSse2, kAvx2, kNeon };

// "scalar" / "sse2" / "avx2" / "neon".
const char* isa_name(Isa isa) noexcept;

// 32-bit score lanes per vector: 1 / 4 / 8 / 4.
unsigned isa_lanes(Isa isa) noexcept;

// Parses an isa_name or "auto". Throws std::invalid_argument on anything
// else ("auto" maps to detected_isa()).
Isa parse_isa(std::string_view name);

// True when the ISA's kernels are compiled into this binary AND the host
// CPU executes them. kScalar is always available.
bool isa_available(Isa isa) noexcept;

// Widest available ISA on this host (what FASTZ_SIMD=auto selects).
Isa detected_isa() noexcept;

// The ISA the DP hot paths dispatch on right now: ScopedIsa override if
// active, else the FASTZ_SIMD environment choice, else detected_isa().
Isa active_isa();

// Every available ISA, scalar first — what the simd-vs-scalar differential
// sweep iterates over.
std::vector<Isa> available_isas();

// One-line human-readable report, e.g.
//   "simd: active=avx2 (8 x i32), detected=avx2, compiled=[sse2 avx2]".
std::string isa_report();

// RAII process-wide ISA override for tests and interleaved A/B benches.
// Nestable; restores the previous override on destruction. The override
// outranks FASTZ_SIMD, and an ISA this host cannot run becomes kScalar.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa);
  ~ScopedIsa();
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  int previous_ = -1;
};

}  // namespace fastz::simd
