#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>

namespace fastz::simd {

namespace {

// -1: no override. Otherwise the Isa value forced by the innermost
// ScopedIsa. Relaxed is enough: callers that race an override against a
// concurrent alignment get one of the two ISAs, both bit-identical.
std::atomic<int> g_override{-1};

bool cpu_supports(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kSse2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("sse2");
#else
      return false;
#endif
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(__aarch64__)
      return true;  // NEON is architectural on AArch64.
#else
      return false;
#endif
  }
  return false;
}

bool compiled_in(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kSse2:
#ifdef FASTZ_SIMD_HAS_SSE2
      return true;
#else
      return false;
#endif
    case Isa::kAvx2:
#ifdef FASTZ_SIMD_HAS_AVX2
      return true;
#else
      return false;
#endif
    case Isa::kNeon:
#ifdef FASTZ_SIMD_HAS_NEON
      return true;
#else
      return false;
#endif
  }
  return false;
}

// The one degrade rule for a requested ISA (FASTZ_SIMD and ScopedIsa
// alike): run it if this binary and CPU can, else run scalar.
Isa runnable(Isa requested) noexcept {
  return isa_available(requested) ? requested : Isa::kScalar;
}

// FASTZ_SIMD, parsed once per process (first use).
Isa env_isa() {
  static const Isa parsed = [] {
    const char* env = std::getenv("FASTZ_SIMD");
    if (env == nullptr || *env == '\0') return detected_isa();
    return runnable(parse_isa(env));  // parse_isa throws on garbage
  }();
  return parsed;
}

}  // namespace

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "scalar";
}

unsigned isa_lanes(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return 1;
    case Isa::kSse2:
    case Isa::kNeon:
      return 4;
    case Isa::kAvx2:
      return 8;
  }
  return 1;
}

Isa parse_isa(std::string_view name) {
  if (name == "auto") return detected_isa();
  if (name == "scalar") return Isa::kScalar;
  if (name == "sse2") return Isa::kSse2;
  if (name == "avx2") return Isa::kAvx2;
  if (name == "neon") return Isa::kNeon;
  throw std::invalid_argument(
      "FASTZ_SIMD must be one of scalar|sse2|avx2|neon|auto, got '" +
      std::string(name) + "'");
}

bool isa_available(Isa isa) noexcept { return compiled_in(isa) && cpu_supports(isa); }

Isa detected_isa() noexcept {
  if (isa_available(Isa::kAvx2)) return Isa::kAvx2;
  if (isa_available(Isa::kSse2)) return Isa::kSse2;
  if (isa_available(Isa::kNeon)) return Isa::kNeon;
  return Isa::kScalar;
}

Isa active_isa() {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Isa>(forced);
  return env_isa();
}

std::vector<Isa> available_isas() {
  std::vector<Isa> out{Isa::kScalar};
  for (Isa isa : {Isa::kSse2, Isa::kAvx2, Isa::kNeon}) {
    if (isa_available(isa)) out.push_back(isa);
  }
  return out;
}

std::string isa_report() {
  const Isa active = active_isa();
  std::string out = "simd: active=";
  out += isa_name(active);
  out += " (" + std::to_string(isa_lanes(active)) + " x i32), detected=";
  out += isa_name(detected_isa());
  out += ", compiled=[";
  bool first = true;
  for (Isa isa : {Isa::kSse2, Isa::kAvx2, Isa::kNeon}) {
    if (!compiled_in(isa)) continue;
    if (!first) out += ' ';
    out += isa_name(isa);
    first = false;
  }
  out += ']';
  return out;
}

ScopedIsa::ScopedIsa(Isa isa)
    : previous_(g_override.exchange(static_cast<int>(runnable(isa)),
                                    std::memory_order_relaxed)) {}

ScopedIsa::~ScopedIsa() { g_override.store(previous_, std::memory_order_relaxed); }

}  // namespace fastz::simd
