// Shared types of the alignment service (src/service/): requests, results,
// typed admission errors, and the content-address used by the result cache
// and the in-batch coalescer.
//
// The service wraps the FastZ functional pass behind a long-lived server
// (see server.hpp and docs/SERVICE.md): a bounded request queue with
// admission control, shard workers each owning a virtual GPU that pull
// micro-batches from it (one run_functional_batch call per batch), and a
// content-addressed result cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/alignment.hpp"
#include "score/score_params.hpp"
#include "sequence/sequence.hpp"
#include "util/digest.hpp"

namespace fastz::service {

// One alignment request. The server takes ownership (sequences are moved
// in at submit()); per-request score parameters participate in the cache
// key, so requests with different params never alias.
struct AlignRequest {
  Sequence a;
  Sequence b;
  ScoreParams params;
};

// The functional outcome of one request — what the cache stores and every
// duplicate of the same key receives. modeled_gpu_s is the derived device
// time of the full FastZ configuration on the serving shard's virtual GPU.
struct AlignOutcome {
  std::vector<Alignment> alignments;
  std::uint64_t seeds = 0;
  std::uint64_t inspector_cells = 0;
  double modeled_gpu_s = 0.0;
};

// Per-request reply: the outcome plus how the service produced it.
struct AlignResult {
  AlignOutcome outcome;
  std::uint32_t shard = 0;    // worker / virtual GPU that served it
  bool cache_hit = false;     // answered from the result cache
  bool coalesced = false;     // duplicate of another request in the batch
};

// Admission control: the bounded queue was full. Typed so load generators
// and clients can count sheds without string-matching.
class QueueFullError : public std::runtime_error {
 public:
  QueueFullError(std::size_t depth, std::size_t limit)
      : std::runtime_error("alignment service queue full (depth " +
                           std::to_string(depth) + " >= limit " +
                           std::to_string(limit) + ")"),
        depth_(depth),
        limit_(limit) {}
  std::size_t depth() const noexcept { return depth_; }
  std::size_t limit() const noexcept { return limit_; }

 private:
  std::size_t depth_;
  std::size_t limit_;
};

// submit() after shutdown() began.
class ShutdownError : public std::runtime_error {
 public:
  ShutdownError() : std::runtime_error("alignment service is shutting down") {}
};

// Content address of a request: digest of both sequences (length-prefixed,
// so concatenation ambiguities cannot alias) and every scoring field —
// substitution matrix, gap penalties, y-drop/x-drop, report thresholds.
// Two requests share a key iff the functional pass would produce identical
// results for them, which is what makes cache hits and in-batch
// coalescing sound (pinned by tests/service/result_cache_test.cpp).
Digest128 request_key(const Sequence& a, const Sequence& b, const ScoreParams& params);

}  // namespace fastz::service
