// Request-scoped trace context: 128-bit request/batch ids, propagated
// down the stack via a thread-local.
//
// The alignment service mints a request id at AlignmentServer::submit and
// a batch id when a shard worker seals a batch; every span, flight
// recorder event, and virtual-GPU kernel launch downstream carries the
// ids, so one merged Chrome trace shows a request's full life — queue
// wait, batch linger, functional pass, per-bin executor launches, cache
// path — and the profiler can attribute every launch to the batch (and
// the unique request) that owns it.
//
// Ids reuse the Digest128 id type of the content-addressing machinery
// (util/digest.hpp; the struct is header-only — this library adds no link
// dependency on it). Minting is an atomic counter through a splitmix64
// avalanche per lane: unique within the process, deterministic across
// runs (ids land in checked-in trace fixtures), and never zero — the zero
// id means "unset".
//
// Propagation is a plain thread-local, set with ScopedTraceContext around
// the region that works on behalf of a request/batch (the service worker
// sets it around the functional pass and each derive). It deliberately
// does NOT hop threads: the worker-pool sweep inside the functional pass
// records unattributed spans, while every kernel launch happens on the
// thread that installed the context. Cost discipline matches the rest of
// telemetry: reading the context is one thread-local load, and nothing
// here allocates.
#pragma once

#include <string>

#include "util/digest.hpp"

namespace fastz::telemetry {

struct TraceContext {
  Digest128 request_id{};  // zero = unset
  Digest128 batch_id{};    // zero = unset

  bool has_request() const noexcept { return request_id != Digest128{}; }
  bool has_batch() const noexcept { return batch_id != Digest128{}; }
};

// Unique non-zero ids (process-wide atomic counter; request and batch
// sequences are disjoint).
Digest128 mint_request_id() noexcept;
Digest128 mint_batch_id() noexcept;

// 32 lowercase hex chars, hi word first — the same rendering as
// Digest128::hex(), local to telemetry so this library stays link-free of
// fastz_util.
std::string trace_id_hex(const Digest128& id);

// The calling thread's current context (zero ids when none installed).
const TraceContext& current_trace_context() noexcept;

// RAII install/restore of the calling thread's context.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& context) noexcept;
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext previous_;
};

}  // namespace fastz::telemetry
