// Content-addressed result cache with LRU eviction.
//
// Keys are request digests (service::request_key): identical sequence
// pairs under identical score parameters share an entry; any differing
// scoring field — y-drop included — produces a different key and never
// aliases. Capacity is bounded both by entry count and by an estimated
// payload byte total; eviction is strict LRU (get() refreshes recency).
// All methods are thread-safe; stats() is the cache's one count of hits,
// misses, insertions and evictions (docs/TELEMETRY.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "service/service.hpp"
#include "util/digest.hpp"

namespace fastz::service {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;  // current
  std::size_t bytes = 0;    // current estimated payload bytes
};

// Estimated resident size of a cached outcome (alignment ops dominate).
std::size_t outcome_bytes(const AlignOutcome& outcome);

class ResultCache {
 public:
  // max_entries == 0 or max_bytes == 0 disables caching (every get misses,
  // put is a no-op) — the "cache off" arm of the service A/B bench.
  ResultCache(std::size_t max_entries, std::size_t max_bytes);

  // Copy of the entry (refreshing its recency), or nullopt on miss.
  std::optional<AlignOutcome> get(const Digest128& key);

  // Inserts (or refreshes) `outcome` under `key`, then evicts
  // least-recently-used entries until both capacity bounds hold. An
  // outcome larger than max_bytes is not cached at all.
  void put(const Digest128& key, AlignOutcome outcome);

  CacheStats stats() const;
  void clear();

 private:
  void evict_locked();

  std::size_t max_entries_;
  std::size_t max_bytes_;
  mutable std::mutex mutex_;
  // Front = most recently used. The map points into the list; list splice
  // keeps iterators stable across recency refreshes.
  std::list<std::pair<Digest128, AlignOutcome>> lru_;
  std::unordered_map<Digest128, std::list<std::pair<Digest128, AlignOutcome>>::iterator,
                     Digest128Hash>
      index_;
  CacheStats stats_;
};

}  // namespace fastz::service
