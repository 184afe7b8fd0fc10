#include "service/result_cache.hpp"

namespace fastz::service {

std::size_t outcome_bytes(const AlignOutcome& outcome) {
  std::size_t bytes = sizeof(AlignOutcome);
  for (const Alignment& a : outcome.alignments) {
    bytes += sizeof(Alignment) + a.ops.size() * sizeof(AlignOp);
  }
  return bytes;
}

ResultCache::ResultCache(std::size_t max_entries, std::size_t max_bytes)
    : max_entries_(max_entries), max_bytes_(max_bytes) {}

std::optional<AlignOutcome> ResultCache::get(const Digest128& key) {
  std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++stats_.hits;
  return it->second->second;
}

void ResultCache::put(const Digest128& key, AlignOutcome outcome) {
  const std::size_t bytes = outcome_bytes(outcome);
  std::lock_guard lock(mutex_);
  if (max_entries_ == 0 || max_bytes_ == 0 || bytes > max_bytes_) return;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Refresh: same key means same content, but re-inserting still counts
    // as recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(outcome));
  index_.emplace(key, lru_.begin());
  stats_.bytes += bytes;
  ++stats_.insertions;
  evict_locked();
  stats_.entries = lru_.size();
}

void ResultCache::evict_locked() {
  while (!lru_.empty() &&
         (lru_.size() > max_entries_ || stats_.bytes > max_bytes_)) {
    const auto& victim = lru_.back();
    stats_.bytes -= outcome_bytes(victim.second);
    index_.erase(victim.first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

CacheStats ResultCache::stats() const {
  std::lock_guard lock(mutex_);
  CacheStats s = stats_;
  s.entries = lru_.size();
  return s;
}

void ResultCache::clear() {
  std::lock_guard lock(mutex_);
  lru_.clear();
  index_.clear();
  stats_.bytes = 0;
  stats_.entries = 0;
}

}  // namespace fastz::service
