#include "serve/cache.hpp"

namespace rdse::serve {

std::optional<std::string> SolutionCache::lookup(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(std::string_view(key));
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to MRU front
  return it->second->second;
}

void SolutionCache::insert(const std::string& key, std::string payload) {
  if (capacity_ == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = index_.find(std::string_view(key));
      it != index_.end()) {
    // Concurrent identical misses may both compute; the payloads are
    // identical bytes, so replacing in place is safe either way.
    it->second->second = std::move(payload);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(payload));
  index_.emplace(std::string_view(lru_.front().first), lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(std::string_view(lru_.back().first));
    lru_.pop_back();
    ++evictions_;
  }
}

SolutionCache::Stats SolutionCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return Stats{hits_, misses_, evictions_, lru_.size(), capacity_};
}

std::vector<std::pair<std::string, std::string>>
SolutionCache::export_entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {lru_.rbegin(), lru_.rend()};
}

}  // namespace rdse::serve
