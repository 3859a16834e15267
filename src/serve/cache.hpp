#pragma once
/// \file cache.hpp
/// \brief Keyed solution cache for the exploration service.
///
/// Exploration runs are deterministic functions of (model, architecture
/// parameters, ExplorerConfig), so the daemon memoizes them: the canonical
/// request key (see serve/protocol.hpp) maps to the exact result payload
/// bytes of the first run, and an identical repeated request is served in
/// O(1) — bit-identical to a fresh run — without touching the annealer.
/// Bounded LRU with hit/miss/eviction counters surfaced through the
/// `status` request.

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rdse::serve {

/// Thread-safe bounded LRU map from canonical request key to result payload
/// bytes. The full key string is the map key (the FNV fingerprint is
/// reporting metadata only), so hash collisions cannot alias two requests.
/// `capacity` == 0 disables caching entirely: every lookup misses and
/// inserts are dropped.
class SolutionCache {
 public:
  explicit SolutionCache(std::size_t capacity) : capacity_(capacity) {}

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;
  };

  /// Payload stored under `key`, touching it most-recently-used; counts a
  /// hit or a miss.
  [[nodiscard]] std::optional<std::string> lookup(const std::string& key);

  /// Store `payload` under `key` (replacing any previous value), evicting
  /// least-recently-used entries beyond capacity.
  void insert(const std::string& key, std::string payload);

  [[nodiscard]] Stats stats() const;

  /// Snapshot of every (key, payload) entry, least recently used first:
  /// the order a compacted cache database replays in (serve/persist.hpp).
  [[nodiscard]] std::vector<std::pair<std::string, std::string>>
  export_entries() const;

 private:
  /// MRU-first list of (key, payload); index_ points into it.
  using Entry = std::pair<std::string, std::string>;

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace rdse::serve
