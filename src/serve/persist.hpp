#pragma once
/// \file persist.hpp
/// \brief Crash-safe persistence for the serve solution cache.
///
/// Format `rdse.cachedb.v2`: a record log (util/record_log.hpp) whose
/// record bodies are `{"key": K, "payload": P}`. The file is
/// chronological: a later record for a key supersedes an earlier one, and
/// replay order is recency order. A corrupt persisted cache degrades to
/// cache misses, never to wrong payloads.

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "serve/cache.hpp"
#include "util/record_log.hpp"

namespace rdse::serve {

inline constexpr const char* kCacheDbFormat = "rdse.cachedb.v2";

/// Records a cache database may hold beyond twice the live entries before
/// an append compacts it.
inline constexpr std::uint64_t kCacheDbSlack = 64;

struct LoadedCacheDb {
  /// Verified (key, payload) entries, least recently written first; a key
  /// written again takes its latest payload and position.
  std::vector<std::pair<std::string, std::string>> entries;
  std::uint64_t skipped = 0;     ///< torn, corrupt or foreign-format lines
  std::uint64_t superseded = 0;  ///< records a later one for the key replaced
};

/// Load and verify `path` (a missing file loads empty). Never throws on
/// bad file contents.
[[nodiscard]] LoadedCacheDb load_cache_db(const std::string& path);

/// Atomically write `entries` (least recently used first) to `path`;
/// false on a storage fault, never throws on I/O errors.
[[nodiscard]] bool save_cache_db(
    const std::string& path,
    std::span<const std::pair<std::string, std::string>> entries);

/// The cache database a running service writes: one record appended per
/// fresh result, and a rewrite from the live cache (a compaction) when the
/// startup replay skipped or superseded a record, when the file holds more
/// than 2 x live entries + kCacheDbSlack records, and when the owner asks
/// (drain, SIGHUP). Thread-safe. Storage faults are counted, never thrown:
/// the worst case is a cache miss after the next restart.
class CacheDb {
 public:
  struct Counters {
    std::uint64_t loaded = 0;   ///< entries restored at startup
    std::uint64_t skipped = 0;  ///< corrupt lines skipped at startup
    std::uint64_t appends = 0;  ///< records durably appended
    std::uint64_t append_failures = 0;
    std::uint64_t compactions = 0;  ///< successful rewrites
    std::uint64_t compaction_failures = 0;
  };

  /// Load `path` into `cache`, which must outlive this object.
  CacheDb(std::string path, SolutionCache& cache);

  /// Append a result the caller has just inserted into the cache.
  void append(const std::string& key, const std::string& payload);

  void compact();

  [[nodiscard]] Counters counters() const;

 private:
  SolutionCache& cache_;
  mutable std::mutex mutex_;
  RecordLog log_;
  std::uint64_t records_ = 0;  ///< records the file holds
  Counters counters_;
};

}  // namespace rdse::serve
