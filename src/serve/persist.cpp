#include "serve/persist.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_set>

namespace rdse::serve {

namespace {

JsonValue entry_body(const std::string& key, const std::string& payload) {
  JsonValue body = JsonValue::object();
  body.set("key", key);
  body.set("payload", payload);
  return body;
}

std::vector<JsonValue> entry_bodies(
    std::span<const std::pair<std::string, std::string>> entries) {
  std::vector<JsonValue> bodies;
  for (const auto& [key, payload] : entries) {
    bodies.push_back(entry_body(key, payload));
  }
  return bodies;
}

}  // namespace

LoadedCacheDb load_cache_db(const std::string& path) {
  RecordReplay replay = replay_records(path, kCacheDbFormat);
  LoadedCacheDb out;
  out.skipped = replay.skipped;
  // A key's latest record wins, at its position: walk newest first.
  std::unordered_set<std::string_view> seen;
  for (auto it = replay.bodies.rbegin(); it != replay.bodies.rend(); ++it) {
    const JsonValue* key =
        it->kind() == JsonValue::Kind::kObject ? it->find("key") : nullptr;
    const JsonValue* payload = key != nullptr ? it->find("payload") : nullptr;
    if (key == nullptr || payload == nullptr ||
        key->kind() != JsonValue::Kind::kString ||
        payload->kind() != JsonValue::Kind::kString) {
      ++out.skipped;
      continue;
    }
    if (!seen.insert(key->as_string()).second) {
      ++out.superseded;
      continue;
    }
    out.entries.emplace_back(key->as_string(), payload->as_string());
  }
  std::reverse(out.entries.begin(), out.entries.end());
  return out;
}

bool save_cache_db(
    const std::string& path,
    std::span<const std::pair<std::string, std::string>> entries) {
  return RecordLog(path, kCacheDbFormat).rewrite(entry_bodies(entries));
}

CacheDb::CacheDb(std::string path, SolutionCache& cache)
    : cache_(cache), log_(path, kCacheDbFormat) {
  LoadedCacheDb db = load_cache_db(path);
  for (auto& [key, payload] : db.entries) {
    cache_.insert(key, std::move(payload));
  }
  counters_.loaded = db.entries.size();
  counters_.skipped = db.skipped;
  records_ = db.entries.size() + db.superseded;
  if (db.skipped > 0 || db.superseded > 0 ||
      records_ > 2 * cache_.stats().entries + kCacheDbSlack) {
    compact();
  }
}

void CacheDb::append(const std::string& key, const std::string& payload) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!log_.append(entry_body(key, payload))) {
      ++counters_.append_failures;
      return;
    }
    ++counters_.appends;
    if (++records_ <= 2 * cache_.stats().entries + kCacheDbSlack) return;
  }
  compact();
}

void CacheDb::compact() {
  // Snapshot under the lock appends take: a result inserted before it is
  // in the rewrite, one inserted after it is appended to the new file.
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto entries = cache_.export_entries();
  if (log_.rewrite(entry_bodies(entries))) {
    ++counters_.compactions;
    records_ = entries.size();
  } else {
    ++counters_.compaction_failures;
  }
}

CacheDb::Counters CacheDb::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace rdse::serve
